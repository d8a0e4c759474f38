//! Device health lifecycle tracking.
//!
//! Real accelerator fleets mostly *degrade* rather than die: thermal
//! throttling, flaky PCIe windows, error bursts that clear. This module
//! scores each device slot from its recent chunk throughput and fault
//! history and moves it through the lifecycle
//!
//! ```text
//! Healthy → Degraded → Healthy          (throughput dips and recovers)
//! any     → Quarantined                 (dropout, or faults on probation)
//! Quarantined → Probation → Healthy     (probe succeeds, clean streak)
//! ```
//!
//! The tracker is *pure*: it owns no simulator state and makes no
//! scheduling decisions itself. Every offload's ledger in
//! [`crate::runtime`] holds one as its only quarantine book. Under a
//! fault config the chunked scheduler also feeds it observations, asks
//! for each slot's share multiplier (degraded devices get shrunken
//! shares instead of exclusion — graceful degradation), and drives the
//! probe/reintegration protocol for quarantined devices. Its thresholds,
//! shares and probe schedule are fixed constants.

use homp_sim::{DeviceId, FaultKind, SimTime};

/// Where a device slot currently sits in the health lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full share; throughput near its historical peak.
    Healthy,
    /// Alive but slow: shares are shrunk to half.
    Degraded,
    /// Excluded from scheduling; periodically probed for recovery.
    Quarantined,
    /// Recently reintegrated: reduced share until a clean streak
    /// graduates it back to [`HealthState::Healthy`].
    Probation,
}

impl HealthState {
    /// Lowercase label for logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Probation => "probation",
        }
    }
}

/// `"from->to"` as a static string, for the decision log's `note`
/// field (decisions carry `&'static str` so logging never allocates).
pub fn transition_note(from: HealthState, to: HealthState) -> &'static str {
    use HealthState::{Degraded, Healthy, Probation, Quarantined};
    match (from, to) {
        (Healthy, Degraded) => "healthy->degraded",
        (Healthy, Quarantined) => "healthy->quarantined",
        (Degraded, Healthy) => "degraded->healthy",
        (Degraded, Quarantined) => "degraded->quarantined",
        (Quarantined, Probation) => "quarantined->probation",
        (Probation, Healthy) => "probation->healthy",
        (Probation, Quarantined) => "probation->quarantined",
        _ => "health-transition",
    }
}

/// EWMA smoothing factor for per-chunk throughput, in `(0, 1]`.
const ALPHA: f64 = 0.5;
/// Degrade when smoothed throughput falls below this fraction of the
/// slot's peak. Kept well under 1.0: the observed signal includes launch
/// overhead and pipeline queue wait, which vary by several percent run
/// to run even on a healthy device.
const DEGRADE_RATIO: f64 = 0.6;
/// Recover to Healthy when smoothed throughput climbs back above this
/// fraction of the peak.
const RECOVER_RATIO: f64 = 0.9;
/// Share multiplier for a degraded slot.
const DEGRADED_SHARE: f64 = 0.5;
/// Share multiplier for a slot on probation.
const PROBATION_SHARE: f64 = 0.25;
/// Clean chunks required to graduate probation.
const PROBATION_CHUNKS: u32 = 2;
/// Initial wait between recovery probes of a quarantined device,
/// microseconds; doubles after each failed probe.
pub(crate) const PROBE_INTERVAL_US: f64 = 500.0;
/// Probes to attempt before giving a device up for dead.
pub(crate) const MAX_PROBES: u32 = 10;
/// Per-chunk decay of the peak-throughput reference toward the current
/// EWMA, in `(0, 1]`. The peak is meant to be a *recent* capability
/// estimate; at `1.0` it becomes an all-time ratchet and a single
/// anomalously fast chunk (noise spike, cold-cache artifact) permanently
/// raises the bar — a device running at its true steady rate would then
/// sit Degraded forever against a moment it never repeats. Values below
/// 1.0 forget such outliers over roughly `1 / (1 - PEAK_DECAY)` chunks.
/// Must decay much slower than the EWMA converges (`ALPHA`), or a
/// *sustained* slowdown drags the reference down as fast as the signal
/// and is never detected.
const PEAK_DECAY: f64 = 0.95;

/// One recorded lifecycle transition — what the runtime threads into
/// the decision log under stage `"health"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTransition {
    /// Scheduler slot index.
    pub slot: usize,
    /// The device occupying the slot.
    pub device: DeviceId,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Virtual instant of the transition.
    pub at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct SlotHealth {
    state: HealthState,
    ewma: Option<f64>,
    peak: f64,
    clean_streak: u32,
}

impl Default for SlotHealth {
    fn default() -> Self {
        Self { state: HealthState::Healthy, ewma: None, peak: 0.0, clean_streak: 0 }
    }
}

/// Health scores and lifecycle states for the slots of one offload.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    slots: Vec<SlotHealth>,
}

impl HealthTracker {
    /// Tracker for `n` slots, all starting Healthy.
    pub fn new(n: usize) -> Self {
        Self { slots: vec![SlotHealth::default(); n] }
    }

    /// Current state of `slot`.
    pub fn state(&self, slot: usize) -> HealthState {
        self.slots[slot].state
    }

    /// Fraction of a normal share this slot should receive right now:
    /// 1.0 healthy, shrunken while degraded or on probation, 0.0 while
    /// quarantined.
    pub fn share_multiplier(&self, slot: usize) -> f64 {
        match self.slots[slot].state {
            HealthState::Healthy => 1.0,
            HealthState::Degraded => DEGRADED_SHARE,
            HealthState::Probation => PROBATION_SHARE,
            HealthState::Quarantined => 0.0,
        }
    }

    /// Record a successfully executed chunk: `iters` iterations whose
    /// pipeline occupied `secs` of virtual time, finishing at `at`.
    /// Returns a transition when the smoothed throughput crosses a
    /// lifecycle threshold.
    pub fn observe_chunk(
        &mut self,
        slot: usize,
        device: DeviceId,
        iters: u64,
        secs: f64,
        at: SimTime,
    ) -> Option<HealthTransition> {
        if secs <= 0.0 || iters == 0 {
            return None;
        }
        let tput = iters as f64 / secs;
        let s = &mut self.slots[slot];
        let ewma = match s.ewma {
            Some(prev) => ALPHA * tput + (1.0 - ALPHA) * prev,
            None => tput,
        };
        s.ewma = Some(ewma);
        s.peak = (s.peak * PEAK_DECAY).max(ewma);
        let from = s.state;
        let to = match from {
            HealthState::Healthy if ewma < DEGRADE_RATIO * s.peak => HealthState::Degraded,
            HealthState::Degraded if ewma >= RECOVER_RATIO * s.peak => HealthState::Healthy,
            HealthState::Probation => {
                s.clean_streak += 1;
                if s.clean_streak >= PROBATION_CHUNKS {
                    HealthState::Healthy
                } else {
                    from
                }
            }
            other => other,
        };
        if to == from {
            return None;
        }
        s.state = to;
        Some(HealthTransition { slot, device, from, to, at })
    }

    /// Record a fault observed on `slot`. Dropouts quarantine from any
    /// state; transient faults quarantine only a device on probation
    /// (it has not yet earned back the benefit of the retry budget).
    /// Slowdown markers never transition — they show up as reduced
    /// throughput via [`HealthTracker::observe_chunk`] instead.
    pub fn observe_fault(
        &mut self,
        slot: usize,
        device: DeviceId,
        kind: FaultKind,
        at: SimTime,
    ) -> Option<HealthTransition> {
        let s = &mut self.slots[slot];
        let from = s.state;
        let quarantine = match kind {
            FaultKind::Dropout => true,
            FaultKind::TransientDma | FaultKind::LaunchTimeout => from == HealthState::Probation,
            FaultKind::Slowdown => false,
        };
        if !quarantine || from == HealthState::Quarantined {
            return None;
        }
        s.state = HealthState::Quarantined;
        s.clean_streak = 0;
        Some(HealthTransition { slot, device, from, to: HealthState::Quarantined, at })
    }

    /// Force-quarantine a slot regardless of fault kind — the scheduler
    /// exhausted the retry budget or otherwise gave the device up.
    /// `None` (no transition) if the slot is already quarantined.
    pub fn quarantine(
        &mut self,
        slot: usize,
        device: DeviceId,
        at: SimTime,
    ) -> Option<HealthTransition> {
        let s = &mut self.slots[slot];
        let from = s.state;
        if from == HealthState::Quarantined {
            return None;
        }
        s.state = HealthState::Quarantined;
        s.clean_streak = 0;
        Some(HealthTransition { slot, device, from, to: HealthState::Quarantined, at })
    }

    /// Move a quarantined slot onto probation (its recovery probe
    /// succeeded). The throughput history restarts so stale pre-outage
    /// samples cannot mask a device that came back slower.
    ///
    /// # Panics
    /// Panics if the slot is not quarantined.
    pub fn begin_probation(
        &mut self,
        slot: usize,
        device: DeviceId,
        at: SimTime,
    ) -> HealthTransition {
        let s = &mut self.slots[slot];
        assert_eq!(
            s.state,
            HealthState::Quarantined,
            "only a quarantined slot can enter probation"
        );
        s.state = HealthState::Probation;
        s.clean_streak = 0;
        s.ewma = None;
        // The peak restarts with the EWMA: a device that came back
        // slower must be measured against its post-outage self, not a
        // reference from before it broke.
        s.peak = 0.0;
        HealthTransition {
            slot,
            device,
            from: HealthState::Quarantined,
            to: HealthState::Probation,
            at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn steady_throughput_stays_healthy() {
        let mut h = HealthTracker::new(2);
        for i in 0..20 {
            // ±5% wobble: well inside the degrade margin.
            let secs = 1.0 + 0.05 * f64::from(i % 2);
            assert!(h.observe_chunk(0, 0, 1000, secs, t(i as f64)).is_none());
        }
        assert_eq!(h.state(0), HealthState::Healthy);
        assert_eq!(h.share_multiplier(0), 1.0);
    }

    #[test]
    fn sustained_slowdown_degrades_then_recovers() {
        let mut h = HealthTracker::new(1);
        // Establish a baseline.
        for i in 0..4 {
            assert!(h.observe_chunk(0, 0, 1000, 1.0, t(i as f64)).is_none());
        }
        // Throughput collapses to a third: a few chunks push the EWMA
        // below degrade_ratio * peak.
        let mut degraded = None;
        for i in 4..10 {
            if let Some(tr) = h.observe_chunk(0, 0, 1000, 3.0, t(i as f64)) {
                degraded = Some(tr);
                break;
            }
        }
        let tr = degraded.expect("sustained 3x slowdown must degrade");
        assert_eq!((tr.from, tr.to), (HealthState::Healthy, HealthState::Degraded));
        assert_eq!(h.share_multiplier(0), DEGRADED_SHARE);
        // Full speed returns: the EWMA climbs back above recover_ratio.
        let mut recovered = None;
        for i in 10..20 {
            if let Some(tr) = h.observe_chunk(0, 0, 1000, 1.0, t(i as f64)) {
                recovered = Some(tr);
                break;
            }
        }
        let tr = recovered.expect("restored throughput must recover");
        assert_eq!((tr.from, tr.to), (HealthState::Degraded, HealthState::Healthy));
        assert_eq!(h.share_multiplier(0), 1.0);
    }

    #[test]
    fn single_fast_outlier_does_not_cause_permanent_degradation() {
        // Regression for the peak ratchet: with `peak = peak.max(ewma)`
        // one 10x-fast chunk pinned the peak forever, so the device's
        // true steady rate (now < degrade_ratio * peak) read as
        // Degraded with no possible recovery (recover_ratio * peak was
        // unreachable). The decaying peak forgets the spike.
        let mut h = HealthTracker::new(1);
        for i in 0..6 {
            assert!(h.observe_chunk(0, 0, 1000, 1.0, t(i as f64)).is_none());
        }
        // One anomalously fast chunk (10x the steady throughput).
        h.observe_chunk(0, 0, 10_000, 1.0, t(6.0));
        // Back to the same steady rate as before the spike. A transient
        // Degraded excursion while the spiked EWMA drains is acceptable;
        // being *stuck* there is the bug.
        for i in 7..60 {
            h.observe_chunk(0, 0, 1000, 1.0, t(i as f64));
        }
        assert_eq!(
            h.state(0),
            HealthState::Healthy,
            "steady post-spike throughput must read as healthy again"
        );
        assert_eq!(h.share_multiplier(0), 1.0);
    }

    #[test]
    fn peak_decays_toward_recent_throughput() {
        let mut h = HealthTracker::new(1);
        h.observe_chunk(0, 0, 10_000, 1.0, t(0.0)); // spike first
        for i in 1..60 {
            h.observe_chunk(0, 0, 1000, 1.0, t(i as f64));
        }
        let s = &h.slots[0];
        assert!(s.peak < 1500.0, "peak {} should have decayed to near the steady rate", s.peak);
    }

    #[test]
    fn dropout_quarantines_from_any_state() {
        let mut h = HealthTracker::new(2);
        let tr = h.observe_fault(0, 0, FaultKind::Dropout, t(1.0)).unwrap();
        assert_eq!((tr.from, tr.to), (HealthState::Healthy, HealthState::Quarantined));
        assert_eq!(h.share_multiplier(0), 0.0);
        // Idempotent: a second dropout on a quarantined slot is silent.
        assert!(h.observe_fault(0, 0, FaultKind::Dropout, t(2.0)).is_none());
        // Other slots unaffected.
        assert_eq!(h.state(1), HealthState::Healthy);
    }

    #[test]
    fn transient_faults_do_not_quarantine_a_healthy_device() {
        let mut h = HealthTracker::new(1);
        assert!(h.observe_fault(0, 0, FaultKind::TransientDma, t(0.1)).is_none());
        assert!(h.observe_fault(0, 0, FaultKind::LaunchTimeout, t(0.2)).is_none());
        assert!(h.observe_fault(0, 0, FaultKind::Slowdown, t(0.3)).is_none());
        assert_eq!(h.state(0), HealthState::Healthy);
    }

    #[test]
    fn probation_graduates_after_a_clean_streak() {
        let mut h = HealthTracker::new(1);
        h.observe_fault(0, 0, FaultKind::Dropout, t(1.0));
        let tr = h.begin_probation(0, 0, t(2.0));
        assert_eq!((tr.from, tr.to), (HealthState::Quarantined, HealthState::Probation));
        assert_eq!(h.share_multiplier(0), PROBATION_SHARE);
        assert!(h.observe_chunk(0, 0, 100, 1.0, t(2.1)).is_none());
        let grad = h.observe_chunk(0, 0, 100, 1.0, t(2.2)).unwrap();
        assert_eq!((grad.from, grad.to), (HealthState::Probation, HealthState::Healthy));
        assert_eq!(h.share_multiplier(0), 1.0);
    }

    #[test]
    fn fault_on_probation_requarantines() {
        let mut h = HealthTracker::new(1);
        h.observe_fault(0, 0, FaultKind::Dropout, t(1.0));
        h.begin_probation(0, 0, t(2.0));
        let tr = h.observe_fault(0, 0, FaultKind::TransientDma, t(2.5)).unwrap();
        assert_eq!((tr.from, tr.to), (HealthState::Probation, HealthState::Quarantined));
    }

    #[test]
    #[should_panic(expected = "quarantined")]
    fn probation_requires_quarantine() {
        let mut h = HealthTracker::new(1);
        h.begin_probation(0, 0, t(0.0));
    }

    #[test]
    fn probation_restarts_the_throughput_baseline() {
        let mut h = HealthTracker::new(1);
        // Fast history, then quarantine.
        for i in 0..4 {
            h.observe_chunk(0, 0, 1000, 0.1, t(i as f64));
        }
        h.observe_fault(0, 0, FaultKind::Dropout, t(5.0));
        h.begin_probation(0, 0, t(6.0));
        // The device comes back 10x slower, but graduates anyway: the
        // streak, not the stale peak, gates probation.
        h.observe_chunk(0, 0, 1000, 1.0, t(6.5));
        let grad = h.observe_chunk(0, 0, 1000, 1.0, t(7.0)).unwrap();
        assert_eq!(grad.to, HealthState::Healthy);
    }

    #[test]
    fn forced_quarantine_works_from_any_state_once() {
        let mut h = HealthTracker::new(1);
        let tr = h.quarantine(0, 0, t(1.0)).unwrap();
        assert_eq!((tr.from, tr.to), (HealthState::Healthy, HealthState::Quarantined));
        assert!(h.quarantine(0, 0, t(2.0)).is_none(), "idempotent");
        assert_eq!(h.state(0), HealthState::Quarantined);
    }

    #[test]
    fn transition_notes_are_stable() {
        assert_eq!(
            transition_note(HealthState::Healthy, HealthState::Degraded),
            "healthy->degraded"
        );
        assert_eq!(
            transition_note(HealthState::Quarantined, HealthState::Probation),
            "quarantined->probation"
        );
        assert_eq!(
            transition_note(HealthState::Probation, HealthState::Healthy),
            "probation->healthy"
        );
    }
}
