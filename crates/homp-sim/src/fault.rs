//! Deterministic fault injection.
//!
//! Real accelerator nodes lose work to transient DMA errors (ECC/CRC
//! retries, dropped interrupts), hung kernel launches, and — rarely —
//! whole devices falling off the bus. A [`FaultPlan`] scripts such
//! faults onto the virtual clock: every decision is a pure function of
//! `(seed, device, operation sequence number)`, so a faulty run replays
//! bit-for-bit, which is what makes recovery testable.
//!
//! The plan is *passive*: the engine consults it only through the
//! fault-checked `try_*` entry points ([`crate::Engine::try_transfer`]
//! and friends). The plain infallible entry points ignore the plan
//! entirely, so profiling, halo exchange and any pre-existing caller
//! behave identically whether or not a plan is installed.

use crate::device::DeviceId;
use crate::noise::bernoulli;
use crate::time::SimTime;
use std::collections::HashMap;

/// Salt for transient-DMA draws (distinct stream from noise draws).
const SALT_DMA: u64 = 0x0D3A_0D3A;
/// Salt for launch-timeout draws.
const SALT_LAUNCH: u64 = 0x1A57_1A57;

/// Category of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A DMA transfer failed mid-flight; retrying may succeed.
    TransientDma,
    /// A kernel launch hung until the watchdog fired; retriable.
    LaunchTimeout,
    /// The device dropped off the bus at a scripted time; permanent
    /// unless the plan scripts a recovery.
    Dropout,
    /// The device is degraded (thermal throttling): operations inside
    /// the scripted window run slower but still succeed. Never returned
    /// as an error — it only marks stretched operations in the trace.
    Slowdown,
}

impl FaultKind {
    /// Every kind, in a stable order ([`FaultKind::index`] indexes it).
    pub const ALL: [FaultKind; 4] = [
        FaultKind::TransientDma,
        FaultKind::LaunchTimeout,
        FaultKind::Dropout,
        FaultKind::Slowdown,
    ];

    /// Position in [`FaultKind::ALL`] — a dense key for per-kind
    /// counters.
    pub fn index(&self) -> usize {
        match self {
            FaultKind::TransientDma => 0,
            FaultKind::LaunchTimeout => 1,
            FaultKind::Dropout => 2,
            FaultKind::Slowdown => 3,
        }
    }

    /// Whether retrying on the same device can ever succeed.
    pub fn is_permanent(&self) -> bool {
        matches!(self, FaultKind::Dropout)
    }

    /// Short label used in trace events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::TransientDma => "dma-error",
            FaultKind::LaunchTimeout => "launch-timeout",
            FaultKind::Dropout => "dropout",
            FaultKind::Slowdown => "slowdown",
        }
    }

    /// Recover the kind from a trace-event label: fault events are
    /// recorded as `"<op label> [<kind label>]"`, so the trailing
    /// bracketed tag identifies the kind.
    pub fn from_label_suffix(label: &str) -> Option<FaultKind> {
        let (_, tail) = label.rsplit_once('[')?;
        let tag = tail.strip_suffix(']')?;
        FaultKind::ALL.iter().copied().find(|k| k.label() == tag)
    }
}

/// A detected fault: which device failed, how, and when the failure
/// surfaced on the virtual clock (retries and recovery start here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// The failing device.
    pub device: DeviceId,
    /// What went wrong.
    pub kind: FaultKind,
    /// Instant the proxy observed the failure.
    pub at: SimTime,
}

/// A degraded-mode window: compute and transfer durations on the device
/// are stretched by `factor` for operations starting inside
/// `[from, until)` — the thermal-throttling shape, as opposed to the
/// all-or-nothing dropout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownWindow {
    /// Duration multiplier (>= 1.0).
    pub factor: f64,
    /// Window start (virtual seconds, inclusive).
    pub from: f64,
    /// Window end (virtual seconds, exclusive).
    pub until: f64,
}

impl SlowdownWindow {
    /// Whether an operation starting at `at` falls inside the window.
    pub fn contains(&self, at: SimTime) -> bool {
        let s = at.as_secs();
        s >= self.from && s < self.until
    }
}

/// A flaky interval: transient DMA and launch-timeout rates are raised
/// to at least the window's rates for operations starting inside
/// `[from, until)` — a burst of bus errors that clears, rather than a
/// permanently noisy device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyWindow {
    /// Window start (virtual seconds, inclusive).
    pub from: f64,
    /// Window end (virtual seconds, exclusive).
    pub until: f64,
    /// Transient-DMA failure probability inside the window.
    pub dma_rate: f64,
    /// Launch-timeout probability inside the window.
    pub launch_rate: f64,
}

impl FlakyWindow {
    /// Whether an operation starting at `at` falls inside the window.
    pub fn contains(&self, at: SimTime) -> bool {
        let s = at.as_secs();
        s >= self.from && s < self.until
    }
}

/// Fault program for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFaultPlan {
    /// Probability that any single DMA transfer fails transiently.
    pub transient_dma_rate: f64,
    /// Probability that any single kernel launch times out.
    pub launch_timeout_rate: f64,
    /// Seconds a failed DMA burns before the error surfaces.
    pub dma_error_latency: f64,
    /// Seconds a hung launch burns before the watchdog fires.
    pub timeout_latency: f64,
    /// Virtual time (seconds) at which the device permanently drops
    /// out; `None` means it never does.
    pub fail_at: Option<f64>,
    /// Virtual time (seconds) at which a scripted dropout ends: the
    /// device answers submissions again from here on. `None` keeps the
    /// dropout permanent.
    pub recover_at: Option<f64>,
    /// Degraded-mode window, if any.
    pub slowdown: Option<SlowdownWindow>,
    /// Elevated-transient-rate window, if any.
    pub flaky: Option<FlakyWindow>,
}

impl Default for DeviceFaultPlan {
    fn default() -> Self {
        Self {
            transient_dma_rate: 0.0,
            launch_timeout_rate: 0.0,
            dma_error_latency: 50e-6,
            timeout_latency: 1e-3,
            fail_at: None,
            recover_at: None,
            slowdown: None,
            flaky: None,
        }
    }
}

impl DeviceFaultPlan {
    /// Whether this plan can ever produce a fault or perturb timing.
    pub fn is_active(&self) -> bool {
        self.transient_dma_rate > 0.0
            || self.launch_timeout_rate > 0.0
            || self.fail_at.is_some()
            || self.slowdown.is_some()
            || self.flaky.is_some()
    }
}

/// Scripted faults for a whole machine: a seed plus per-device
/// programs. Devices without an entry never fail.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    devices: HashMap<DeviceId, DeviceFaultPlan>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Empty plan with a draw seed (deterministic across runs; two
    /// plans with the same seed and programs fault identically).
    pub fn new(seed: u64) -> Self {
        Self { seed, devices: HashMap::new() }
    }

    /// Whether the plan can ever produce a fault.
    pub fn is_none(&self) -> bool {
        !self.devices.values().any(|p| p.is_active())
    }

    /// The draw seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Install a full per-device program.
    #[must_use]
    pub fn with_device(mut self, device: DeviceId, plan: DeviceFaultPlan) -> Self {
        self.devices.insert(device, plan);
        self
    }

    /// Script a dropout of `device` at virtual second `secs` (permanent
    /// unless paired with [`FaultPlan::with_recovery_at`]).
    #[must_use]
    pub fn with_dropout_at(mut self, device: DeviceId, secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "dropout time must be >= 0, got {secs}");
        self.devices.entry(device).or_default().fail_at = Some(secs);
        self
    }

    /// Script the end of `device`'s dropout: submissions starting at or
    /// after `secs` succeed again. Only meaningful together with
    /// [`FaultPlan::with_dropout_at`].
    #[must_use]
    pub fn with_recovery_at(mut self, device: DeviceId, secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "recovery time must be >= 0, got {secs}");
        self.devices.entry(device).or_default().recover_at = Some(secs);
        self
    }

    /// Give `device` a per-transfer transient-DMA failure probability.
    #[must_use]
    pub fn with_transient_dma(mut self, device: DeviceId, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1], got {rate}");
        self.devices.entry(device).or_default().transient_dma_rate = rate;
        self
    }

    /// Give `device` a per-launch timeout probability.
    #[must_use]
    pub fn with_launch_timeouts(mut self, device: DeviceId, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1], got {rate}");
        self.devices.entry(device).or_default().launch_timeout_rate = rate;
        self
    }

    /// Stretch `device`'s compute and transfer durations by `factor`
    /// for operations starting inside `[from, until)` seconds.
    #[must_use]
    pub fn with_slowdown(mut self, device: DeviceId, factor: f64, from: f64, until: f64) -> Self {
        assert!(factor.is_finite() && factor >= 1.0, "slowdown factor must be >= 1, got {factor}");
        assert!(
            from.is_finite() && until.is_finite() && 0.0 <= from && from <= until,
            "slowdown window must satisfy 0 <= from <= until, got [{from}, {until})"
        );
        self.devices.entry(device).or_default().slowdown =
            Some(SlowdownWindow { factor, from, until });
        self
    }

    /// Raise `device`'s transient rates to at least `dma_rate` /
    /// `launch_rate` for operations starting inside `[from, until)`
    /// seconds. Outside the window the base rates apply unchanged, and
    /// the draws use the same deterministic stream, so a run with a
    /// flaky window is bit-identical to the base run outside it.
    #[must_use]
    pub fn with_flaky_window(
        mut self,
        device: DeviceId,
        from: f64,
        until: f64,
        dma_rate: f64,
        launch_rate: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&dma_rate), "rate must be in [0,1], got {dma_rate}");
        assert!((0.0..=1.0).contains(&launch_rate), "rate must be in [0,1], got {launch_rate}");
        assert!(
            from.is_finite() && until.is_finite() && 0.0 <= from && from <= until,
            "flaky window must satisfy 0 <= from <= until, got [{from}, {until})"
        );
        self.devices.entry(device).or_default().flaky =
            Some(FlakyWindow { from, until, dma_rate, launch_rate });
        self
    }

    /// The device's program, if it has one.
    #[inline]
    pub fn device(&self, device: DeviceId) -> Option<&DeviceFaultPlan> {
        // Fast path for the overwhelmingly common no-plan case: the
        // engine probes the plan several times per simulated operation,
        // and hashing the key costs more than this length check.
        if self.devices.is_empty() {
            return None;
        }
        self.devices.get(&device)
    }

    /// The device's scripted dropout instant, if any.
    pub fn fail_at(&self, device: DeviceId) -> Option<SimTime> {
        self.device(device).and_then(|p| p.fail_at).map(SimTime::from_secs)
    }

    /// Where inside `[start, end)` the device's scripted outage kills an
    /// operation, if it does. `Some(start)` means the submission itself
    /// fails (the device is already gone); a later instant means the
    /// operation dies mid-flight at the dropout. Operations starting at
    /// or after a scripted recovery succeed again.
    #[inline]
    pub fn dropout_at(&self, device: DeviceId, start: SimTime, end: SimTime) -> Option<SimTime> {
        let p = self.device(device)?;
        let tf = SimTime::from_secs(p.fail_at?);
        if let Some(rec) = p.recover_at {
            if start >= SimTime::from_secs(rec) {
                return None;
            }
        }
        if start >= tf {
            Some(start)
        } else if end > tf {
            Some(tf)
        } else {
            None
        }
    }

    /// Duration multiplier for an operation starting at `at` on
    /// `device` (1.0 when no slowdown window covers the instant).
    #[inline]
    pub fn slowdown_factor(&self, device: DeviceId, at: SimTime) -> f64 {
        match self.device(device).and_then(|p| p.slowdown) {
            Some(w) if w.contains(at) => w.factor,
            _ => 1.0,
        }
    }

    /// Deterministic draw: does transfer number `seq` on `device`,
    /// starting at `at`, fail transiently? The base rate applies, raised
    /// to the flaky window's inside `[from, until)`. The draw uses the
    /// same hash words either way and `bernoulli` is monotone in the
    /// rate, so outside the window (and whenever the window rate is not
    /// higher) the outcome is the base-rate draw.
    #[inline]
    pub fn dma_fault_at(&self, device: DeviceId, seq: u64, at: SimTime) -> bool {
        match self.device(device) {
            Some(p) => {
                let rate = match p.flaky {
                    Some(w) if w.contains(at) => p.transient_dma_rate.max(w.dma_rate),
                    _ => p.transient_dma_rate,
                };
                bernoulli(&[self.seed, device as u64, seq, SALT_DMA], rate)
            }
            None => false,
        }
    }

    /// Deterministic draw: does launch number `seq` on `device`,
    /// starting at `at`, hang? Window-aware like
    /// [`FaultPlan::dma_fault_at`].
    #[inline]
    pub fn launch_fault_at(&self, device: DeviceId, seq: u64, at: SimTime) -> bool {
        match self.device(device) {
            Some(p) => {
                let rate = match p.flaky {
                    Some(w) if w.contains(at) => p.launch_timeout_rate.max(w.launch_rate),
                    _ => p.launch_timeout_rate,
                };
                bernoulli(&[self.seed, device as u64, seq, SALT_LAUNCH], rate)
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An instant outside every flaky window below, where the draws use
    /// the base rates.
    const OUTSIDE: SimTime = SimTime::ZERO;

    #[test]
    fn empty_plan_is_none_and_never_faults() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for d in 0..8u32 {
            for s in 0..100u64 {
                assert!(!p.dma_fault_at(d, s, OUTSIDE));
                assert!(!p.launch_fault_at(d, s, OUTSIDE));
            }
        }
        assert_eq!(p.fail_at(0), None);
    }

    #[test]
    fn builders_activate_the_plan() {
        assert!(!FaultPlan::new(1).with_dropout_at(2, 0.5).is_none());
        assert!(!FaultPlan::new(1).with_transient_dma(0, 0.1).is_none());
        assert!(!FaultPlan::new(1).with_launch_timeouts(0, 0.1).is_none());
        // A device entry with all-zero rates is still inert.
        assert!(FaultPlan::new(1).with_device(0, DeviceFaultPlan::default()).is_none());
    }

    #[test]
    fn draws_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(7).with_transient_dma(1, 0.5);
        let b = FaultPlan::new(7).with_transient_dma(1, 0.5);
        let c = FaultPlan::new(8).with_transient_dma(1, 0.5);
        let seq_a: Vec<bool> = (0..64).map(|s| a.dma_fault_at(1, s, OUTSIDE)).collect();
        let seq_b: Vec<bool> = (0..64).map(|s| b.dma_fault_at(1, s, OUTSIDE)).collect();
        let seq_c: Vec<bool> = (0..64).map(|s| c.dma_fault_at(1, s, OUTSIDE)).collect();
        assert_eq!(seq_a, seq_b, "same seed replays identically");
        assert_ne!(seq_a, seq_c, "different seed diverges");
    }

    #[test]
    fn rate_extremes_are_exact() {
        let always = FaultPlan::new(0).with_transient_dma(0, 1.0);
        let never = FaultPlan::new(0).with_transient_dma(0, 0.0);
        for s in 0..32 {
            assert!(always.dma_fault_at(0, s, OUTSIDE));
            assert!(!never.dma_fault_at(0, s, OUTSIDE));
        }
    }

    #[test]
    fn dma_and_launch_draws_use_distinct_streams() {
        let p = FaultPlan::new(3).with_transient_dma(0, 0.5).with_launch_timeouts(0, 0.5);
        let dma: Vec<bool> = (0..128).map(|s| p.dma_fault_at(0, s, OUTSIDE)).collect();
        let launch: Vec<bool> = (0..128).map(|s| p.launch_fault_at(0, s, OUTSIDE)).collect();
        assert_ne!(dma, launch);
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let p = FaultPlan::new(11).with_transient_dma(0, 0.25);
        let n = 20_000u64;
        let hits = (0..n).filter(|&s| p.dma_fault_at(0, s, OUTSIDE)).count() as f64;
        let rate = hits / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn faults_only_hit_scripted_devices() {
        let p = FaultPlan::new(5).with_transient_dma(2, 1.0);
        assert!(p.dma_fault_at(2, 1, OUTSIDE));
        assert!(!p.dma_fault_at(0, 1, OUTSIDE));
        assert!(!p.dma_fault_at(1, 1, OUTSIDE));
    }

    #[test]
    fn slowdown_factor_applies_only_inside_the_window() {
        let p = FaultPlan::new(1).with_slowdown(0, 3.0, 1.0, 2.0);
        assert!(!p.is_none(), "a slowdown window makes the plan active");
        assert_eq!(p.slowdown_factor(0, SimTime::from_secs(0.5)), 1.0);
        assert_eq!(p.slowdown_factor(0, SimTime::from_secs(1.0)), 3.0, "inclusive start");
        assert_eq!(p.slowdown_factor(0, SimTime::from_secs(1.99)), 3.0);
        assert_eq!(p.slowdown_factor(0, SimTime::from_secs(2.0)), 1.0, "exclusive end");
        assert_eq!(p.slowdown_factor(1, SimTime::from_secs(1.5)), 1.0, "other devices");
    }

    #[test]
    fn flaky_window_raises_rates_only_inside() {
        let p = FaultPlan::new(9).with_flaky_window(0, 1.0, 2.0, 1.0, 1.0);
        assert!(!p.is_none());
        for s in 0..32 {
            assert!(p.dma_fault_at(0, s, SimTime::from_secs(1.5)));
            assert!(p.launch_fault_at(0, s, SimTime::from_secs(1.5)));
            assert!(!p.dma_fault_at(0, s, SimTime::from_secs(0.5)));
            assert!(!p.launch_fault_at(0, s, SimTime::from_secs(2.5)));
        }
    }

    #[test]
    fn flaky_window_is_superset_of_base_draws() {
        // bernoulli is monotone in the rate over the same hash words, so
        // inside the window every base-rate fault still fires, and
        // outside the window the draws are exactly the base draws.
        let base = FaultPlan::new(13).with_transient_dma(0, 0.3);
        let flaky =
            FaultPlan::new(13).with_transient_dma(0, 0.3).with_flaky_window(0, 1.0, 2.0, 0.8, 0.0);
        for s in 0..512 {
            let inside = SimTime::from_secs(1.5);
            let outside = SimTime::from_secs(0.5);
            let base_fault = base.dma_fault_at(0, s, inside);
            assert_eq!(base_fault, base.dma_fault_at(0, s, outside), "no window, one draw");
            if base_fault {
                assert!(flaky.dma_fault_at(0, s, inside), "window must keep base faults");
            }
            assert_eq!(
                base_fault,
                flaky.dma_fault_at(0, s, outside),
                "outside the window the draw is the base draw"
            );
        }
    }

    #[test]
    fn recovery_ends_the_outage_for_new_submissions() {
        let p = FaultPlan::new(2).with_dropout_at(0, 1.0).with_recovery_at(0, 2.0);
        let t = SimTime::from_secs;
        // Before the dropout: unaffected.
        assert_eq!(p.dropout_at(0, t(0.2), t(0.8)), None);
        // Straddling the dropout: dies at the dropout instant.
        assert_eq!(p.dropout_at(0, t(0.5), t(1.5)), Some(t(1.0)));
        // Submitted during the outage: fails at submission.
        assert_eq!(p.dropout_at(0, t(1.5), t(1.6)), Some(t(1.5)));
        // Submitted after recovery: succeeds.
        assert_eq!(p.dropout_at(0, t(2.0), t(9.0)), None);
        assert_eq!(p.dropout_at(0, t(3.0), t(4.0)), None);
        // Without a recovery the outage is permanent.
        let perm = FaultPlan::new(2).with_dropout_at(0, 1.0);
        assert_eq!(perm.dropout_at(0, t(3.0), t(4.0)), Some(t(3.0)));
    }

    #[test]
    fn fault_kind_round_trips_through_trace_labels() {
        for kind in FaultKind::ALL {
            let label = format!("chunk-in [{}]", kind.label());
            assert_eq!(FaultKind::from_label_suffix(&label), Some(kind));
            assert_eq!(FaultKind::ALL[kind.index()], kind);
        }
        assert_eq!(FaultKind::from_label_suffix("plain-op"), None);
        assert_eq!(FaultKind::from_label_suffix("x [unknown]"), None);
    }
}
