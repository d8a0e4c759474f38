//! Trace-derived per-device metrics — the observability layer's
//! simulator half.
//!
//! [`Metrics`] answers "how much time went to each operation category"
//! (Fig. 6's breakdown) and the follow-on questions an operator
//! debugging a distribution asks: how *utilized* was each
//! device (union of busy intervals over the makespan, so triple-counted
//! overlap does not inflate the number), how much DMA actually hid
//! behind compute, how long did work sit between operations, how many
//! bytes and iterations moved, and what did fault handling cost.
//!
//! Everything here is computed after the fact from an immutable
//! [`Trace`] — recording metrics can never perturb the simulation
//! (golden traces stay byte-identical with metrics on or off).

use crate::fault::FaultKind;
use crate::time::SimTime;
use crate::trace::{OpKind, Trace};

/// Merge possibly-overlapping `(start, end)` intervals, in place, into
/// a sorted disjoint set held in the prefix of `iv` whose length is
/// returned. Zero-length intervals are dropped, and so are intervals
/// with a non-finite bound: `SimTime` arithmetic saturates into `inf`
/// under adversarial noise amplitudes, and a single such interval would
/// poison every downstream union/utilization total (or, worse, a NaN
/// would abort the report path mid-sort). Metrics are a read-side
/// diagnostic — a corrupt interval is dropped, never fatal.
fn merge(iv: &mut [(f64, f64)]) -> usize {
    let mut kept = 0;
    for i in 0..iv.len() {
        let (s, e) = iv[i];
        if s.is_finite() && e.is_finite() && e > s {
            iv[kept] = (s, e);
            kept += 1;
        }
    }
    let iv = &mut iv[..kept];
    // Keys that compare equal under `total_cmp` are bit-identical, so
    // the unstable sort (which never allocates) orders them as a stable
    // one would.
    iv.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut len = 0;
    for i in 0..iv.len() {
        let (s, e) = iv[i];
        if len > 0 && s <= iv[len - 1].1 {
            iv[len - 1].1 = iv[len - 1].1.max(e);
        } else {
            iv[len] = (s, e);
            len += 1;
        }
    }
    len
}

/// Interval classes [`Metrics::from_trace`] unions per device, in
/// bucket order.
const WORK: usize = 0;
const COMPUTE: usize = 1;
const DMA: usize = 2;
const CLASSES: usize = 3;

/// The interval classes an event of `kind` joins. Working time is
/// everything but barrier waits and retry backoffs (neither holds a
/// device engine busy); kernels are compute, transfers are DMA.
fn classes(kind: OpKind) -> &'static [usize] {
    match kind {
        OpKind::Kernel => &[WORK, COMPUTE],
        OpKind::H2D | OpKind::D2H => &[WORK, DMA],
        OpKind::Init | OpKind::Fault | OpKind::Failover => &[WORK],
        OpKind::Sync | OpKind::Backoff => &[],
    }
}

/// Total length of a merged (sorted, disjoint) interval set. Folds from
/// `+0.0`: `Iterator::sum` for floats starts at `-0.0`, which would leak
/// a negative zero out of an empty set.
fn total_len(merged: &[(f64, f64)]) -> f64 {
    merged.iter().fold(0.0, |acc, &(s, e)| acc + (e - s))
}

/// Length of the intersection of two merged interval sets.
fn intersection_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            acc += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

/// Cumulative transfer accounting for a persistent device-data
/// environment (`target data`), kept *across* offloads — unlike
/// [`Metrics`], which is recomputed per trace. The runtime adds to these
/// counters as it decides, per mapped array, whether bytes must move or
/// are already resident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Host→device bytes actually transferred.
    pub h2d_bytes: u64,
    /// Host→device bytes *elided*: requested by a map but already
    /// resident with a compatible partition, so never moved.
    pub h2d_elided_bytes: u64,
    /// Device→host bytes actually transferred (including deferred
    /// copy-backs flushed at region close or `target update from`).
    pub d2h_bytes: u64,
    /// Device→host bytes elided: per-offload copy-backs deferred by
    /// dirty tracking (the region writes back once, not every offload).
    pub d2h_elided_bytes: u64,
    /// Bytes moved to *repartition* resident data after a split change
    /// (e.g. BLOCK → MODEL_1); a subset of `h2d_bytes`.
    pub redistributed_bytes: u64,
}

impl TransferStats {
    /// Merge another set of counters into this one.
    pub fn absorb(&mut self, other: &TransferStats) {
        self.h2d_bytes += other.h2d_bytes;
        self.h2d_elided_bytes += other.h2d_elided_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.d2h_elided_bytes += other.d2h_elided_bytes;
        self.redistributed_bytes += other.redistributed_bytes;
    }
}

/// Metrics for one device, computed from its trace events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceMetrics {
    /// Summed span, seconds, per [`OpKind`] (in `OpKind::ALL` order);
    /// bit for bit what [`Engine::busy`](crate::Engine::busy) sums over
    /// the same ops when they are traced at full level.
    pub busy_s: [f64; OpKind::N],
    /// Length of the union of this device's working intervals (every
    /// kind except SYNC and BACKOFF), seconds. Never exceeds the
    /// makespan, even though a device's three engines overlap.
    pub busy_union_s: f64,
    /// Length of the union of KERNEL intervals, seconds.
    pub compute_s: f64,
    /// Length of the union of H2D + D2H intervals, seconds.
    pub dma_s: f64,
    /// Seconds during which a DMA interval and a compute interval were
    /// simultaneously active on this device.
    pub overlap_s: f64,
    /// `overlap_s` over the smaller of `compute_s`/`dma_s` — the
    /// fraction of the hideable work that was actually hidden. In
    /// `[0, 1]`; 0 when the device did no compute or no DMA.
    pub overlap_fraction: f64,
    /// `busy_union_s / makespan` — fraction of the region the device
    /// spent doing anything. In `[0, 1]`.
    pub utilization: f64,
    /// Idle time inside the device's own active window (last end minus
    /// first start, minus the busy union): time work spent queued
    /// between operations, seconds.
    pub queue_wait_s: f64,
    /// End of the device's last working event, neither SYNC nor
    /// BACKOFF (its completion time).
    pub completion_s: f64,
    /// Bytes moved host-to-device.
    pub h2d_bytes: u64,
    /// Bytes moved device-to-host.
    pub d2h_bytes: u64,
    /// Kernel iterations executed.
    pub kernel_iters: u64,
    /// FAULT events observed (injected faults that hit this device).
    pub fault_events: u64,
    /// FAULT events broken down by [`FaultKind`], indexed by
    /// [`FaultKind::index`] in [`FaultKind::ALL`] order. Kinds are
    /// recovered from the trace label's trailing `[tag]`; events without
    /// a recognizable tag count only in `fault_events`.
    pub faults_by_kind: [u64; FaultKind::ALL.len()],
    /// BACKOFF events (retry waits after transient faults).
    pub backoff_events: u64,
    /// FAILOVER events (requeue bookkeeping paid by this survivor).
    pub failover_events: u64,
}

/// Per-device metrics for one traced region.
///
/// Built with [`Metrics::from_trace`]; tolerates traces mentioning
/// devices at or beyond the nominal `n_devices` (rows grow to fit, they
/// never panic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Region makespan, seconds (latest event end).
    pub makespan_s: f64,
    /// One entry per device, indexed by device id.
    pub devices: Vec<DeviceMetrics>,
}

impl Metrics {
    /// Compute metrics from a trace. `n_devices` sets the minimum number
    /// of rows; devices with ids beyond it grow the vector instead of
    /// panicking.
    ///
    /// Every interval lands in one flat buffer, bucketed by device and
    /// class (`device · CLASSES + class`). A first pass counts events per
    /// device and kind, which sizes the buckets; a second pass fills
    /// them, and each bucket is merged in place. The number of buffers
    /// does not depend on the device count.
    pub fn from_trace(trace: &Trace, n_devices: usize) -> Metrics {
        let events = trace.events();

        // Events per (device, kind); rows grow to fit device ids at or
        // beyond `n_devices`. The same pass takes `Trace::makespan` (the
        // last of equal maxima).
        let mut kinds = vec![0usize; n_devices * OpKind::N];
        let mut makespan = None;
        for e in events {
            if makespan.is_none_or(|m| e.end >= m) {
                makespan = Some(e.end);
            }
            let k = e.device as usize * OpKind::N;
            if kinds.len() < k + OpKind::N {
                kinds.resize(k + OpKind::N, 0);
            }
            kinds[k + e.kind.index()] += 1;
        }
        let makespan_s = makespan.unwrap_or(SimTime::ZERO).as_secs();
        let rows = kinds.len() / OpKind::N;

        // `next[b]` is bucket b's size, then (after the prefix sum) its
        // start, then (after the fill) its end; bucket b begins at
        // `next[b - 1]`.
        let mut next = vec![0usize; rows * CLASSES];
        for (d, per_kind) in kinds.chunks_exact(OpKind::N).enumerate() {
            for (&kind, &n) in OpKind::ALL.iter().zip(per_kind) {
                for &c in classes(kind) {
                    next[d * CLASSES + c] += n;
                }
            }
        }
        let mut total = 0;
        for n in &mut next {
            let count = *n;
            *n = total;
            total += count;
        }
        let mut iv = vec![(0.0, 0.0); total];
        let mut devices = vec![DeviceMetrics::default(); rows];

        for e in events {
            let d = e.device as usize;
            let m = &mut devices[d];
            let (s, t) = (e.start.as_secs(), e.end.as_secs());
            m.busy_s[e.kind.index()] += t - s;
            match e.kind {
                OpKind::Kernel => m.kernel_iters += e.amount,
                OpKind::H2D => m.h2d_bytes += e.amount,
                OpKind::D2H => m.d2h_bytes += e.amount,
                OpKind::Fault => {
                    m.fault_events += 1;
                    if let Some(kind) = FaultKind::from_label_suffix(trace.label(e.label)) {
                        m.faults_by_kind[kind.index()] += 1;
                    }
                }
                OpKind::Backoff => m.backoff_events += 1,
                OpKind::Failover => m.failover_events += 1,
                OpKind::Init | OpKind::Sync => {}
            }
            let joins = classes(e.kind);
            // A device completes with its last working interval.
            if joins.contains(&WORK) {
                m.completion_s = m.completion_s.max(t);
            }
            for &c in joins {
                let b = d * CLASSES + c;
                iv[next[b]] = (s, t);
                next[b] += 1;
            }
        }

        for (d, m) in devices.iter_mut().enumerate() {
            let b = d * CLASSES;
            let lo = if b == 0 { 0 } else { next[b - 1] };
            let (work, rest) = iv[lo..next[b + DMA]].split_at_mut(next[b + WORK] - lo);
            let (compute, dma) = rest.split_at_mut(next[b + COMPUTE] - next[b + WORK]);
            let (nw, nc, nd) = (merge(work), merge(compute), merge(dma));
            let (work, compute, dma) = (&work[..nw], &compute[..nc], &dma[..nd]);
            m.busy_union_s = total_len(work);
            m.compute_s = total_len(compute);
            m.dma_s = total_len(dma);
            m.overlap_s = intersection_len(compute, dma);
            let hideable = m.compute_s.min(m.dma_s);
            m.overlap_fraction =
                if hideable > 0.0 { (m.overlap_s / hideable).min(1.0) } else { 0.0 };
            m.utilization =
                if makespan_s > 0.0 { (m.busy_union_s / makespan_s).min(1.0) } else { 0.0 };
            m.queue_wait_s = match (work.first(), work.last()) {
                (Some(&(first, _)), Some(&(_, last))) => ((last - first) - m.busy_union_s).max(0.0),
                _ => 0.0,
            };
        }
        Metrics { makespan_s, devices }
    }

    /// Total bytes moved host-to-device across all devices.
    pub fn total_h2d_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.h2d_bytes).sum()
    }

    /// Total bytes moved device-to-host across all devices.
    pub fn total_d2h_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.d2h_bytes).sum()
    }

    /// Total kernel iterations executed across all devices.
    pub fn total_kernel_iters(&self) -> u64 {
        self.devices.iter().map(|d| d.kernel_iters).sum()
    }

    /// Total FLOPs executed, given the kernel's per-iteration FLOP count.
    pub fn total_flops(&self, flops_per_iter: f64) -> f64 {
        self.total_kernel_iters() as f64 * flops_per_iter
    }

    /// Total FAULT events per [`FaultKind`] across all devices, indexed
    /// by [`FaultKind::index`].
    pub fn fault_events_by_kind(&self) -> [u64; FaultKind::ALL.len()] {
        let mut out = [0u64; FaultKind::ALL.len()];
        for d in &self.devices {
            for (slot, n) in d.faults_by_kind.iter().enumerate() {
                out[slot] += n;
            }
        }
        out
    }

    /// The paper's load-balance ratio: max over min completion time
    /// among devices that completed any work. `1.0` with fewer than two
    /// participants.
    pub fn load_balance_ratio(&self) -> f64 {
        load_balance_ratio(self.devices.iter().map(|d| d.completion_s))
    }
}

/// The paper's load-imbalance metric: the mean over participating
/// (non-zero) completions of `(total − completion) / total`, as a
/// percentage. `0.0` when `total` is not positive or nothing
/// participated.
pub(crate) fn imbalance_pct(total: f64, completions: impl Iterator<Item = f64>) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let (mut sum, mut n) = (0.0, 0usize);
    for c in completions.filter(|c| *c > 0.0) {
        sum += (total - c) / total * 100.0;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Max/min completion-time ratio over the participating (non-zero)
/// completions — the Table IV/V load-balance metric. `1.0` with fewer
/// than two participants.
pub(crate) fn load_balance_ratio(completions: impl Iterator<Item = f64>) -> f64 {
    let (mut lo, mut hi, mut n) = (f64::INFINITY, 0.0f64, 0usize);
    for c in completions.filter(|c| *c > 0.0) {
        lo = lo.min(c);
        hi = hi.max(c);
        n += 1;
    }
    if n < 2 || lo <= 0.0 {
        1.0
    } else {
        hi / lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// `merge` on an owned list, returning the merged prefix.
    fn merge_owned(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
        let len = merge(&mut iv);
        iv.truncate(len);
        iv
    }

    #[test]
    fn counters_and_unions_from_simple_trace() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::H2D, t(0.0), t(1.0), 100, "in");
        tr.record(0, OpKind::Kernel, t(0.5), t(2.5), 10, "k");
        tr.record(0, OpKind::D2H, t(2.5), t(3.0), 50, "out");
        tr.record(1, OpKind::Kernel, t(0.0), t(4.0), 7, "k");
        let m = Metrics::from_trace(&tr, 2);
        assert_eq!(m.makespan_s, 4.0);
        let d0 = &m.devices[0];
        assert_eq!(d0.h2d_bytes, 100);
        assert_eq!(d0.d2h_bytes, 50);
        assert_eq!(d0.kernel_iters, 10);
        assert_eq!(d0.compute_s, 2.0);
        assert_eq!(d0.dma_s, 1.5);
        // H2D [0,1] overlaps kernel [0.5,2.5] for 0.5 s.
        assert!((d0.overlap_s - 0.5).abs() < 1e-12);
        assert!((d0.overlap_fraction - 0.5 / 1.5).abs() < 1e-12);
        // Busy union [0,3] over makespan 4.
        assert!((d0.utilization - 0.75).abs() < 1e-12);
        assert_eq!(d0.queue_wait_s, 0.0);
        assert_eq!(d0.completion_s, 3.0);
        assert_eq!(m.total_kernel_iters(), 17);
        assert!((m.load_balance_ratio() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn queue_wait_counts_gaps_inside_active_window() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::H2D, t(0.0), t(1.0), 8, "in");
        tr.record(0, OpKind::Kernel, t(2.0), t(3.0), 1, "k");
        let m = Metrics::from_trace(&tr, 1);
        assert!((m.devices[0].queue_wait_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_events_counted_not_busy() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::Fault, t(0.0), t(1.0), 0, "dma-error");
        tr.record(0, OpKind::Backoff, t(1.0), t(1.5), 0, "retry-backoff");
        tr.record(0, OpKind::Failover, t(1.5), t(1.6), 0, "requeue");
        let m = Metrics::from_trace(&tr, 1);
        let d = &m.devices[0];
        assert_eq!((d.fault_events, d.backoff_events, d.failover_events), (1, 1, 1));
        // Backoff is excluded from the working union; fault + failover
        // hold the device.
        assert!((d.busy_union_s - 1.1).abs() < 1e-12);
    }

    #[test]
    fn fault_kinds_are_recovered_from_labels() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::Fault, t(0.0), t(0.1), 0, "chunk-in [dma-error]");
        tr.record(0, OpKind::Fault, t(0.2), t(0.3), 0, "launch [launch-timeout]");
        tr.record(1, OpKind::Fault, t(0.4), t(0.5), 0, "chunk-launch [dropout]");
        tr.record(1, OpKind::Fault, t(0.6), t(0.6), 0, "axpy [slowdown]");
        tr.record(1, OpKind::Fault, t(0.7), t(0.8), 0, "untagged");
        let m = Metrics::from_trace(&tr, 2);
        assert_eq!(m.devices[0].faults_by_kind, [1, 1, 0, 0]);
        assert_eq!(m.devices[1].faults_by_kind, [0, 0, 1, 1]);
        assert_eq!(m.fault_events_by_kind(), [1, 1, 1, 1]);
        // The untagged event still counts in the aggregate tally.
        assert_eq!(m.devices.iter().map(|d| d.fault_events).sum::<u64>(), 5);
    }

    #[test]
    fn imbalance_of_perfect_balance_is_zero() {
        assert_eq!(imbalance_pct(2.0, [2.0, 2.0].into_iter()), 0.0);
        assert_eq!(imbalance_pct(0.0, [0.0, 0.0].into_iter()), 0.0, "empty region");
    }

    #[test]
    fn imbalance_averages_over_participants() {
        // The third device never works — excluded. Waits: 0% and 50%.
        assert!((imbalance_pct(4.0, [4.0, 2.0, 0.0].into_iter()) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn load_balance_ratio_is_max_over_min_completion() {
        // The third device idles — excluded.
        assert!((load_balance_ratio([4.0, 2.0, 0.0].into_iter()) - 2.0).abs() < 1e-12);
        // A single participant has nothing to be imbalanced against.
        assert_eq!(load_balance_ratio([1.0, 0.0].into_iter()), 1.0);
    }

    #[test]
    fn tolerates_devices_beyond_n_devices() {
        let mut tr = Trace::new();
        tr.record(5, OpKind::Kernel, t(0.0), t(1.0), 3, "k");
        let m = Metrics::from_trace(&tr, 2);
        assert_eq!(m.devices.len(), 6);
        assert_eq!(m.devices[5].kernel_iters, 3);
        assert_eq!(m.devices[0].kernel_iters, 0);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let m = Metrics::from_trace(&Trace::new(), 3);
        assert_eq!(m.makespan_s, 0.0);
        assert_eq!(m.devices.len(), 3);
        assert!(m.devices.iter().all(|d| d.utilization == 0.0));
        assert_eq!(m.load_balance_ratio(), 1.0);
    }

    #[test]
    fn merge_drops_non_finite_intervals_instead_of_panicking() {
        // Regression: these inputs used to reach the sort's
        // `partial_cmp(..).expect("finite interval bounds")` (NaN) or
        // leak `inf` into every downstream total (infinite bounds).
        let merged = merge_owned(vec![
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::NAN, f64::NAN),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 5.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (1.0, 2.0),
            (4.0, 5.0),
        ]);
        assert_eq!(merged, vec![(1.0, 2.0), (4.0, 5.0)]);
        assert_eq!(total_len(&merged), 2.0);
    }

    #[test]
    fn merge_of_only_non_finite_intervals_is_empty() {
        let merged = merge_owned(vec![(f64::NAN, f64::INFINITY), (f64::INFINITY, f64::INFINITY)]);
        assert!(merged.is_empty());
        assert_eq!(total_len(&merged), 0.0);
    }

    #[test]
    fn interval_helpers() {
        let merged = merge_owned(vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (4.0, 4.0)]);
        assert_eq!(merged, vec![(0.0, 2.0), (3.0, 4.0)]);
        assert_eq!(total_len(&merged), 3.0);
        let other = merge_owned(vec![(1.5, 3.5)]);
        assert!((intersection_len(&merged, &other) - 1.0).abs() < 1e-12);
        assert_eq!(intersection_len(&merged, &[]), 0.0);
    }

    /// Random event soup for the property tests below: bounded times,
    /// every kind, a few devices.
    fn arb_trace() -> impl Strategy<Value = Trace> {
        proptest::collection::vec(
            (0u32..4, 0usize..OpKind::N, 0.0f64..10.0, 0.0f64..2.0, 0u64..1000),
            0..40,
        )
        .prop_map(|evs| {
            let mut tr = Trace::new();
            for (dev, kind, start, len, amount) in evs {
                let kind = OpKind::ALL[kind];
                tr.record(dev, kind, t(start), t(start + len), amount, "e");
            }
            tr
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn utilization_and_overlap_are_fractions(tr in arb_trace()) {
            let m = Metrics::from_trace(&tr, 4);
            for d in &m.devices {
                prop_assert!((0.0..=1.0).contains(&d.utilization), "util {}", d.utilization);
                prop_assert!(
                    (0.0..=1.0).contains(&d.overlap_fraction),
                    "overlap {}", d.overlap_fraction
                );
                prop_assert!(d.queue_wait_s >= 0.0);
                prop_assert!(d.busy_union_s <= m.makespan_s + 1e-9);
            }
        }

        #[test]
        fn per_device_busy_matches_trace_spans(tr in arb_trace()) {
            let m = Metrics::from_trace(&tr, 4);
            let mut expect = vec![[0.0f64; OpKind::N]; m.devices.len()];
            for e in tr.events() {
                expect[e.device as usize][e.kind.index()] += e.span().as_secs();
            }
            for (d, m) in m.devices.iter().enumerate() {
                for (slot, want) in expect[d].iter().enumerate() {
                    prop_assert!(
                        (m.busy_s[slot] - want).abs() < 1e-9,
                        "device {d} kind {slot}: {} vs {}", m.busy_s[slot], want
                    );
                }
            }
        }

        #[test]
        fn busy_union_never_exceeds_kind_sum(tr in arb_trace()) {
            let m = Metrics::from_trace(&tr, 4);
            for d in &m.devices {
                let sum: f64 = d.busy_s.iter().sum();
                prop_assert!(d.busy_union_s <= sum + 1e-9);
                prop_assert!(d.overlap_s <= d.compute_s.min(d.dma_s) + 1e-9);
            }
        }

        /// Inject a random mix of tagged fault events; the per-kind
        /// counters must reproduce exactly what was injected, per device
        /// and in aggregate.
        #[test]
        fn per_kind_counts_match_injected_faults(
            faults in proptest::collection::vec((0u32..4, 0usize..4, 0.0f64..10.0), 0..60)
        ) {
            let mut tr = Trace::new();
            let mut want = vec![[0u64; 4]; 4];
            for &(dev, kind_ix, start) in &faults {
                let kind = FaultKind::ALL[kind_ix];
                let label = format!("op [{}]", kind.label());
                tr.record(dev, OpKind::Fault, t(start), t(start + 0.01), 0, &label);
                want[dev as usize][kind.index()] += 1;
            }
            let m = Metrics::from_trace(&tr, 4);
            for (d, want_d) in want.iter().enumerate() {
                prop_assert_eq!(&m.devices[d].faults_by_kind, want_d, "device {}", d);
                let per_kind_sum: u64 = m.devices[d].faults_by_kind.iter().sum();
                prop_assert_eq!(per_kind_sum, m.devices[d].fault_events);
            }
            let mut total = [0u64; 4];
            for w in &want {
                for (slot, n) in w.iter().enumerate() {
                    total[slot] += n;
                }
            }
            prop_assert_eq!(m.fault_events_by_kind(), total);
        }
    }
}
