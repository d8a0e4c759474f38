//! Test-support utilities shared by the integration suites and the
//! bench harness's chaos soak: a coverage-counting kernel, the
//! exactly-once partition assertions and a schedule-validity check.
//!
//! These are deliberately part of the public API (rather than a
//! `tests/common` module) so out-of-crate harnesses — notably the
//! `homp-bench` chaos soak — can assert the same invariants the unit
//! suites do.

use crate::region::is_partition;
use crate::runtime::{LoopKernel, OffloadReport};
use crate::Range;
use homp_model::KernelIntensity;
use homp_sim::{Machine, OpKind, SimTime, Trace, TraceEvent};

/// A kernel that counts how many times each iteration executes — the
/// ground truth for the exactly-once property.
pub struct CoverageKernel {
    /// Per-iteration execution counters.
    pub hits: Vec<u32>,
    intensity: KernelIntensity,
}

impl CoverageKernel {
    /// Counter over `[0, n)` with axpy-like intensity.
    pub fn new(n: u64) -> CoverageKernel {
        CoverageKernel::with_intensity(
            n,
            KernelIntensity {
                flops_per_iter: 2.0,
                mem_elems_per_iter: 3.0,
                data_elems_per_iter: 3.0,
                elem_bytes: 8.0,
            },
        )
    }

    /// Counter with a caller-chosen intensity (e.g. compute-bound loops
    /// where load imbalance, not transfer time, dominates).
    pub fn with_intensity(n: u64, intensity: KernelIntensity) -> CoverageKernel {
        CoverageKernel { hits: vec![0; n as usize], intensity }
    }

    /// Every iteration ran exactly once.
    ///
    /// # Panics
    /// When any iteration ran zero times or more than once.
    pub fn assert_exactly_once(&self, label: &str) {
        assert!(
            self.hits.iter().all(|&h| h == 1),
            "{label}: every iteration must execute exactly once \
             (min {:?}, max {:?}, misses {})",
            self.hits.iter().min(),
            self.hits.iter().max(),
            self.hits.iter().filter(|&&h| h != 1).count(),
        );
    }
}

impl LoopKernel for CoverageKernel {
    fn intensity(&self) -> KernelIntensity {
        self.intensity
    }

    fn execute(&mut self, range: Range) {
        for i in range.start..range.end {
            self.hits[i as usize] += 1;
        }
    }
}

/// Replay a report's decision log: the recorded chunk ranges of all
/// devices must partition `[0, trip_count)` — no gap, no overlap —
/// regardless of which scheduler stages (static, chunk, sample, stage2,
/// assist, requeue, host) placed them. Health transitions log
/// zero-length marker ranges and are skipped. Requires a runtime built
/// with [`RuntimeConfig::decision_log`](crate::RuntimeConfig::decision_log)
/// on.
///
/// # Panics
/// When the log is empty, the ranges do not partition the loop, or the
/// per-slot counts plus host-fallback iterations disagree with the trip
/// count.
pub fn assert_decisions_partition(report: &OffloadReport, trip_count: u64, label: &str) {
    let ranges: Vec<Range> =
        report.decisions.iter().map(|d| d.range).filter(|r| !r.is_empty()).collect();
    assert!(
        !ranges.is_empty() || trip_count == 0,
        "{label}: decision log is empty — was the runtime built with decision_log(true)?"
    );
    assert!(
        is_partition(&ranges, trip_count),
        "{label}: decision ranges must partition [0, {trip_count}): {ranges:?}"
    );
    let executed: u64 = report.counts.iter().sum();
    assert_eq!(
        executed + report.faults.host_iters,
        trip_count,
        "{label}: per-slot counts plus host-fallback iterations must reconcile"
    );
}

/// Check that `trace` is a schedule `machine` could run, for work
/// dispatched at `dispatch` whose end barrier released at
/// `completed_at`:
/// - every op lies in `[dispatch, completed_at]`;
/// - no two ops overlap on one lane. The lanes are each device's compute
///   engine (INIT, KERNEL and FAILOVER), its H2D engine and its D2H
///   engine, and each bus group's lane per direction. FAULT, BACKOFF and
///   SYNC ops hold none of them;
/// - no H2D or D2H op moves 0 bytes.
///
/// # Panics
/// On the first op that breaks a rule, naming it (and the op it
/// overlaps).
pub fn assert_schedule_valid(
    trace: &Trace,
    dispatch: SimTime,
    completed_at: SimTime,
    machine: &Machine,
    label: &str,
) {
    let show = |e: &TraceEvent| {
        format!(
            "{} on device {} [{:?}, {:?}] `{}`",
            e.kind.label(),
            e.device,
            e.start.as_secs(),
            e.end.as_secs(),
            trace.label(e.label)
        )
    };
    // (lane, start, end, event index); a lane is (kind, device or bus
    // group): 0 compute, 1 H2D engine, 2 D2H engine, 3 and 4 the bus
    // group's H2D and D2H lanes.
    let mut held: Vec<((u8, u32), SimTime, SimTime, usize)> = Vec::new();
    for (i, e) in trace.events().iter().enumerate() {
        assert!(
            dispatch <= e.start && e.end <= completed_at,
            "{label}: {} lies outside [{:?}, {:?}]",
            show(e),
            dispatch.as_secs(),
            completed_at.as_secs()
        );
        let dir = match e.kind {
            OpKind::Init | OpKind::Kernel | OpKind::Failover => {
                held.push(((0, e.device), e.start, e.end, i));
                continue;
            }
            OpKind::H2D => 0,
            OpKind::D2H => 1,
            OpKind::Fault | OpKind::Backoff | OpKind::Sync => continue,
        };
        assert!(e.amount > 0, "{label}: {} moves 0 bytes", show(e));
        held.push(((1 + dir, e.device), e.start, e.end, i));
        if let Some(link) = machine.devices[e.device as usize].link {
            held.push(((3 + dir, link.bus_group), e.start, e.end, i));
        }
    }
    held.sort_unstable();
    for w in held.windows(2) {
        let ((lane, _, end, i), (next, start, _, j)) = (w[0], w[1]);
        if lane == next && start < end {
            let events = trace.events();
            panic!("{label}: {} overlaps {}", show(&events[i]), show(&events[j]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_sim::device::nvidia_k40;
    use homp_sim::DeviceId;

    /// Whether events `(device, kind, start µs, end µs, bytes)` on two
    /// K40s sharing one bus pass the check for work dispatched at
    /// `dispatch` µs and done at 100 µs.
    fn valid(events: &[(DeviceId, OpKind, f64, f64, u64)], dispatch: f64) -> bool {
        let machine = Machine::new("2xK40 on one bus", vec![nvidia_k40(0, 0), nvidia_k40(1, 0)]);
        let us = |t: f64| SimTime::from_secs(t * 1e-6);
        let mut trace = Trace::new();
        for &(dev, kind, start, end, bytes) in events {
            trace.record(dev, kind, us(start), us(end), bytes, "op");
        }
        let check = || assert_schedule_valid(&trace, us(dispatch), us(100.0), &machine, "case");
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).is_ok()
    }

    #[test]
    fn the_schedule_check_flags_each_rule() {
        let ok = [
            (0, OpKind::H2D, 0.0, 10.0, 8),
            (1, OpKind::H2D, 10.0, 20.0, 8),
            (0, OpKind::Kernel, 10.0, 30.0, 4),
            (0, OpKind::Fault, 15.0, 25.0, 0),
            (0, OpKind::D2H, 30.0, 40.0, 8),
            (1, OpKind::Sync, 20.0, 100.0, 0),
        ];
        assert!(valid(&ok, 0.0));
        assert!(!valid(&ok, 1.0), "an op before the dispatch instant");
        for (bad, rule) in [
            ((1, OpKind::Init, 99.0, 101.0, 0), "an op past the end barrier"),
            ((0, OpKind::Failover, 25.0, 35.0, 0), "a device's compute engine held twice"),
            ((0, OpKind::D2H, 35.0, 45.0, 8), "a device's D2H engine held twice"),
            ((1, OpKind::H2D, 5.0, 8.0, 8), "the bus group's H2D lane held twice"),
            ((1, OpKind::D2H, 50.0, 60.0, 0), "a 0-byte transfer"),
        ] {
            let events: Vec<_> = ok.iter().copied().chain([bad]).collect();
            assert!(!valid(&events, 0.0), "{rule}");
        }
    }
}
