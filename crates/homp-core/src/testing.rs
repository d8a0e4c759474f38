//! Test-support utilities shared by the integration suites and the
//! bench harness's chaos soak: a coverage-counting kernel and the
//! exactly-once partition assertions.
//!
//! These are deliberately part of the public API (rather than a
//! `tests/common` module) so out-of-crate harnesses — notably the
//! `homp-bench` chaos soak — can assert the same invariants the unit
//! suites do.

use crate::region::is_partition;
use crate::runtime::{LoopKernel, OffloadReport};
use crate::Range;
use homp_model::KernelIntensity;

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
