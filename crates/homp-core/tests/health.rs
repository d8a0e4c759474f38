//! Device health lifecycle: slowdowns shrink a degraded device's share,
//! a scripted recovery reintegrates a quarantined device through
//! probation (visible in the decision log), and losing every device
//! falls back to the host with bitwise-correct output and no further
//! probe.

mod common;

use common::{assert_decisions_partition, CoverageKernel};
use homp_core::testing::assert_schedule_valid;
use homp_core::{Algorithm, FaultConfig, FnKernel, OffloadRegion, Range, Runtime, RuntimeConfig};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{FaultPlan, Machine, SimTime};

/// Compute-bound intensity so the region runs long enough for the
/// health tracker's probe schedule (first probe 500 µs after the fault)
/// to fire while work remains.
fn heavy_intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 50_000.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    }
}

fn region(n: u64, alg: Algorithm) -> OffloadRegion {
    OffloadRegion::builder("axpy")
        .trip_count(n)
        .devices(vec![0, 1, 2, 3])
        .algorithm(alg)
        .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .map_1d("y", MapDir::ToFrom, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .build()
}

/// Four K40s at seed 42 with `plan`'s faults and the decision log on.
fn logged(plan: FaultPlan) -> Runtime {
    let config = RuntimeConfig::new().faults(FaultConfig::new(plan));
    config.decision_log(true).build(Machine::four_k40())
}

fn run_heavy(
    plan: FaultPlan,
    n: u64,
    alg: Algorithm,
) -> (homp_core::OffloadReport, CoverageKernel) {
    let mut k = CoverageKernel::with_intensity(n, heavy_intensity());
    let report = logged(plan).offload(&region(n, alg), &mut k).run().unwrap();
    (report, k)
}

#[test]
fn recovered_device_is_reintegrated_through_probation() {
    let n = 100_000u64;
    let alg = Algorithm::Dynamic { chunk_pct: 2.0 };
    let healthy = run_heavy(FaultPlan::none(), n, alg).0.makespan.as_secs();

    // Device 2 drops a quarter of the way in and comes back before the
    // halfway mark; the probe schedule should find it while the chunk
    // queue still holds well over the work-assist steal minimum.
    let plan =
        FaultPlan::new(7).with_dropout_at(2, healthy * 0.25).with_recovery_at(2, healthy * 0.45);
    let (report, k) = run_heavy(plan, n, alg);

    k.assert_exactly_once("reintegration");
    assert_decisions_partition(&report, n, "reintegration");
    assert!(report.faults.dropouts.contains(&2), "the dropout must still be recorded");

    // The lifecycle is visible in the decision log: a health transition
    // into probation for device 2, followed by real chunk placements on
    // the reintegrated device.
    let probation_idx = report
        .decisions
        .iter()
        .position(|d| {
            d.stage == "health" && d.device == 2 && d.note == Some("quarantined->probation")
        })
        .expect("decision log must record device 2 entering probation");
    let chunks_after = report.decisions[probation_idx..]
        .iter()
        .filter(|d| d.stage == "chunk" && d.device == 2 && !d.range.is_empty())
        .count();
    assert!(
        chunks_after >= 1,
        "reintegrated device must execute chunks after probation (got {chunks_after})"
    );
    assert!(report.counts[2] > 0, "reintegrated device's work must be counted");
}

#[test]
fn slowdown_degrades_the_device_and_shrinks_its_share() {
    let n = 100_000u64;
    let alg = Algorithm::Dynamic { chunk_pct: 2.0 };
    let healthy = run_heavy(FaultPlan::none(), n, alg).0.makespan.as_secs();

    // Device 1 runs at quarter speed from 30% of the healthy makespan to
    // far past the end: its early chunks establish the throughput peak,
    // the slow ones drag the EWMA under the degrade threshold.
    let plan = FaultPlan::new(7).with_slowdown(1, 4.0, healthy * 0.3, healthy * 10.0);
    let (report, k) = run_heavy(plan, n, alg);

    k.assert_exactly_once("slowdown");
    assert_decisions_partition(&report, n, "slowdown");
    assert!(report.faults.dropouts.is_empty(), "a slowdown is not a dropout");
    assert!(
        report
            .decisions
            .iter()
            .any(|d| d.stage == "health" && d.device == 1 && d.note == Some("healthy->degraded")),
        "decision log must record the degradation"
    );
    // The degraded device ends up with less work than its identical,
    // un-slowed peer.
    assert!(
        report.counts[1] < report.counts[0],
        "degraded device must take less work ({} vs {})",
        report.counts[1],
        report.counts[0]
    );
}

#[test]
fn host_fallback_output_is_bitwise_correct() {
    let n = 10_000u64;
    let a = 2.5f64;
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let expected: Vec<f64> = x.iter().enumerate().map(|(i, &xi)| i as f64 + a * xi).collect();

    let mut plan = FaultPlan::new(1);
    for d in 0..4 {
        plan = plan.with_dropout_at(d, 1e-6);
    }
    let mut rt = logged(plan);
    let mut y: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let report = {
        let mut k = FnKernel::new(heavy_intensity(), |r: Range| {
            for i in r.start..r.end {
                y[i as usize] += a * x[i as usize];
            }
        });
        rt.offload(&region(n, Algorithm::Block), &mut k).run().unwrap()
    };

    assert_eq!(y, expected, "host fallback must produce the exact same bits");
    assert_eq!(report.faults.host_iters, n, "every iteration ran on the host");
    assert_eq!(report.counts.iter().sum::<u64>(), 0);
    assert_decisions_partition(&report, n, "host fallback");
    assert!(
        report.decisions.iter().any(|d| d.stage == "host" && d.note == Some("host-fallback")),
        "host placements must be logged under the host stage"
    );
}

#[test]
fn chunked_all_quarantined_also_falls_back_to_the_host() {
    let n = 50_000u64;
    let mut plan = FaultPlan::new(3);
    for d in 0..4 {
        plan = plan.with_dropout_at(d, 1e-6);
    }
    let (report, k) = run_heavy(plan, n, Algorithm::Guided { chunk_pct: 20.0 });

    k.assert_exactly_once("chunked host fallback");
    assert_decisions_partition(&report, n, "chunked host fallback");
    assert_eq!(report.faults.dropouts.len(), 4);
    assert!(report.faults.host_iters > 0);
}

/// Once every device is quarantined the chunked path probes none of them
/// again: the host runs what is left, and nothing in the trace lies past
/// the end barrier, where probes left in the heap would otherwise keep
/// firing on the doubling interval.
#[test]
fn no_probe_fires_once_every_device_is_quarantined() {
    for alg in [Algorithm::Dynamic { chunk_pct: 2.0 }, Algorithm::Guided { chunk_pct: 20.0 }] {
        let plan =
            (0..4).fold(FaultPlan::new(3), |p, d| p.with_dropout_at(d, 1e-6 * f64::from(d + 1)));
        let (report, k) = run_heavy(plan, 50_000, alg);
        let label = format!("{alg} all quarantined");
        k.assert_exactly_once(&label);
        assert_eq!(report.faults.dropouts.len(), 4, "{label}");
        let trace = &report.trace;
        let probes =
            trace.events().iter().filter(|e| trace.label(e.label).starts_with("health-probe"));
        assert_eq!(probes.count(), 0, "{label}: no device is left to probe");
        assert_schedule_valid(
            trace,
            SimTime::ZERO,
            report.completed_at,
            &Machine::four_k40(),
            &label,
        );
    }
}
