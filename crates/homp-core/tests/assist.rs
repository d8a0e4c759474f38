//! Work-assist behaviour: parity with MODEL_2 when nothing can fire,
//! actual tail-stealing on irregular loops, and orphan adoption after a
//! mid-run dropout — all under the exactly-once harness.

mod common;

use common::{assert_decisions_partition, CoverageKernel};
use homp_core::dist::Distribution;
use homp_core::{Algorithm, FaultConfig, OffloadRegion, OffloadReport, Runtime, RuntimeConfig};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{DeviceId, FaultPlan, Machine, OpKind, SimTime};

fn region(n: u64, machine: &Machine, alg: Algorithm) -> OffloadRegion {
    region_builder(n, machine, alg).build()
}

fn region_builder(n: u64, machine: &Machine, alg: Algorithm) -> homp_core::OffloadRegionBuilder {
    let devices: Vec<DeviceId> = (0..machine.devices.len() as DeviceId).collect();
    OffloadRegion::builder("axpy")
        .trip_count(n)
        .devices(devices)
        .algorithm(alg)
        .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .map_1d("y", MapDir::ToFrom, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
}

/// `machine` at `seed` with `plan`'s faults and the decision log on.
fn logged(machine: &Machine, seed: u64, plan: FaultPlan) -> Runtime {
    let config = RuntimeConfig::new().seed(seed).faults(FaultConfig::new(plan));
    config.decision_log(true).build(machine.clone())
}

/// One offload of `r`, dispatched at `at` when given.
fn run(
    rt: &mut Runtime,
    r: &OffloadRegion,
    at: Option<SimTime>,
) -> (OffloadReport, CoverageKernel) {
    let mut k = CoverageKernel::new(r.trip_count);
    let b = rt.offload(r, &mut k);
    let b = match at {
        Some(t) => b.at(t),
        None => b,
    };
    let report = b.run().unwrap();
    (report, k)
}

/// Everything two runs decided must match: the trace in canonical row
/// order, the decision log entry by entry, the per-slot counts, the
/// chunk count, the fault summary (dropout order included), the
/// makespan, the completion instant and the kernel's coverage.
fn assert_same_run(
    ctx: &str,
    a: &(OffloadReport, CoverageKernel),
    b: &(OffloadReport, CoverageKernel),
) {
    let ((ra, ka), (rb, kb)) = (a, b);
    assert_eq!(ra.trace.to_csv(), rb.trace.to_csv(), "{ctx}: trace");
    assert_eq!(ra.decisions.len(), rb.decisions.len(), "{ctx}: decision count");
    for (i, (da, db)) in ra.decisions.iter().zip(&rb.decisions).enumerate() {
        assert_eq!(da, db, "{ctx}: decision {i}");
    }
    assert_eq!(ra.counts, rb.counts, "{ctx}: counts");
    assert_eq!(ra.chunks, rb.chunks, "{ctx}: chunks");
    assert_eq!(ra.faults, rb.faults, "{ctx}: faults");
    assert_eq!(ra.makespan, rb.makespan, "{ctx}: makespan");
    assert_eq!(ra.completed_at, rb.completed_at, "{ctx}: completed_at");
    assert_eq!(ka.hits, kb.hits, "{ctx}: coverage");
}

/// WORK_ASSIST starts from MODEL_2's shares and runs in one pass, so
/// when no steal or adoption can fire it must reproduce MODEL_2
/// exactly (see [`assert_same_run`]). Two ways rule firing out:
///
/// - fault-free runs with `min_assist_pct = 100`, where no tail is ever
///   big enough to steal: a plain offload, then two inside a `target
///   data` region, whose close must flush the same deferred copy-backs.
///   Inside the region MODEL_2 plans from what the region holds and
///   WORK_ASSIST keeps its plain shares, so there MODEL_2 runs
///   WORK_ASSIST's split through `.align`, which predicts nothing, and
///   the decision logs are compared without their predictions;
/// - every device dropped at setup (the fingerprint's `all-quarantined`
///   plan), so no device is left to steal or adopt and the host runs
///   the loop: both machines, parallel and serialized, plain and
///   dispatched at `t > 0`, at two trip counts;
/// - a serialized offload whose device 1 drops in the middle of its
///   copy-back, after every compute committed: both paths start device
///   2 at device 1's map-in end, with `min_assist_pct = 100`.
#[test]
fn disabled_steals_give_byte_identical_model2_traces() {
    let n = 80_000u64;
    let machine = Machine::four_k40();
    let serialized = |alg| region_builder(n, &machine, alg).serialized_offload().build();
    let model2 = Algorithm::Model2 { cutoff: None };
    let (healthy, _) = run(&mut logged(&machine, 42, FaultPlan::none()), &serialized(model2), None);
    let trace = &healthy.trace;
    let out = trace
        .events()
        .iter()
        .find(|e| e.device == 1 && e.kind == OpKind::D2H)
        .expect("device 1 copies back");
    let mid_copy_back = (out.start.as_secs() + out.end.as_secs()) / 2.0;
    let plan = FaultPlan::new(1).with_dropout_at(1, mid_copy_back);
    let runs = [Algorithm::WorkAssist { min_assist_pct: 100.0, cutoff: None }, model2]
        .map(|alg| run(&mut logged(&machine, 42, plan.clone()), &serialized(alg), None));
    let ctx = "serialized, device 1 dropped mid-copy-back";
    assert_eq!(runs[0].0.faults.dropouts, vec![1], "{ctx}");
    assert!(runs[0].0.decisions.iter().all(|d| d.stage != "assist"), "{ctx}: nothing fires");
    assert_same_run(ctx, &runs[0], &runs[1]);

    for machine in [Machine::four_k40(), Machine::full_node()] {
        for cutoff in [None, Some(0.15)] {
            for seed in [7u64, 42] {
                let [a, b] = [
                    Algorithm::WorkAssist { min_assist_pct: 100.0, cutoff },
                    Algorithm::Model2 { cutoff },
                ]
                .map(|alg| {
                    let r = region(n, &machine, alg);
                    let mut rt = logged(&machine, seed, FaultPlan::none());
                    let plain = run(&mut rt, &r, None);
                    let split = match alg {
                        Algorithm::Model2 { .. } => {
                            Some(Distribution::from_counts(&plain.0.counts))
                        }
                        _ => None,
                    };
                    let inside = |rt: &mut Runtime| {
                        let mut k = CoverageKernel::new(n);
                        let b = rt.offload(&r, &mut k);
                        let b = match &split {
                            Some(split) => b.align(split),
                            None => b,
                        };
                        let mut report = b.run().unwrap();
                        for d in &mut report.decisions {
                            (d.predicted_s, d.source) = (None, None);
                        }
                        (report, k)
                    };
                    rt.data_region_begin(&r);
                    let first = inside(&mut rt);
                    let second = inside(&mut rt);
                    ([plain, first, second], rt.data_region_end().unwrap())
                });
                let ctx = format!("machine={} cutoff={cutoff:?} seed={seed}", machine.name);
                for (i, (ra, rb)) in a.0.iter().zip(&b.0).enumerate() {
                    let ctx = format!("{ctx} offload {i}");
                    assert!(
                        ra.0.decisions.iter().all(|d| d.stage != "assist"),
                        "{ctx}: no assist decisions may fire"
                    );
                    assert_same_run(&ctx, ra, rb);
                }
                assert_eq!(a.1, b.1, "{ctx}: region close");
            }
        }
    }

    for machine in [Machine::four_k40(), Machine::full_node()] {
        let plan = (0..machine.devices.len() as DeviceId)
            .fold(FaultPlan::new(17), |p, d| p.with_dropout_at(d, 1e-6 * f64::from(d + 1)));
        for n in [8_192u64, 80_000] {
            for serialized in [false, true] {
                for at in [None, Some(SimTime::from_secs(50e-6))] {
                    for cutoff in [None, Some(0.15)] {
                        let runs = [
                            Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff },
                            Algorithm::Model2 { cutoff },
                        ]
                        .map(|alg| {
                            let mut b = region_builder(n, &machine, alg);
                            if serialized {
                                b = b.serialized_offload();
                            }
                            run(&mut logged(&machine, 42, plan.clone()), &b.build(), at)
                        });
                        let ctx = format!(
                            "all dropped: machine={} n={n} serialized={serialized} at={at:?} \
                             cutoff={cutoff:?}",
                            machine.name
                        );
                        assert_eq!(runs[0].0.faults.host_iters, n, "{ctx}: the host runs the loop");
                        assert_same_run(&ctx, &runs[0], &runs[1]);
                    }
                }
            }
        }
    }
}

/// A linear ramp of iteration cost over a 200,000-iteration loop.
fn ramp(i: u64) -> f64 {
    1.0 + 4.0 * (i as f64 / 200_000.0)
}

/// A compute-bound kernel: the imbalance, not transfer time, dominates.
const COMPUTE_BOUND: KernelIntensity = KernelIntensity {
    flops_per_iter: 50_000.0,
    mem_elems_per_iter: 3.0,
    data_elems_per_iter: 3.0,
    elem_bytes: 8.0,
};

/// An irregular loop (linearly ramping iteration cost) breaks MODEL_2's
/// uniform-cost shares: the device holding the expensive tail straggles,
/// the early finishers steal from it, and the rescue shows up in the
/// decision log with a donor — while still covering the loop exactly
/// once and beating the static schedule. The kernel is compute-bound
/// (§IV-A.2's irregular loops) so the imbalance, not transfer time,
/// dominates the makespan.
#[test]
fn stragglers_get_assisted_on_irregular_loops() {
    let n = 200_000u64;
    let machine = Machine::four_k40();
    let run_with = |alg: Algorithm| {
        let mut rt = logged(&machine, 42, FaultPlan::none());
        let mut k = CoverageKernel::with_intensity(n, COMPUTE_BOUND);
        let r = region_builder(n, &machine, alg).cost_profile(ramp).build();
        let report = rt.offload(&r, &mut k).run().unwrap();
        (report, k)
    };

    let (assisted, k) = run_with(Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: None });
    let (static_run, _) = run_with(Algorithm::Model2 { cutoff: None });

    k.assert_exactly_once("irregular work-assist");
    assert_decisions_partition(&assisted, n, "irregular work-assist");

    let assists: Vec<_> = assisted.decisions.iter().filter(|d| d.stage == "assist").collect();
    assert!(!assists.is_empty(), "the ramp must provoke at least one steal");
    for a in &assists {
        let donor = a.donor.expect("assist decisions must name their donor");
        assert_ne!(donor, a.device, "no device assists itself");
        assert!(!a.requeued, "steals are rescues of live devices, not requeues");
        assert!(a.predicted_s.is_some(), "assists log the model's prediction");
    }
    assert!(
        assisted.makespan < static_run.makespan,
        "assisting the straggler must beat the static schedule \
         ({:?} vs {:?})",
        assisted.makespan,
        static_run.makespan
    );
}

/// Inside a `target data` region, `TransferStats::d2h_bytes` counts what
/// crossed the bus: the offloads' traced D2H bytes plus the close flush.
/// The static algorithms defer their copy-backs to the close; on the
/// ramp, WORK_ASSIST's steals send them out eagerly, so those offloads
/// add nothing to `d2h_elided_bytes`.
#[test]
fn region_d2h_stats_count_the_traced_copy_backs() {
    let n = 200_000u64;
    let machine = Machine::four_k40();
    for alg in [
        Algorithm::Block,
        Algorithm::Model1 { cutoff: None },
        Algorithm::Model2 { cutoff: None },
        Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: None },
    ] {
        let mut rt = logged(&machine, 42, FaultPlan::none());
        let r = region_builder(n, &machine, alg).cost_profile(ramp).build();
        rt.data_region_begin(&r);
        let mut traced = 0;
        let mut assists = 0;
        for i in 0..2 {
            let elided = rt.transfer_stats().d2h_elided_bytes;
            let mut k = CoverageKernel::with_intensity(n, COMPUTE_BOUND);
            let report = rt.offload(&r, &mut k).run().unwrap();
            k.assert_exactly_once("region stats");
            let d2h: u64 = report
                .trace
                .events()
                .iter()
                .filter(|e| e.kind == OpKind::D2H)
                .map(|e| e.amount)
                .sum();
            let deferred = rt.transfer_stats().d2h_elided_bytes - elided;
            if d2h > 0 {
                assert_eq!(deferred, 0, "{alg} offload {i}: eager copy-backs are not elided");
            } else {
                assert_eq!(deferred, 8 * n, "{alg} offload {i}: y's copy-back is deferred");
            }
            traced += d2h;
            assists += report.decisions.iter().filter(|d| d.stage == "assist").count();
        }
        let close = rt.data_region_end().unwrap();
        assert_eq!(close.stats.d2h_bytes, traced + close.flushed_bytes, "{alg}");
        if matches!(alg, Algorithm::WorkAssist { .. }) {
            assert!(assists > 0, "the ramp must provoke a steal");
            assert_eq!(traced, 2 * 8 * n, "both offloads copy back eagerly");
            assert_eq!(close.flushed_bytes, 0);
        } else {
            assert_eq!(traced, 0, "{alg}: copy-backs wait for the close");
            assert_eq!(close.flushed_bytes, 8 * n, "{alg}");
        }
    }
}

/// A device dropping out mid-run under WORK_ASSIST: its unexecuted tail
/// is adopted by the surviving peers through the assist path (not the
/// serial requeue), every iteration still runs exactly once, and the
/// decision log records the handoff with the dead device as donor.
#[test]
fn dropped_device_tail_is_adopted_by_assisting_peers_exactly_once() {
    let n = 100_000u64;
    let machine = Machine::four_k40();
    let alg = Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: None };
    let healthy = {
        let mut rt = Runtime::new(machine.clone(), 42);
        let mut k = CoverageKernel::new(n);
        rt.offload(&region(n, &machine, alg), &mut k).run().unwrap().makespan.as_secs()
    };

    let plan = FaultPlan::new(9).with_dropout_at(2, healthy * 0.5);
    let mut rt = logged(&machine, 42, plan);
    let mut k = CoverageKernel::new(n);
    let report = rt.offload(&region(n, &machine, alg), &mut k).run().unwrap();

    assert_eq!(report.faults.dropouts, vec![2], "device 2 must drop");
    k.assert_exactly_once("fault x assist");
    assert_decisions_partition(&report, n, "fault x assist");
    assert!(report.faults.requeued_iters > 0, "the orphaned tail is accounted as requeued");

    // The handoff is visible: assist decisions executed by survivors,
    // donated by the dead device.
    let adoptions: Vec<_> =
        report.decisions.iter().filter(|d| d.stage == "assist" && d.requeued).collect();
    assert!(!adoptions.is_empty(), "the orphaned tail must be adopted, not serially requeued");
    for a in &adoptions {
        assert_eq!(a.donor, Some(2), "adoptions name the dead device as donor");
        assert_ne!(a.device, 2, "the dead device cannot execute its own tail");
    }
    let adopted: u64 = adoptions.iter().map(|d| d.range.len()).sum();
    assert!(adopted > 0 && adopted <= report.faults.requeued_iters);
}
