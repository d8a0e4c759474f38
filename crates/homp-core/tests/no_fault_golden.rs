//! No-fault regression: installing `FaultConfig::none()` must leave
//! schedules, traces and results bit-identical to a runtime that never
//! heard of faults — and both must match the pre-fault-layer golden
//! values checked in below (seed 42, four-K40 machine, n = 10 000).
//!
//! The golden makespans were captured from the tree as of the commit
//! that introduced the fault layer, built *without* it, and re-pinned
//! once when 0-byte transfers stopped being issued (the chunked and
//! profiling paths' `map-in-fixed`, since this region maps no fixed
//! data); an exact `==` on the f64 is intentional — the simulator is
//! deterministic, so any drift here means the fault layer perturbed the
//! no-fault path.
//!
//! The same exactness pins the construction funnel: the `Runtime`
//! shorthands and a runtime rewound with `reset_with_seed` equal a
//! fresh `RuntimeConfig::build`.

// The golden literals carry every digit `{:.17e}` printed; that excess
// precision is the point.
#![allow(clippy::excessive_precision)]

use homp_core::{Algorithm, FaultConfig, FnKernel, OffloadRegion, Range, Runtime, RuntimeConfig};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{FaultPlan, Machine, TraceLevel};

fn intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 2.0,
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

fn run(mut rt: Runtime, n: u64, alg: Algorithm) -> homp_core::OffloadReport {
    let mut k = FnKernel::new(intensity(), |_r: Range| {});
    rt.offload(&region(n, alg), &mut k).run().unwrap()
}

/// (algorithm, makespan seconds, chunks, per-slot counts) captured
/// before the fault layer existed.
fn golden() -> Vec<(Algorithm, f64, u64, Vec<u64>)> {
    vec![
        (Algorithm::Block, 3.73800945033277144e-5, 4, vec![2500, 2500, 2500, 2500]),
        (
            Algorithm::Dynamic { chunk_pct: 2.0 },
            1.65296015266717467e-4,
            50,
            vec![2600, 2400, 2600, 2400],
        ),
        (
            Algorithm::Guided { chunk_pct: 20.0 },
            8.59127970800319828e-5,
            18,
            vec![2611, 2637, 2433, 2319],
        ),
        (
            Algorithm::Model1 { cutoff: None },
            3.73800945033277144e-5,
            4,
            vec![2500, 2500, 2500, 2500],
        ),
        (
            Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None },
            5.71019139597394614e-5,
            8,
            vec![2541, 2519, 2571, 2369],
        ),
    ]
}

#[test]
fn no_fault_runs_match_pre_fault_layer_golden_values() {
    for (alg, makespan, chunks, counts) in golden() {
        let rep = run(Runtime::new(Machine::four_k40(), 42), 10_000, alg);
        assert_eq!(rep.makespan.as_secs(), makespan, "{alg}: makespan drifted");
        assert_eq!(rep.chunks, chunks, "{alg}");
        assert_eq!(rep.counts, counts, "{alg}");
        assert!(!rep.faults.any(), "{alg}: no faults were configured");
    }
}

#[test]
fn fault_config_none_is_byte_identical_to_no_fault_config() {
    for (alg, ..) in golden() {
        let plain = run(Runtime::new(Machine::four_k40(), 42), 10_000, alg);
        let noop = run(
            Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::none()),
            10_000,
            alg,
        );
        assert_eq!(
            plain.trace.to_csv(),
            noop.trace.to_csv(),
            "{alg}: FaultConfig::none() must not perturb the trace"
        );
        assert_eq!(plain.makespan, noop.makespan, "{alg}");
        assert_eq!(plain.counts, noop.counts, "{alg}");
        assert_eq!(plain.chunks, noop.chunks, "{alg}");
        assert_eq!(plain.imbalance_pct, noop.imbalance_pct, "{alg}");
    }
}

#[test]
fn reset_with_seed_matches_freshly_built_runtime() {
    // A runtime rewound with `reset_with_seed(s)` must be
    // indistinguishable from `Runtime::new(machine, s)` — same golden
    // makespans, chunk counts and byte-identical traces — even after it
    // has already executed offloads under other seeds. This is the
    // guarantee the bench harness's per-cell runtime reuse rests on.
    let mut reused = Runtime::new(Machine::four_k40(), 7); // arbitrary initial seed
    for (alg, makespan, chunks, counts) in golden() {
        // Dirty the reused runtime under a different seed first.
        reused.reset_with_seed(1234);
        let mut warm = FnKernel::new(intensity(), |_r: Range| {});
        reused.offload(&region(10_000, alg), &mut warm).run().unwrap();

        reused.reset_with_seed(42);
        let mut k = FnKernel::new(intensity(), |_r: Range| {});
        let rep = reused.offload(&region(10_000, alg), &mut k).run().unwrap();
        let fresh = run(Runtime::new(Machine::four_k40(), 42), 10_000, alg);

        assert_eq!(rep.makespan.as_secs(), makespan, "{alg}: reused runtime drifted from golden");
        assert_eq!(rep.chunks, chunks, "{alg}");
        assert_eq!(rep.counts, counts, "{alg}");
        assert_eq!(rep.makespan, fresh.makespan, "{alg}");
        assert_eq!(rep.imbalance_pct, fresh.imbalance_pct, "{alg}");
        assert_eq!(
            rep.trace.to_csv(),
            fresh.trace.to_csv(),
            "{alg}: reused runtime's trace must be byte-identical to a fresh one"
        );
    }
}

#[test]
fn a_probation_does_not_outlive_reset_with_seed() {
    // Device 2 drops a quarter of the way into a compute-bound DYNAMIC
    // offload and comes back before the halfway mark, so the chunked
    // path probes it and puts it on probation. Rewound with
    // `reset_with_seed`, the runtime must plan the next static splits
    // exactly as a fresh one built from the same config does.
    let heavy = KernelIntensity { flops_per_iter: 50_000.0, ..intensity() };
    let n = 100_000u64;
    let offload = |rt: &mut Runtime, alg: Algorithm| {
        let mut k = FnKernel::new(heavy, |_r: Range| {});
        rt.offload(&region(n, alg), &mut k).run().unwrap()
    };
    let dynamic = Algorithm::Dynamic { chunk_pct: 2.0 };
    let healthy = offload(&mut Runtime::new(Machine::four_k40(), 42), dynamic).makespan.as_secs();
    let plan =
        FaultPlan::new(7).with_dropout_at(2, healthy * 0.25).with_recovery_at(2, healthy * 0.45);
    let config = RuntimeConfig::new().faults(FaultConfig::new(plan)).decision_log(true);
    for alg in [Algorithm::Model1 { cutoff: None }, Algorithm::Model2 { cutoff: None }] {
        let mut reused = config.build(Machine::four_k40());
        let probed = offload(&mut reused, dynamic);
        assert!(
            probed.decisions.iter().any(|d| d.note == Some("quarantined->probation")),
            "device 2 must go through probation"
        );
        reused.reset_with_seed(42);
        let rep = offload(&mut reused, alg);
        let fresh = offload(&mut config.build(Machine::four_k40()), alg);
        assert_eq!(rep.counts, fresh.counts, "{alg}: the split must not remember the probation");
        assert_eq!(rep.makespan, fresh.makespan, "{alg}");
        assert_eq!(rep.trace.to_csv(), fresh.trace.to_csv(), "{alg}");
    }
}

/// `Runtime::new` and `Runtime::with_fault_config` cannot drift from
/// `RuntimeConfig::build`, and a runtime rewound with `reset_with_seed`
/// keeps every option it was built with: it equals a fresh build of its
/// config at the new seed.
#[test]
fn shorthands_and_rewinds_equal_a_fresh_build() {
    let machine = Machine::full_node();
    let n = 100_000u64;
    let faults =
        FaultConfig::new(FaultPlan::new(5).with_dropout_at(2, 2e-5).with_transient_dma(1, 0.3));
    let mut fired = false;
    for alg in Algorithm::extended_suite() {
        let r = OffloadRegion { devices: (0..7).collect(), ..region(n, alg) };
        let offload = |rt: &mut Runtime| {
            let mut k = FnKernel::new(intensity(), |_r: Range| {});
            rt.offload(&r, &mut k).run().unwrap()
        };
        let mut same = |a: &mut Runtime, b: &mut Runtime, ctx: &str| {
            let (a, b) = (offload(a), offload(b));
            assert_eq!(a.trace.to_csv(), b.trace.to_csv(), "{alg} {ctx}");
            assert_eq!(a.makespan, b.makespan, "{alg} {ctx}");
            assert_eq!(a.counts, b.counts, "{alg} {ctx}");
            assert_eq!(a.decisions, b.decisions, "{alg} {ctx}");
            fired |= a.faults.any();
        };
        let seeded = RuntimeConfig::new().seed(7);
        same(&mut Runtime::new(machine.clone(), 7), &mut seeded.build(machine.clone()), "new");
        let faulty = seeded.faults(faults.clone());
        let mut short = Runtime::with_fault_config(machine.clone(), 7, faults.clone());
        same(&mut short, &mut faulty.build(machine.clone()), "with_fault_config");
        let config = faulty.decision_log(true).overlap(false).trace_level(TraceLevel::Off);
        let mut rewound = config.build(machine.clone());
        same(&mut rewound, &mut config.build(machine.clone()), "before the rewind");
        rewound.reset_with_seed(11);
        same(&mut rewound, &mut config.seed(11).build(machine.clone()), "rewound");
    }
    assert!(fired, "the faults must fire");
}

#[test]
fn inactive_device_plans_do_not_perturb_other_devices() {
    // A plan that names a device but can never fire (zero rates, no
    // dropout) still counts as "none" and must change nothing.
    let plan = homp_sim::FaultPlan::new(99).with_transient_dma(2, 0.0).with_launch_timeouts(2, 0.0);
    assert!(plan.is_none());
    let alg = Algorithm::Guided { chunk_pct: 20.0 };
    let plain = run(Runtime::new(Machine::four_k40(), 42), 10_000, alg);
    let noop = run(
        Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan)),
        10_000,
        alg,
    );
    assert_eq!(plain.trace.to_csv(), noop.trace.to_csv());
}
