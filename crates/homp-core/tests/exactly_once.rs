//! The exactly-once partition property as a reusable harness: every
//! distribution algorithm in the extended (8-algorithm) suite must
//! execute each loop iteration exactly once, and its decision log must
//! partition the iteration space, across random seeds, trip counts,
//! machines, and mid-run device dropouts.

mod common;

use common::{assert_decisions_partition, CoverageKernel};
use homp_core::{Algorithm, FaultConfig, OffloadRegion, Runtime, RuntimeConfig};
use homp_lang::{DistPolicy, MapDir};
use homp_sim::{DeviceId, FaultPlan, Machine};
use proptest::prelude::*;

fn region(n: u64, machine: &Machine, alg: Algorithm) -> OffloadRegion {
    let devices: Vec<DeviceId> = (0..machine.devices.len() as DeviceId).collect();
    OffloadRegion::builder("axpy")
        .trip_count(n)
        .devices(devices)
        .algorithm(alg)
        .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .map_1d("y", MapDir::ToFrom, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .build()
}

/// Run one offload with the coverage kernel on a runtime `config` builds
/// with the decision log on, and assert both halves of the property:
/// per-iteration hit counts all 1, decision ranges a partition of
/// `[0, n)`.
fn check(config: RuntimeConfig, machine: &Machine, n: u64, alg: Algorithm, label: &str) {
    let mut rt = config.decision_log(true).build(machine.clone());
    let mut k = CoverageKernel::new(n);
    let report = rt
        .offload(&region(n, machine, alg), &mut k)
        .run()
        .unwrap_or_else(|e| panic!("{label}: offload failed: {e:?}"));
    k.assert_exactly_once(label);
    assert_decisions_partition(&report, n, label);
}

/// Both suites under test: the 8-algorithm extended suite plus its
/// CUTOFF(15%) variants (CUTOFF drops slow devices from the static
/// share, which exercises the empty-share paths).
fn algorithms() -> Vec<Algorithm> {
    let mut algs = Algorithm::extended_suite();
    algs.extend(Algorithm::extended_suite_with_cutoff(0.15));
    algs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Healthy runs: all 8 algorithms (and their CUTOFF variants) on a
    /// homogeneous and a heterogeneous machine, random seed and trip
    /// count.
    #[test]
    fn exactly_once_across_algorithms_seeds_and_machines(
        seed in 0u64..1_000_000,
        n in 1_000u64..60_000,
    ) {
        for machine in [Machine::four_k40(), Machine::full_node()] {
            for alg in algorithms() {
                let label = format!("{alg} seed={seed} n={n} machine={}", machine.name);
                check(RuntimeConfig::new().seed(seed), &machine, n, alg, &label);
            }
        }
    }

    /// Faulty runs: a random device drops out at a random fraction of
    /// the healthy makespan; recovery (serial requeue or work-assist
    /// adoption) must preserve both halves of the property.
    #[test]
    fn exactly_once_with_a_random_mid_run_dropout(
        seed in 0u64..1_000_000,
        n in 20_000u64..60_000,
        victim in 0u32..4,
        frac in 0.1f64..0.9,
    ) {
        let machine = Machine::four_k40();
        for alg in Algorithm::extended_suite() {
            let healthy = {
                let mut rt = Runtime::new(machine.clone(), seed);
                let mut k = CoverageKernel::new(n);
                rt.offload(&region(n, &machine, alg), &mut k).run().unwrap().makespan.as_secs()
            };
            let plan = FaultPlan::new(seed).with_dropout_at(victim, healthy * frac);
            let config = RuntimeConfig::new().seed(seed).faults(FaultConfig::new(plan));
            let label = format!(
                "{alg} seed={seed} n={n} victim={victim} frac={frac:.2}"
            );
            check(config, &machine, n, alg, &label);
        }
    }
}
