//! Runtime re-entrancy property: serving two tenants *interleaved* on
//! shared calendars must produce bitwise the same per-tenant host
//! arrays as running the same two regions back-to-back through the
//! classic one-at-a-time entry point — across all 8 distribution
//! algorithms and a family of fault scripts.
//!
//! The schedules differ wildly between the two modes (the interleaved
//! run contends for DMA engines and compute calendars, and faults land
//! at different points of each region's lifetime), but the executed
//! iteration sets must not: every iteration exactly once, on whatever
//! device or host-fallback path the scheduler picked. Element-wise
//! accumulation makes any double- or missed execution show up as a
//! bitwise difference.

use homp_core::{Algorithm, FaultConfig, FnKernel, OffloadRegion, Runtime};
use homp_lang::{DistPolicy, MapDir};
use homp_serve::{ServePolicy, ServeRequest, Server};
use homp_sim::{DeviceId, FaultPlan, Machine, SimTime};
use proptest::prelude::*;

fn region(name: &str, n: u64, machine: &Machine, alg: Algorithm) -> OffloadRegion {
    let devices: Vec<DeviceId> = (0..machine.len() as DeviceId).collect();
    OffloadRegion::builder(name)
        .trip_count(n)
        .devices(devices)
        .algorithm(alg)
        .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .map_1d("y", MapDir::ToFrom, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .build()
}

/// Deterministic per-iteration value, distinct per tenant.
fn val(i: u64, tenant: u64) -> f64 {
    ((i ^ (tenant.wrapping_mul(0x9e37_79b9))) % 10_007) as f64 * 1e-9
}

fn kernel_for<'a>(out: &'a mut [f64], tenant: u64) -> FnKernel<impl FnMut(homp_core::Range) + 'a> {
    FnKernel::new(homp_kernels::axpy::intensity(), move |r: homp_core::Range| {
        for i in r.start..r.end {
            out[i as usize] += val(i, tenant);
        }
    })
}

/// The fault scripts the property sweeps. Times are absolute virtual
/// seconds — under serve they land mid-traffic, back-to-back they land
/// inside whichever region covers them; equivalence must hold anyway.
fn fault_scripts(seed: u64) -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::none()),
        ("dropout", FaultConfig::new(FaultPlan::new(seed).with_dropout_at(1, 0.0008))),
        (
            "dropout+recovery",
            FaultConfig::new(
                FaultPlan::new(seed).with_dropout_at(2, 0.0005).with_recovery_at(2, 0.0030),
            ),
        ),
        ("transient-dma", FaultConfig::new(FaultPlan::new(seed).with_transient_dma(0, 0.25))),
        ("launch-timeouts", FaultConfig::new(FaultPlan::new(seed).with_launch_timeouts(3, 0.2))),
        ("slowdown", FaultConfig::new(FaultPlan::new(seed).with_slowdown(1, 3.0, 0.0002, 0.0040))),
    ]
}

/// Classic semantics: two fresh-calendar offloads, one per tenant.
fn back_to_back(
    machine: &Machine,
    seed: u64,
    faults: &FaultConfig,
    n: u64,
    alg: Algorithm,
) -> (Vec<f64>, Vec<f64>) {
    let mut rt = Runtime::with_fault_config(machine.clone(), seed, faults.clone());
    let mut out_a = vec![0.0f64; n as usize];
    let mut out_b = vec![0.0f64; n as usize];
    {
        let mut k = kernel_for(&mut out_a, 0);
        rt.offload(&region("tenant-a", n, machine, alg), &mut k).run().expect("tenant A offload");
    }
    {
        let mut k = kernel_for(&mut out_b, 1);
        rt.offload(&region("tenant-b", n, machine, alg), &mut k).run().expect("tenant B offload");
    }
    (out_a, out_b)
}

/// Serve semantics: tenant B arrives while tenant A is still in
/// flight; both share the calendars.
fn interleaved(
    machine: &Machine,
    seed: u64,
    faults: &FaultConfig,
    n: u64,
    alg: Algorithm,
    overlap_us: f64,
    policy: ServePolicy,
) -> (Vec<f64>, Vec<f64>) {
    let rt = Runtime::with_fault_config(machine.clone(), seed, faults.clone());
    let mut out_a = vec![0.0f64; n as usize];
    let mut out_b = vec![0.0f64; n as usize];
    {
        let ka = kernel_for(&mut out_a, 0);
        let kb = kernel_for(&mut out_b, 1);
        let reqs = vec![
            ServeRequest::new(0, SimTime::ZERO, region("tenant-a", n, machine, alg), Box::new(ka)),
            ServeRequest::new(
                1,
                SimTime::from_secs(overlap_us * 1e-6),
                region("tenant-b", n, machine, alg),
                Box::new(kb),
            )
            .with_weight(2.0),
        ];
        let mut srv = Server::with_runtime(rt).policy(policy).max_inflight(2);
        let rep = srv.serve(reqs).expect("serve");
        assert_eq!(rep.outcomes.len(), 2);
    }
    (out_a, out_b)
}

fn check_all(machine: &Machine, seed: u64, n: u64, overlap_us: f64) {
    for (script, faults) in fault_scripts(seed) {
        for alg in Algorithm::extended_suite() {
            let (base_a, base_b) = back_to_back(machine, seed, &faults, n, alg);
            for policy in [ServePolicy::Fifo, ServePolicy::WeightedFair] {
                let (srv_a, srv_b) =
                    interleaved(machine, seed, &faults, n, alg, overlap_us, policy);
                let label = format!(
                    "{alg} script={script} policy={policy:?} seed={seed} n={n} overlap={overlap_us}us"
                );
                assert!(srv_a == base_a, "tenant A output diverged: {label}");
                assert!(srv_b == base_b, "tenant B output diverged: {label}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interleaved two-tenant serve ≡ back-to-back, bitwise, per
    /// tenant — all 8 algorithms × fault scripts × both admission
    /// policies, random seed, trip count, and overlap.
    #[test]
    fn interleaved_serve_matches_back_to_back(
        seed in 0u64..1_000_000,
        n in 2_000u64..20_000,
        overlap_us in 10.0f64..2_000.0,
    ) {
        check_all(&Machine::four_k40(), seed, n, overlap_us);
    }
}

/// A pinned deterministic instance so the property also runs under
/// `--test-threads` invariant CI filters even if proptest shrinks.
#[test]
fn interleaved_serve_matches_back_to_back_pinned() {
    check_all(&Machine::four_k40(), 20170529, 12_345, 350.0);
    check_all(&Machine::full_node(), 42, 8_000, 120.0);
}
