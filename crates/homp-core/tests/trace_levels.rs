//! The trace recording level is a pure observability knob: every
//! schedule, count, and virtual-time result must be bit-identical
//! whether the runtime records a full labelled trace or nothing at
//! all. These tests drive whole offloads through the runtime at each
//! level and require exact equality — no tolerances.

mod common;

use common::CoverageKernel;
use homp_core::dist::Distribution;
use homp_core::history::HistoryDb;
use homp_core::{
    Algorithm, OffloadError, OffloadRegion, OffloadReport, PredictionSource, Runtime, RuntimeConfig,
};
use homp_lang::{DistPolicy, MapDir};
use homp_sim::{DeviceId, Machine, SimTime, TraceLevel};

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

fn suite() -> Vec<Algorithm> {
    vec![
        Algorithm::Model2 { cutoff: None },
        Algorithm::Dynamic { chunk_pct: 2.0 },
        Algorithm::Guided { chunk_pct: 10.0 },
        Algorithm::WorkAssist { min_assist_pct: 0.5, cutoff: None },
    ]
}

fn run_at(
    level: TraceLevel,
    machine: &Machine,
    n: u64,
    alg: Algorithm,
    seed: u64,
) -> (homp_core::OffloadReport, CoverageKernel) {
    let mut rt = RuntimeConfig::new().seed(seed).trace_level(level).build(machine.clone());
    let mut k = CoverageKernel::new(n);
    let report = rt.offload(&region(n, machine, alg), &mut k).run().unwrap();
    (report, k)
}

/// OFF vs FULL: identical schedules, empty trace.
#[test]
fn level_off_changes_nothing_but_the_trace() {
    let n = 60_000u64;
    let machine = Machine::four_k40();
    for alg in suite() {
        for seed in [7u64, 42] {
            let (full, kf) = run_at(TraceLevel::Full, &machine, n, alg, seed);
            let (off, ko) = run_at(TraceLevel::Off, &machine, n, alg, seed);
            let ctx = format!("alg={alg:?} seed={seed}");
            assert_eq!(off.makespan, full.makespan, "{ctx}: makespan drifted");
            assert_eq!(off.counts, full.counts, "{ctx}: per-device counts drifted");
            assert_eq!(off.chunks, full.chunks, "{ctx}: chunk count drifted");
            // The engine keeps the completions imbalance reads at every
            // level, so only the trace itself is given up.
            assert_eq!(off.imbalance_pct, full.imbalance_pct, "{ctx}: imbalance drifted");
            assert_eq!(ko.hits, kf.hits, "{ctx}: kernel coverage drifted");
            assert!(off.trace.events().is_empty(), "{ctx}: OFF must record no events");
            assert!(!full.trace.events().is_empty(), "{ctx}: FULL must record events");
        }
    }
}

/// Three learned offloads under MODEL_1, then three under MODEL_2 with
/// CUTOFF 0.15, on one runtime and one history at `level`.
fn learned_at(level: TraceLevel, machine: &Machine, n: u64) -> Vec<OffloadReport> {
    let config = RuntimeConfig::new().seed(19).trace_level(level).decision_log(true);
    let mut rt = config.build(machine.clone());
    let mut db = HistoryDb::new();
    let mut reports = Vec::new();
    for alg in [Algorithm::Model1 { cutoff: None }, Algorithm::Model2 { cutoff: Some(0.15) }] {
        let r = region(n, machine, alg);
        for i in 0..3 {
            let mut k = CoverageKernel::new(n);
            reports.push(rt.offload(&r, &mut k).history(&mut db).run().unwrap());
            k.assert_exactly_once(&format!("{alg:?} offload {i} at {level:?}"));
        }
    }
    reports
}

/// A learned offload learns from busy time summed at every level, so
/// the split it learns, and so the schedule, is the same at OFF.
#[test]
fn learned_offloads_do_not_depend_on_the_level() {
    let n = 100_000u64;
    let machine = Machine::full_node();
    let full = learned_at(TraceLevel::Full, &machine, n);
    let off = learned_at(TraceLevel::Off, &machine, n);
    assert_ne!(full[1].counts, full[0].counts, "the second offload must learn");
    assert!(full[3].kept_devices.len() < 7, "CUTOFF must apply to the learned rates");
    assert!(
        full[3].decisions.iter().all(|d| d.source == Some(PredictionSource::History)),
        "offload 3 must split by the learned rates"
    );
    for (i, (f, o)) in full.iter().zip(&off).enumerate() {
        let ctx = format!("offload {i}");
        assert_eq!(o.counts, f.counts, "{ctx}: counts drifted");
        assert_eq!(o.makespan, f.makespan, "{ctx}: makespan drifted");
        assert_eq!(o.kept_devices, f.kept_devices, "{ctx}: kept devices drifted");
        assert_eq!(o.decisions, f.decisions, "{ctx}: decisions drifted");
    }
}

/// Imbalance is measured from the dispatch instant, over the
/// completions the engine keeps at every level. A region dispatched at
/// t = 0 reads, at either level, exactly what a plain traced run reads;
/// dispatched later it reads the same up to the rounding of virtual
/// instants that far from zero, and the two levels still agree bit for
/// bit.
#[test]
fn imbalance_depends_on_neither_the_dispatch_instant_nor_the_level() {
    let n = 1_000_000u64;
    let machine = Machine::full_node();
    for alg in [
        Algorithm::Block,
        Algorithm::Model2 { cutoff: None },
        Algorithm::Dynamic { chunk_pct: 2.0 },
    ] {
        let r = region(n, &machine, alg);
        let (plain, _) = run_at(TraceLevel::Full, &machine, n, alg, 42);
        assert!(plain.imbalance_pct > 0.0, "{alg}: the plain run must be imbalanced");
        for at in [0.0, 1e-3, 1.0] {
            let [full, off] = [TraceLevel::Full, TraceLevel::Off].map(|level| {
                let config = RuntimeConfig::new().seed(42).trace_level(level);
                let mut rt = config.build(machine.clone());
                let mut k = CoverageKernel::new(n);
                rt.offload(&r, &mut k).at(SimTime::from_secs(at)).run().unwrap().imbalance_pct
            });
            let ctx = format!("{alg} at t = {at} s");
            assert_eq!(off, full, "{ctx}: the levels must agree");
            if at == 0.0 {
                assert_eq!(full, plain.imbalance_pct, "{ctx}");
            }
            let err = (full - plain.imbalance_pct).abs() / plain.imbalance_pct;
            assert!(err < 1e-9, "{ctx}: {full} against {}", plain.imbalance_pct);
        }
    }
}

/// A halo exchange, a region close and a `target update` each record
/// their transfers in the engine's trace. An offload dispatched `.at(t)`
/// does not rewind the engine, so it must not be handed those events:
/// its trace holds exactly the ops it submitted.
#[test]
fn an_offload_at_t_reports_only_its_own_ops() {
    let n = 80_000u64;
    let machine = Machine::four_k40();
    let r = region(n, &machine, Algorithm::Block);
    let inside = |rt: &mut Runtime| {
        rt.data_region_begin(&r);
        rt.offload(&r, &mut CoverageKernel::new(n)).run().unwrap();
    };
    let halo = |rt: &mut Runtime| {
        rt.exchange_halo(&r.devices, &Distribution::block(n, r.devices.len()), 1, 8).unwrap();
    };
    let close = |rt: &mut Runtime| {
        inside(rt);
        assert!(rt.data_region_end().unwrap().flush_transfers > 0);
    };
    let update = |rt: &mut Runtime| {
        inside(rt);
        let moved = rt.target_update(&["x"], &["y"]).unwrap();
        assert!(moved.h2d_bytes > 0 && moved.d2h_bytes > 0);
    };
    type Call<'a> = &'a dyn Fn(&mut Runtime);
    let calls: [(&str, &[&str], Call); 3] = [
        ("exchange_halo", &["halo-up", "halo-down"], &halo),
        ("data_region_end", &["region-flush"], &close),
        ("target_update", &["update-to", "update-from"], &update),
    ];
    for (name, labels, call) in calls {
        let mut rt = RuntimeConfig::new().seed(42).build(machine.clone());
        call(&mut rt);
        let ops = rt.sim_ops();
        let mut k = CoverageKernel::new(n);
        let report = rt.offload(&r, &mut k).at(SimTime::from_secs(1e-3)).run().unwrap();
        let trace = &report.trace;
        assert_eq!(trace.len() as u64, rt.sim_ops() - ops, "after {name}");
        for e in trace.events() {
            assert!(!labels.contains(&trace.label(e.label)), "after {name}: {e:?}");
        }
    }
}

/// An offload the capacity check refuses leaves the engine as it was:
/// an offload dispatched `.at(t)` after it still queues behind the work
/// already in flight, exactly as it does without the refused call. No
/// K40 holds two 2 % chunks of the refused loop's arrays, so a
/// chunk-scheduled offload is refused as well as a static one.
#[test]
fn a_refused_offload_leaves_work_in_flight() {
    let n = 80_000u64;
    let machine = Machine::four_k40();
    let r = region(n, &machine, Algorithm::Block);
    let huge = 1u64 << 36;
    let sequence = |refused: Option<Algorithm>| {
        let mut rt = RuntimeConfig::new().seed(42).build(machine.clone());
        rt.offload(&r, &mut CoverageKernel::new(n)).at(SimTime::ZERO).run().unwrap();
        if let Some(alg) = refused {
            // Refused before dispatch, so the kernel never runs.
            let err = rt
                .offload(&region(huge, &machine, alg), &mut CoverageKernel::new(0))
                .run()
                .unwrap_err();
            assert!(matches!(err, OffloadError::OutOfDeviceMemory { .. }), "{alg}: {err}");
        }
        let at = SimTime::from_secs(41.6e-6);
        rt.offload(&r, &mut CoverageKernel::new(n)).at(at).run().unwrap()
    };
    let alone = sequence(None);
    for alg in [Algorithm::Block, Algorithm::Dynamic { chunk_pct: 2.0 }] {
        let after = sequence(Some(alg));
        assert_eq!(after.makespan, alone.makespan, "after a refused {alg}");
        assert_eq!(after.completed_at, alone.completed_at, "after a refused {alg}");
        assert_eq!(after.trace.to_csv(), alone.trace.to_csv(), "after a refused {alg}");
    }
}
