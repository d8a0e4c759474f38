//! Fault injection and recovery: every iteration executes exactly once
//! no matter which device dies mid-region, transient faults are retried
//! with exponential backoff, and fault runs are bit-reproducible.

use homp_core::{Algorithm, FaultConfig, FnKernel, OffloadRegion, Range, Runtime};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{FaultPlan, Machine, OpKind};

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

/// Offload with a per-iteration execution counter; returns the report
/// and the counter vector.
fn run_counted(
    mut rt: Runtime,
    n: u64,
    alg: Algorithm,
) -> (Result<homp_core::OffloadReport, homp_core::OffloadError>, Vec<u32>) {
    let mut hits = vec![0u32; n as usize];
    let res = {
        let mut k = FnKernel::new(intensity(), |r: Range| {
            for i in r.start..r.end {
                hits[i as usize] += 1;
            }
        });
        rt.offload(&region(n, alg), &mut k).run()
    };
    (res, hits)
}

#[test]
fn mid_region_dropout_executes_every_iteration_exactly_once_per_algorithm() {
    let n = 100_000u64;
    // The extended suite adds WORK_ASSIST to the paper's seven: its
    // recovery path (orphan adoption by assisting peers) must satisfy
    // the same exactly-once and failover-accounting contract.
    for alg in Algorithm::extended_suite() {
        // Find the healthy makespan, then kill device 2 halfway through.
        let healthy = run_counted(Runtime::new(Machine::four_k40(), 42), n, alg)
            .0
            .unwrap()
            .makespan
            .as_secs();
        let plan = FaultPlan::new(9).with_dropout_at(2, healthy * 0.5);
        let rt = Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan));
        let (res, hits) = run_counted(rt, n, alg);
        let report = res.unwrap();

        assert_eq!(report.faults.dropouts, vec![2], "{alg}: device 2 must drop");
        assert!(
            hits.iter().all(|&h| h == 1),
            "{alg}: every iteration exactly once (min {:?}, max {:?})",
            hits.iter().min(),
            hits.iter().max()
        );
        assert_eq!(report.counts.iter().sum::<u64>(), n, "{alg}: counts reconcile");
        assert_eq!(report.counts[2], hits_on_dead_slot(&report), "{alg}");

        // Recovery is visible in the trace: the dropout left a FAULT
        // event on device 2 and the survivors paid FAILOVER bookkeeping.
        let faults = report.trace.events().iter().filter(|e| e.kind == OpKind::Fault).count();
        let failovers = report.trace.events().iter().filter(|e| e.kind == OpKind::Failover).count();
        assert!(faults >= 1, "{alg}: dropout must be traced");
        assert!(failovers >= 1, "{alg}: survivors must pay failover overhead");
        assert!(
            report.faults.requeued_iters > 0,
            "{alg}: orphaned work must be re-run on survivors"
        );
        // The dead device's makespan grew: recovery is not free.
        assert!(report.makespan.as_secs() > healthy * 0.5, "{alg}");
    }
}

/// The report's slot-2 count (what the dead device still completed).
fn hits_on_dead_slot(report: &homp_core::OffloadReport) -> u64 {
    report.counts[2]
}

#[test]
fn transient_retries_follow_the_exponential_backoff() {
    let n = 10_000u64;
    // Device 1's DMA always fails: the proxy burns all three retries on
    // the very first transfer, quarantines the device, and recovers.
    let plan = FaultPlan::new(3).with_transient_dma(1, 1.0);
    let max_retries = 3;
    let rt = Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan));
    let (res, hits) = run_counted(rt, n, Algorithm::Block);
    let report = res.unwrap();

    assert!(hits.iter().all(|&h| h == 1), "exactly once despite the flaky DMA");
    assert_eq!(report.faults.dropouts, vec![1], "retries exhausted => quarantine");
    assert_eq!(report.faults.transient_retries as usize, max_retries);

    // One BACKOFF event per retry, doubling from 100 µs and all on the
    // flaky device.
    let mut backoffs: Vec<_> =
        report.trace.events().iter().filter(|e| e.kind == OpKind::Backoff).collect();
    backoffs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
    assert_eq!(backoffs.len(), max_retries);
    for (i, ev) in backoffs.iter().enumerate() {
        assert_eq!(ev.device, 1);
        let want = 100e-6 * 2f64.powi(i as i32);
        let got = (ev.end - ev.start).as_secs();
        assert!((got - want).abs() < 1e-12, "backoff {i}: {got} != {want}");
    }
    // Each failed attempt (first try + retries) is traced as a FAULT on
    // the DMA engine.
    let dma_faults =
        report.trace.events().iter().filter(|e| e.kind == OpKind::Fault && e.device == 1).count();
    assert_eq!(dma_faults, max_retries + 1);
}

#[test]
fn launch_timeouts_are_retried_like_dma_errors() {
    let n = 10_000u64;
    let plan = FaultPlan::new(5).with_launch_timeouts(3, 1.0);
    let rt = Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan));
    let (res, hits) = run_counted(rt, n, Algorithm::Dynamic { chunk_pct: 2.0 });
    let report = res.unwrap();
    assert!(hits.iter().all(|&h| h == 1));
    assert_eq!(report.faults.dropouts, vec![3]);
    assert!(report.faults.transient_retries >= 3);
    assert_eq!(report.counts[3], 0, "device 3 never completes a chunk");
}

#[test]
fn identical_seeds_give_byte_identical_fault_traces() {
    let n = 50_000u64;
    for alg in [
        Algorithm::Block,
        Algorithm::Dynamic { chunk_pct: 2.0 },
        Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None },
    ] {
        let mk = || {
            let plan = FaultPlan::new(11)
                .with_dropout_at(2, 0.3e-3)
                .with_transient_dma(0, 0.05)
                .with_launch_timeouts(1, 0.02);
            let rt = Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan));
            let (res, hits) = run_counted(rt, n, alg);
            (res.unwrap(), hits)
        };
        let (r1, h1) = mk();
        let (r2, h2) = mk();
        assert_eq!(r1.trace.to_csv(), r2.trace.to_csv(), "{alg}: traces must be identical");
        assert_eq!(r1.makespan, r2.makespan, "{alg}");
        assert_eq!(r1.counts, r2.counts, "{alg}");
        assert_eq!(r1.faults, r2.faults, "{alg}");
        assert_eq!(h1, h2, "{alg}");
    }
}

#[test]
fn all_devices_failing_falls_back_to_the_host() {
    let n = 10_000u64;
    let mut plan = FaultPlan::new(1);
    for d in 0..4 {
        plan = plan.with_dropout_at(d, 1e-6);
    }
    let rt = Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan));
    let (res, hits) = run_counted(rt, n, Algorithm::Block);
    // Losing the whole accelerator pool degrades to the host path rather
    // than erroring: the region still completes with the right answer.
    let report = res.expect("all-quarantined region must complete on the host");
    assert!(hits.iter().all(|&h| h == 1), "host fallback preserves exactly-once");
    assert_eq!(report.faults.dropouts, vec![0, 1, 2, 3]);
    assert!(report.faults.host_iters > 0, "fallback work must be attributed to the host");
    assert_eq!(
        report.counts.iter().sum::<u64>() + report.faults.host_iters,
        n,
        "device counts + host iterations must account for the whole loop"
    );
}

#[test]
fn chunked_dropout_requeues_only_the_orphaned_chunk() {
    let n = 100_000u64;
    let alg = Algorithm::Dynamic { chunk_pct: 2.0 };
    let healthy =
        run_counted(Runtime::new(Machine::four_k40(), 42), n, alg).0.unwrap().makespan.as_secs();
    let plan = FaultPlan::new(2).with_dropout_at(1, healthy * 0.4);
    let rt = Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan));
    let (res, hits) = run_counted(rt, n, alg);
    let report = res.unwrap();
    assert!(hits.iter().all(|&h| h == 1));
    // Chunked recovery is local: exactly the chunk in flight on the dead
    // device is re-queued, not the device's whole share.
    let chunk = 2_000; // 2% of 100k
    assert_eq!(report.faults.requeued_chunks, 1);
    assert_eq!(report.faults.requeued_iters, chunk);
}

/// The first event on `dev` of `kind` labelled `label`.
fn event(
    report: &homp_core::OffloadReport,
    dev: homp_sim::DeviceId,
    kind: OpKind,
    label: &str,
) -> homp_sim::TraceEvent {
    let trace = &report.trace;
    *trace
        .events()
        .iter()
        .find(|e| e.device == dev && e.kind == kind && trace.label(e.label) == label)
        .unwrap_or_else(|| panic!("no {kind:?} `{label}` event on device {dev}"))
}

/// Device `dev`'s first event: its proxy's start.
fn first_start(report: &homp_core::OffloadReport, dev: homp_sim::DeviceId) -> f64 {
    let events = report.trace.events().iter().filter(|e| e.device == dev);
    events.map(|e| e.start.as_secs()).fold(f64::INFINITY, f64::min)
}

/// A serialized offload (plain multi-device `target`) starts proxy
/// *i+1* once proxy *i* has launched and moved its map-in, or at proxy
/// *i*'s setup fault. A fault after the map-in, in the kernel or the
/// copy-back, must not hold the next proxy: every path shares one setup.
#[test]
fn a_serialized_proxy_starts_at_the_previous_map_in_end() {
    let n = 80_000u64;
    let aligned = || DistPolicy::Align { target: "loop".into(), ratio: 1 };
    let serialized = |alg: Algorithm, replicated: bool| {
        let b = OffloadRegion::builder("axpy")
            .trip_count(n)
            .devices(vec![0, 1, 2, 3])
            .algorithm(alg)
            .serialized_offload()
            .map_1d("x", MapDir::To, n, 8, aligned())
            .map_1d("y", MapDir::ToFrom, n, 8, aligned());
        match replicated {
            true => b.map_1d("c", MapDir::To, 4096, 8, DistPolicy::Full).build(),
            false => b.build(),
        }
    };
    let run = |rt: Runtime, r: &OffloadRegion| {
        let (mut rt, mut hits) = (rt, vec![0u32; n as usize]);
        let report = {
            let mut k = FnKernel::new(intensity(), |r: Range| {
                for i in r.start..r.end {
                    hits[i as usize] += 1;
                }
            });
            rt.offload(r, &mut k).run().unwrap()
        };
        assert!(hits.iter().all(|&h| h == 1), "exactly once");
        report
    };
    // (algorithm, replicated `c`, the op device 1 drops in the middle
    // of, the label of its setup's last transfer, makespan in µs).
    let cases = [
        (Algorithm::Block, false, (OpKind::D2H, "map-out"), "map-in", 307.95),
        (Algorithm::Model2 { cutoff: None }, false, (OpKind::D2H, "map-out"), "map-in", 307.95),
        (
            Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None },
            true,
            (OpKind::Kernel, "axpy"),
            "map-in-fixed",
            253.29,
        ),
        (
            Algorithm::ProfileModel { sample_pct: 10.0, cutoff: None },
            true,
            (OpKind::Kernel, "axpy"),
            "map-in-fixed",
            253.29,
        ),
    ];
    for (alg, replicated, (kind, label), setup_in, makespan_us) in cases {
        let r = serialized(alg, replicated);
        let healthy = run(Runtime::new(Machine::four_k40(), 42), &r);
        let op = event(&healthy, 1, kind, label);
        let drop_at = (op.start.as_secs() + op.end.as_secs()) / 2.0;
        let plan = FaultPlan::new(1).with_dropout_at(1, drop_at);
        let faulty = Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan));
        let report = run(faulty, &r);
        assert_eq!(report.faults.dropouts, vec![1], "{alg}");
        let map_in_end = event(&report, 1, OpKind::H2D, setup_in).end.as_secs();
        assert!(map_in_end < drop_at, "{alg}: the fault comes after the setup");
        assert_eq!(
            first_start(&report, 2),
            map_in_end,
            "{alg}: device 2 must start at device 1's {setup_in} end, not at its fault ({drop_at})"
        );
        let got_us = report.makespan.as_secs() * 1e6;
        assert!((got_us - makespan_us).abs() < 0.005, "{alg}: makespan {got_us} µs");
    }
}
