//! The trace of an offload must have the structural shape its algorithm
//! family implies — one kernel per device for single-stage plans, one
//! per chunk for chunked plans, two waves for the profiling plans —
//! and every byte recorded in the trace must reconcile with the data
//! plan.

use homp_core::{Algorithm, DataPlan, FnKernel, OffloadRegion, Range, Runtime, RuntimeConfig};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{Machine, OpKind};

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

fn kernel_events(rt_trace: &homp_sim::Trace) -> usize {
    rt_trace.events().iter().filter(|e| e.kind == OpKind::Kernel).count()
}

#[test]
fn static_plans_have_one_kernel_event_per_device() {
    for alg in
        [Algorithm::Block, Algorithm::Model1 { cutoff: None }, Algorithm::Model2 { cutoff: None }]
    {
        let mut rt = Runtime::new(Machine::four_k40(), 1);
        let mut k = FnKernel::new(intensity(), |_r: Range| {});
        let rep = rt.offload(&region(100_000, alg), &mut k).run().unwrap();
        let active = rep.counts.iter().filter(|&&c| c > 0).count();
        assert_eq!(kernel_events(&rep.trace), active, "{alg}: one kernel launch per active device");
    }
}

#[test]
fn chunked_plans_have_one_kernel_event_per_chunk() {
    for alg in [Algorithm::Dynamic { chunk_pct: 2.0 }, Algorithm::Guided { chunk_pct: 20.0 }] {
        let mut rt = Runtime::new(Machine::four_k40(), 2);
        let mut k = FnKernel::new(intensity(), |_r: Range| {});
        let rep = rt.offload(&region(100_000, alg), &mut k).run().unwrap();
        assert_eq!(kernel_events(&rep.trace) as u64, rep.chunks, "{alg}");
        assert!(rep.chunks > 4, "{alg} must be multi-stage");
    }
}

#[test]
fn profiled_plans_have_at_most_two_kernel_waves_per_device() {
    let mut rt = Runtime::new(Machine::four_k40(), 3);
    let mut k = FnKernel::new(intensity(), |_r: Range| {});
    let rep = rt
        .offload(
            &region(100_000, Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None }),
            &mut k,
        )
        .run()
        .unwrap();
    for dev in 0..4u32 {
        let per_dev = rep
            .trace
            .events()
            .iter()
            .filter(|e| e.kind == OpKind::Kernel && e.device == dev)
            .count();
        assert!((1..=2).contains(&per_dev), "device {dev}: {per_dev} kernel events");
    }
}

#[test]
fn trace_bytes_reconcile_with_data_plan() {
    let n = 50_000u64;
    let reg = region(n, Algorithm::Block);
    let plan = DataPlan::new(&reg, 4).unwrap();
    let mut rt = RuntimeConfig::new().noiseless().build(Machine::four_k40());
    let mut k = FnKernel::new(intensity(), |_r: Range| {});
    let rep = rt.offload(&reg, &mut k).run().unwrap();

    let h2d_traced: u64 =
        rep.trace.events().iter().filter(|e| e.kind == OpKind::H2D).map(|e| e.amount).sum();
    let d2h_traced: u64 =
        rep.trace.events().iter().filter(|e| e.kind == OpKind::D2H).map(|e| e.amount).sum();
    let h2d_planned: u64 = (0..4).map(|s| plan.h2d_bytes(s, rep.counts[s])).sum();
    let d2h_planned: u64 = (0..4).map(|s| plan.d2h_bytes(s, rep.counts[s])).sum();
    assert_eq!(h2d_traced, h2d_planned, "every planned inbound byte is traced");
    assert_eq!(d2h_traced, d2h_planned, "every planned outbound byte is traced");
}

#[test]
fn kernel_event_iterations_match_counts() {
    for alg in Algorithm::paper_suite() {
        let mut rt = Runtime::new(Machine::four_k40(), 5);
        let mut k = FnKernel::new(intensity(), |_r: Range| {});
        let rep = rt.offload(&region(80_000, alg), &mut k).run().unwrap();
        for dev in 0..4u32 {
            let traced: u64 = rep
                .trace
                .events()
                .iter()
                .filter(|e| e.kind == OpKind::Kernel && e.device == dev)
                .map(|e| e.amount)
                .sum();
            assert_eq!(traced, rep.counts[dev as usize], "{alg}: device {dev} traced iterations");
        }
    }
}

#[test]
fn host_devices_never_appear_in_transfer_events() {
    let mut rt = Runtime::new(Machine::two_cpus_two_mics(), 6);
    let n = 60_000u64;
    let reg = OffloadRegion::builder("axpy")
        .trip_count(n)
        .devices(vec![0, 1, 2, 3])
        .algorithm(Algorithm::Dynamic { chunk_pct: 2.0 })
        .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .build();
    let mut k = FnKernel::new(intensity(), |_r: Range| {});
    let rep = rt.offload(&reg, &mut k).run().unwrap();
    for e in rep.trace.events() {
        if matches!(e.kind, OpKind::H2D | OpKind::D2H) {
            assert!(e.device >= 2, "CPU socket {} must not transfer (shared memory)", e.device);
        }
    }
}

/// A region that declares a reduction copies each slot's 8-byte partial
/// back in one D2H, beside its mapped-out bytes, under all 8 algorithms,
/// plain and inside an open `target data` region; the same region
/// without a reduction moves only its mapped-out bytes: `y`'s rows,
/// which the data region defers to its close under a static split. A
/// slot that runs no rows (3 iterations on 4 devices) copies nothing.
#[test]
fn every_slot_that_runs_rows_copies_its_reduction_partial_back() {
    for n in [3u64, 100_000] {
        for alg in Algorithm::extended_suite() {
            for in_region in [false, true] {
                // Per device: the D2H amounts, and the rows it ran.
                let run = |reduction_bytes: u64| {
                    let r = OffloadRegion { reduction_bytes, ..region(n, alg) };
                    let mut rt = RuntimeConfig::new().noiseless().build(Machine::four_k40());
                    if in_region {
                        rt.data_region_begin(&r);
                    }
                    let streamed = rt.distribution(&r, &intensity()).unwrap().is_none();
                    let mut k = FnKernel::new(intensity(), |_r: Range| {});
                    let rep = rt.offload(&r, &mut k).run().unwrap();
                    let d2h = |dev: u32| -> Vec<u64> {
                        let d2h = rep.trace.events().iter().filter(|e| e.kind == OpKind::D2H);
                        d2h.filter(|e| e.device == dev).map(|e| e.amount).collect()
                    };
                    ((0..4).map(d2h).collect::<Vec<_>>(), rep.counts, streamed)
                };
                let (without, counts, streamed) = run(0);
                let (with, counts_with, _) = run(8);
                let label = format!("{alg}, n = {n}, in a data region: {in_region}");
                assert_eq!(counts, counts_with, "{label}: the copy-back moves no row");
                for dev in 0..4 {
                    let ran = counts[dev] > 0;
                    let mapped = if in_region && !streamed { 0 } else { counts[dev] * 8 };
                    assert_eq!(without[dev].iter().sum::<u64>(), mapped, "{label}: device {dev}");
                    assert_eq!(without[dev].is_empty(), mapped == 0, "{label}: device {dev}");
                    let sum: u64 = with[dev].iter().sum();
                    assert_eq!(sum, mapped + 8 * u64::from(ran), "{label}: device {dev}");
                    let ops = (without[dev].len(), with[dev].len());
                    assert!(
                        ops.1 <= ops.0 + 1,
                        "{label}: device {dev} issues one D2H for the partial"
                    );
                }
            }
        }
    }
}
