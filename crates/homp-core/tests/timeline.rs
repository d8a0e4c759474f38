//! One timeline: a halo exchange, a region close, a `target update` and
//! an overlapped pipeline queue their ops on the calendars as they
//! stand, from `Runtime::now`, so work dispatched `.at(t)` after them
//! waits for them and for everything before them. Only a plain `.run()`
//! and `reset_with_seed` rewind the engine.
//!
//! Every test runs BLOCK axpy (N = 1,000,000, `x` `to` and `y`
//! `tofrom`, both aligned) on four K40s at seed 42 and checks each
//! offload's trace with `assert_schedule_valid` against a window that
//! opens at the first offload's end.

use homp_core::testing::{assert_schedule_valid, CoverageKernel};
use homp_core::{
    Algorithm, Distribution, OffloadRegion, OffloadReport, Pipeline, PipelineKernel, Range, Runtime,
};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{Machine, SimTime};

const N: u64 = 1_000_000;

fn aligned() -> DistPolicy {
    DistPolicy::Align { target: "loop".into(), ratio: 1 }
}

fn axpy() -> OffloadRegion {
    OffloadRegion::builder("axpy")
        .trip_count(N)
        .devices(vec![0, 1, 2, 3])
        .algorithm(Algorithm::Block)
        .map_1d("x", MapDir::To, N, 8, aligned())
        .map_1d("y", MapDir::ToFrom, N, 8, aligned())
        .build()
}

/// The axpy offload dispatched `.at(at)`, every iteration run once.
fn offload_at(rt: &mut Runtime, at: SimTime) -> OffloadReport {
    let mut k = CoverageKernel::new(N);
    let report = rt.offload(&axpy(), &mut k).at(at).run().unwrap();
    k.assert_exactly_once("axpy");
    report
}

/// Run `call` between two axpy offloads dispatched `.at(SimTime::ZERO)`,
/// opening a `target data` region over the axpy maps first when
/// `in_region`. The call must leave `Runtime::now` no earlier than the
/// first offload's end, and the second offload must start no op before
/// it.
fn between_two_offloads(name: &str, in_region: bool, call: impl FnOnce(&mut Runtime)) {
    let machine = Machine::four_k40();
    let mut rt = Runtime::new(machine.clone(), 42);
    if in_region {
        rt.data_region_begin(&axpy());
    }
    let first = offload_at(&mut rt, SimTime::ZERO);
    assert_schedule_valid(&first.trace, SimTime::ZERO, first.completed_at, &machine, name);
    assert_eq!(rt.now(), first.completed_at, "{name}: a host thread resumes at the barrier");
    call(&mut rt);
    assert!(rt.now() >= first.completed_at, "{name}: the call rewound the timeline");
    let second = offload_at(&mut rt, SimTime::ZERO);
    let label = format!("the offload after {name}");
    assert_schedule_valid(&second.trace, first.completed_at, second.completed_at, &machine, &label);
}

#[test]
fn an_offload_after_a_halo_exchange_queues_behind_it() {
    between_two_offloads("exchange_halo", false, |rt| {
        let before = rt.now();
        let span = rt.exchange_halo(&[0, 1, 2, 3], &Distribution::block(N, 4), 1, 8).unwrap();
        assert!(span.as_secs() > 0.0);
        assert!(rt.now() > before, "the exchange moves rows after the offload");
    });
}

#[test]
fn an_offload_after_a_region_close_queues_behind_it() {
    between_two_offloads("data_region_end", true, |rt| {
        let close = rt.data_region_end().unwrap();
        assert_eq!(close.flushed_bytes, N * 8, "the close flushes y");
    });
}

#[test]
fn an_offload_after_a_target_update_queues_behind_it() {
    between_two_offloads("target_update", true, |rt| {
        let moved = rt.target_update(&["x"], &["y"]).unwrap();
        assert_eq!((moved.h2d_bytes, moved.d2h_bytes), (N * 8, N * 8));
    });
}

/// Two-stage `nowait` chain over the axpy devices: stage 0 writes `a1`,
/// stage 1 reads it with a one-row halo.
struct Chain {
    hits: Vec<Vec<u32>>,
}

impl PipelineKernel for Chain {
    fn intensity(&self, _stage: usize) -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 2.0,
            elem_bytes: 8.0,
        }
    }

    fn execute(&mut self, stage: usize, range: Range) {
        for i in range.start..range.end {
            self.hits[stage][i as usize] += 1;
        }
    }
}

#[test]
fn an_overlapped_pipeline_queues_behind_an_offload_at_t() {
    let machine = Machine::four_k40();
    let mut rt = Runtime::new(machine.clone(), 42);
    let first = offload_at(&mut rt, SimTime::from_secs(1e-4));
    let stage = |i: usize| {
        let mut r = OffloadRegion::builder(format!("stage{i}"))
            .trip_count(N)
            .devices(vec![0, 1, 2, 3])
            .map_1d(format!("a{i}"), MapDir::To, N, 8, aligned())
            .map_1d(format!("a{}", i + 1), MapDir::ToFrom, N, 8, aligned())
            .build();
        r.arrays[0].halo = vec![Some(1)];
        r
    };
    let pipe = Pipeline::builder("chain").then(stage(0)).nowait().then(stage(1)).build();
    let mut k = Chain { hits: vec![vec![0; N as usize]; 2] };
    let rep = rt.offload_pipeline(&pipe, &mut k).unwrap();
    assert!(rep.overlapped);
    assert!(k.hits.iter().flatten().all(|&h| h == 1), "every stage runs each iteration once");
    let label = "a pipeline after an offload at t";
    assert_schedule_valid(&rep.trace, first.completed_at, rep.completed_at, &machine, label);
    assert_eq!(rt.now(), rep.completed_at, "{label}");
}

/// A plain `.run()` still rewinds: after an offload, a halo exchange, a
/// `target update` and a region close, it reports exactly what it
/// reports on a fresh runtime.
#[test]
fn a_plain_run_still_rewinds_the_engine() {
    let plain = |rt: &mut Runtime| {
        let mut k = CoverageKernel::new(N);
        let report = rt.offload(&axpy(), &mut k).run().unwrap();
        (report.trace.to_csv(), report.makespan, report.completed_at)
    };
    let mut rt = Runtime::new(Machine::four_k40(), 42);
    rt.data_region_begin(&axpy());
    offload_at(&mut rt, SimTime::ZERO);
    rt.exchange_halo(&[0, 1, 2, 3], &Distribution::block(N, 4), 1, 8).unwrap();
    rt.target_update(&["x"], &["y"]).unwrap();
    rt.data_region_end().unwrap();
    let after = plain(&mut rt);
    assert_eq!(after, plain(&mut Runtime::new(Machine::four_k40(), 42)));
    assert_eq!(rt.now(), after.2);
}
