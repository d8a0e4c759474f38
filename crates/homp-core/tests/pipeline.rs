//! Pipeline invariants: the all-barrier degenerate pipeline is
//! byte-identical to back-to-back classic offloads across the whole
//! extended algorithm suite; the overlapped executor beats the barrier
//! baseline on a Jacobi-style chain; and exactly-once / decision-
//! partition accounting survives device dropouts mid-pipeline.

mod common;

use common::assert_decisions_partition;
use homp_core::{
    Algorithm, ChunkingPolicy, FaultConfig, FnKernel, FnPipelineKernel, OffloadRegion, Pipeline,
    PipelineKernel, Range, Runtime, RuntimeConfig,
};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{FaultPlan, Machine};
use proptest::prelude::*;

fn intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 4.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 2.0,
        elem_bytes: 8.0,
    }
}

fn align() -> DistPolicy {
    DistPolicy::Align { target: "loop".into(), ratio: 1 }
}

/// Jacobi sweep: reads `u`, writes `unew`.
fn sweep(n: u64, alg: Algorithm) -> OffloadRegion {
    OffloadRegion::builder("sweep")
        .trip_count(n)
        .devices(vec![0, 1, 2, 3])
        .algorithm(alg)
        .map_1d("u", MapDir::To, n, 8, align())
        .map_1d("unew", MapDir::ToFrom, n, 8, align())
        .build()
}

/// Jacobi residual: reads `unew`, writes `r`.
fn resid(n: u64, alg: Algorithm) -> OffloadRegion {
    OffloadRegion::builder("resid")
        .trip_count(n)
        .devices(vec![0, 1, 2, 3])
        .algorithm(alg)
        .map_1d("unew", MapDir::To, n, 8, align())
        .map_1d("r", MapDir::From, n, 8, align())
        .build()
}

/// Stage `i` of a chain: reads `a{i}`, writes `a{i+1}`.
fn chain_stage(i: usize, n: u64) -> OffloadRegion {
    OffloadRegion::builder(format!("stage{i}"))
        .trip_count(n)
        .devices(vec![0, 1, 2, 3])
        .algorithm(Algorithm::Block)
        .map_1d(format!("a{i}"), MapDir::To, n, 8, align())
        .map_1d(format!("a{}", i + 1), MapDir::ToFrom, n, 8, align())
        .build()
}

fn chain(depth: usize, n: u64, nowait: bool, chunking: ChunkingPolicy) -> Pipeline {
    let mut b = Pipeline::builder("chain").chunking(chunking);
    for i in 0..depth {
        b = b.then(chain_stage(i, n));
        if nowait && i + 1 < depth {
            b = b.nowait();
        }
    }
    b.build()
}

/// A coverage kernel over every stage of a pipeline: counts per-stage,
/// per-iteration hits so faults can't hide double or dropped work.
struct PipeCoverage {
    hits: Vec<Vec<u32>>,
}

impl PipeCoverage {
    fn new(stages: usize, n: u64) -> PipeCoverage {
        PipeCoverage { hits: vec![vec![0; n as usize]; stages] }
    }

    fn assert_exactly_once(&self, label: &str) {
        for (s, stage) in self.hits.iter().enumerate() {
            for (i, &h) in stage.iter().enumerate() {
                assert_eq!(h, 1, "{label}: stage {s} iteration {i} ran {h} times");
            }
        }
    }
}

impl PipelineKernel for PipeCoverage {
    fn intensity(&self, _stage: usize) -> KernelIntensity {
        intensity()
    }

    fn execute(&mut self, stage: usize, range: Range) {
        for i in range.start..range.end {
            self.hits[stage][i as usize] += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The degenerate all-barrier pipeline must be byte-identical —
    /// traces included — to back-to-back classic `offload(…).run()`
    /// calls on a same-seed runtime, for all 8 extended-suite
    /// algorithms.
    #[test]
    fn all_barrier_pipeline_matches_back_to_back_offloads(
        seed in 0u64..1_000_000,
        n in 1_000u64..50_000,
    ) {
        let machine = Machine::four_k40();
        for alg in Algorithm::extended_suite() {
            let pipe = Pipeline::builder("jacobi")
                .then(sweep(n, alg))
                .then(resid(n, alg))
                .build();
            prop_assert!(!pipe.overlapped());
            let mut rt = Runtime::new(machine.clone(), seed);
            let mut pk =
                FnPipelineKernel::new(vec![intensity(), intensity()], |_stage, _r| {});
            let rep = rt.offload_pipeline(&pipe, &mut pk).unwrap();

            let mut classic = Runtime::new(machine.clone(), seed);
            let mut k0 = FnKernel::new(intensity(), |_r: Range| {});
            let r0 = classic.offload(&sweep(n, alg), &mut k0).run().unwrap();
            let mut k1 = FnKernel::new(intensity(), |_r: Range| {});
            let r1 = classic.offload(&resid(n, alg), &mut k1).run().unwrap();

            let label = format!("{alg} seed={seed} n={n}");
            prop_assert_eq!(rep.stages.len(), 2);
            prop_assert_eq!(
                rep.stages[0].trace.to_csv(), r0.trace.to_csv(),
                "{}: sweep trace diverged", &label
            );
            prop_assert_eq!(
                rep.stages[1].trace.to_csv(), r1.trace.to_csv(),
                "{}: resid trace diverged", &label
            );
            prop_assert_eq!(rep.stages[0].makespan, r0.makespan, "{}", &label);
            prop_assert_eq!(rep.stages[1].makespan, r1.makespan, "{}", &label);
            prop_assert_eq!(rep.stages[0].counts.clone(), r0.counts.clone(), "{}", &label);
            prop_assert_eq!(rep.stages[1].counts.clone(), r1.counts.clone(), "{}", &label);
            prop_assert_eq!(rep.stages[0].chunks, r0.chunks, "{}", &label);
            prop_assert_eq!(rep.stages[1].chunks, r1.chunks, "{}", &label);
            prop_assert_eq!(rep.makespan, r0.makespan + r1.makespan, "{}", &label);
            prop_assert_eq!(rep.makespan, rep.barrier_sum, "{}", &label);
        }
    }

    /// Mid-pipeline device dropout: the overlapped executor must
    /// requeue the victim's chunks (device or host), keep every stage's
    /// per-iteration execution exactly-once, and keep each stage's
    /// decision log a partition of the iteration space.
    #[test]
    fn exactly_once_with_a_mid_pipeline_dropout(
        seed in 0u64..1_000_000,
        n in 20_000u64..50_000,
        victim in 0u32..4,
        frac in 0.1f64..0.9,
    ) {
        let machine = Machine::four_k40();
        let pipe = chain(3, n, true, ChunkingPolicy::PerDeviceChunks(4));
        let healthy = {
            let mut rt = Runtime::new(machine.clone(), seed);
            let mut k = PipeCoverage::new(3, n);
            rt.offload_pipeline(&pipe, &mut k).unwrap().makespan.as_secs()
        };
        let plan = FaultPlan::new(seed).with_dropout_at(victim, healthy * frac);
        let config = RuntimeConfig::new().seed(seed).faults(FaultConfig::new(plan));
        let mut rt = config.decision_log(true).build(machine);
        let mut k = PipeCoverage::new(3, n);
        let rep = rt.offload_pipeline(&pipe, &mut k).unwrap();
        let label = format!("seed={seed} n={n} victim={victim} frac={frac:.2}");
        k.assert_exactly_once(&label);
        for (s, stage) in rep.stages.iter().enumerate() {
            assert_decisions_partition(stage, n, &format!("{label} stage={s}"));
        }
    }
}

/// The overlapped executor must actually overlap: on a depth-4 chain
/// the end-to-end makespan beats both its own barrier_sum accounting
/// and a real all-barrier run of the same stages — at every chunking
/// granularity.
#[test]
fn overlapped_chain_beats_barrier_baseline() {
    let n = 40_000u64;
    let depth = 4usize;
    for chunking in [ChunkingPolicy::PerDevice, ChunkingPolicy::PerDeviceChunks(4)] {
        let barrier = {
            let mut rt = Runtime::new(Machine::four_k40(), 42);
            let mut k = PipeCoverage::new(depth, n);
            rt.offload_pipeline(&chain(depth, n, false, chunking), &mut k).unwrap()
        };
        let overlapped = {
            let mut rt = Runtime::new(Machine::four_k40(), 42);
            let mut k = PipeCoverage::new(depth, n);
            let rep = rt.offload_pipeline(&chain(depth, n, true, chunking), &mut k).unwrap();
            k.assert_exactly_once(&format!("{chunking:?}"));
            rep
        };
        assert!(!barrier.overlapped);
        assert!(overlapped.overlapped);
        // At this problem size the fixed launch overhead dominates, so
        // only the coarse chunking also beats the *real* barrier run
        // (finer chunks pay 4x the launches); both must still beat
        // their own serialized accounting.
        if chunking == ChunkingPolicy::PerDevice {
            assert!(
                overlapped.makespan.as_secs() < barrier.makespan.as_secs(),
                "{chunking:?}: overlapped {:.6e}s !< barrier {:.6e}s",
                overlapped.makespan.as_secs(),
                barrier.makespan.as_secs()
            );
        }
        assert!(
            overlapped.makespan.as_secs() < overlapped.barrier_sum.as_secs(),
            "{chunking:?}: no measured overlap"
        );
        assert!(overlapped.overlap().as_secs() > 0.0, "{chunking:?}");
        // Every stage still covers the whole iteration space.
        for stage in &overlapped.stages {
            let done: u64 = stage.counts.iter().sum();
            assert_eq!(done + stage.faults.host_iters, n);
        }
        // The combined trace lives on the pipeline report, not the
        // per-stage reports, in overlapped mode.
        assert!(!overlapped.trace.to_csv().is_empty());
    }
}

/// Jacobi sweep → residual (the ISSUE's acceptance pair): nowait on the
/// sweep lets residual chunks start on resident `unew` slabs, so the
/// two-stage makespan must undercut the classic barrier pair.
#[test]
fn jacobi_sweep_residual_overlaps() {
    let n = 60_000u64;
    let alg = Algorithm::Block;
    let barrier = {
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        let mut pk = FnPipelineKernel::new(vec![intensity(), intensity()], |_s, _r| {});
        let pipe = Pipeline::builder("jacobi")
            .then(sweep(n, alg))
            .then(resid(n, alg))
            .chunking(ChunkingPolicy::PerDevice)
            .build();
        rt.offload_pipeline(&pipe, &mut pk).unwrap()
    };
    let overlapped = {
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        let mut pk = FnPipelineKernel::new(vec![intensity(), intensity()], |_s, _r| {});
        let pipe = Pipeline::builder("jacobi")
            .then(sweep(n, alg))
            .nowait()
            .then(resid(n, alg))
            .chunking(ChunkingPolicy::PerDevice)
            .build();
        rt.offload_pipeline(&pipe, &mut pk).unwrap()
    };
    assert!(
        overlapped.makespan.as_secs() < barrier.makespan.as_secs(),
        "overlapped {:.6e}s !< barrier {:.6e}s",
        overlapped.makespan.as_secs(),
        barrier.makespan.as_secs()
    );
    assert!(overlapped.boundary_idle.as_secs() <= barrier.boundary_idle.as_secs());
}

/// Every device drops before the first chunk lands, so all three stages
/// run on the host. The end barrier must wait for that host work: the
/// pipeline cannot complete before its stages, and its overlap cannot
/// exceed what the stages actually cost.
#[test]
fn host_fallback_time_reaches_the_end_barrier() {
    let n = 8_192u64;
    let plan =
        (0..4).fold(FaultPlan::new(7), |p, d| p.with_dropout_at(d, 20e-6 + 1e-7 * f64::from(d)));
    let mut rt = Runtime::with_fault_config(Machine::four_k40(), 42, FaultConfig::new(plan));
    let mut k = PipeCoverage::new(3, n);
    let rep = rt
        .offload_pipeline(&chain(3, n, true, ChunkingPolicy::PerDeviceChunks(4)), &mut k)
        .unwrap();
    k.assert_exactly_once("all devices dropped");
    let host: u64 = rep.stages.iter().map(|s| s.faults.host_iters).sum();
    assert!(host > 0, "the host must have run something");
    for (s, stage) in rep.stages.iter().enumerate() {
        assert!(
            rep.completed_at >= stage.completed_at,
            "stage {s} completes at {:?}, after the pipeline's {:?}",
            stage.completed_at,
            rep.completed_at
        );
    }
    assert!(rep.makespan.as_secs() > 0.0);
}
