//! Pipeline overlap experiment: Jacobi-style sweep → residual chains at
//! depth {2, 4, 8} under both chunking policies, plus the stencil → sum
//! pair, each measured overlapped (`nowait`) and against the all-barrier
//! baseline run of the *same* stages.
//!
//! ```text
//! cargo run --release -p homp-bench --bin pipeline -- [--seed N]
//! ```
//!
//! Emits a JSON report on stdout that is a pure function of the seed:
//! the determinism CI job diffs `--seed 42` against the checked-in
//! golden `results/golden/pipeline_seed42.json`.

use homp_core::{
    Algorithm, ChunkingPolicy, FnPipelineKernel, OffloadRegion, Pipeline, PipelineReport, Runtime,
};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::Machine;

const N: u64 = 400_000;

/// Jacobi five-point-ish update cost (Table IV ballpark).
fn sweep_intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 13.0,
        mem_elems_per_iter: 6.0,
        data_elems_per_iter: 2.0,
        elem_bytes: 8.0,
    }
}

/// Residual reduction cost.
fn resid_intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 5.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 2.0,
        elem_bytes: 8.0,
    }
}

fn align() -> DistPolicy {
    DistPolicy::Align { target: "loop".into(), ratio: 1 }
}

/// Stage `i` of a sweep/residual chain: reads `g{i}`, writes `g{i+1}`
/// (the Jacobi ping-pong unrolled, one region per half-sweep).
fn chain_stage(i: usize, devices: &[u32]) -> OffloadRegion {
    let kind = if i.is_multiple_of(2) { "sweep" } else { "resid" };
    OffloadRegion::builder(format!("{kind}{}", i / 2))
        .trip_count(N)
        .devices(devices.to_vec())
        .algorithm(Algorithm::Block)
        .map_1d(format!("g{i}"), MapDir::To, N, 8, align())
        .map_1d(format!("g{}", i + 1), MapDir::ToFrom, N, 8, align())
        .build()
}

fn chain(depth: usize, devices: &[u32], nowait: bool, chunking: ChunkingPolicy) -> Pipeline {
    let mut b = Pipeline::builder("jacobi-chain").chunking(chunking);
    for i in 0..depth {
        b = b.then(chain_stage(i, devices));
        if nowait && i + 1 < depth {
            b = b.nowait();
        }
    }
    b.build()
}

fn chain_intensities(depth: usize) -> Vec<KernelIntensity> {
    (0..depth)
        .map(|i| if i.is_multiple_of(2) { sweep_intensity() } else { resid_intensity() })
        .collect()
}

fn run_pipeline(pipe: &Pipeline, intensities: Vec<KernelIntensity>, seed: u64) -> PipelineReport {
    let mut rt = Runtime::new(Machine::four_k40(), seed);
    let mut kernel = FnPipelineKernel::new(intensities, |_s, _r| {});
    rt.offload_pipeline(pipe, &mut kernel).expect("pipeline runs")
}

/// The stencil → sum pair from `examples/pipeline.rs`.
fn stencil_sum(devices: &[u32], nowait: bool) -> Pipeline {
    let mut stencil = OffloadRegion::builder("stencil")
        .trip_count(N)
        .devices(devices.to_vec())
        .algorithm(Algorithm::Block)
        .map_1d("grid", MapDir::To, N, 8, align())
        .map_1d("smooth", MapDir::ToFrom, N, 8, align())
        .build();
    stencil.nowait = nowait;
    stencil.arrays[0].halo = vec![Some(1)];
    let sum = OffloadRegion::builder("sum")
        .trip_count(N)
        .devices(devices.to_vec())
        .algorithm(Algorithm::Block)
        .map_1d("smooth", MapDir::To, N, 8, align())
        .map_1d("partial", MapDir::From, N, 8, align())
        .build();
    Pipeline::builder("stencil-sum")
        .then(stencil)
        .then(sum)
        .chunking(ChunkingPolicy::PerDevice)
        .build()
}

fn main() {
    homp_bench::experiment("pipeline", run);
}

fn run() {
    let mut seed: u64 = 42;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("pipeline: --seed needs an integer");
                    std::process::exit(2)
                });
            }
            other => {
                eprintln!("pipeline: unknown flag {other:?}");
                std::process::exit(2)
            }
        }
    }

    let devices: Vec<u32> = vec![0, 1, 2, 3];

    println!("{{");
    println!("  \"experiment\": \"pipeline\",");
    println!("  \"seed\": {seed},");
    println!("  \"machine\": \"four-k40\",");
    println!("  \"n\": {N},");
    println!("  \"jacobi_chain\": [");
    let mut cells = 0u64;
    let depths = [2usize, 4, 8];
    let policies = [
        ("per-device", ChunkingPolicy::PerDevice),
        ("4-per-device", ChunkingPolicy::PerDeviceChunks(4)),
    ];
    for (di, &depth) in depths.iter().enumerate() {
        let barrier = run_pipeline(
            &chain(depth, &devices, false, ChunkingPolicy::PerDevice),
            chain_intensities(depth),
            seed,
        );
        for (pi, &(label, chunking)) in policies.iter().enumerate() {
            let over = run_pipeline(
                &chain(depth, &devices, true, chunking),
                chain_intensities(depth),
                seed,
            );
            cells += 2;
            let speedup = barrier.makespan.as_secs() / over.makespan.as_secs();
            // Acceptance: the coarse-chunked overlapped pipeline beats
            // the barrier baseline at depth >= 4.
            if depth >= 4 && chunking == ChunkingPolicy::PerDevice {
                assert!(
                    speedup > 1.0,
                    "depth {depth}: overlapped {:.6e}s !< barrier {:.6e}s",
                    over.makespan.as_secs(),
                    barrier.makespan.as_secs()
                );
            }
            let last = di + 1 == depths.len() && pi + 1 == policies.len();
            println!("    {{");
            println!("      \"depth\": {depth},");
            println!("      \"chunking\": \"{label}\",");
            println!("      \"barrier_ms\": {:.6},", barrier.makespan.as_millis());
            println!("      \"overlapped_ms\": {:.6},", over.makespan.as_millis());
            println!("      \"barrier_sum_ms\": {:.6},", over.barrier_sum.as_millis());
            println!("      \"overlap_ms\": {:.6},", over.overlap().as_millis());
            println!("      \"boundary_idle_ms\": {:.6},", over.boundary_idle.as_millis());
            println!("      \"speedup\": {:.6}", speedup);
            println!("    }}{}", if last { "" } else { "," });
        }
    }
    println!("  ],");

    let barrier = run_pipeline(
        &stencil_sum(&devices, false),
        vec![sweep_intensity(), resid_intensity()],
        seed,
    );
    let over = run_pipeline(
        &stencil_sum(&devices, true),
        vec![sweep_intensity(), resid_intensity()],
        seed,
    );
    cells += 2;
    assert!(
        over.makespan.as_secs() < barrier.makespan.as_secs(),
        "stencil-sum: overlapped must beat the barrier baseline"
    );
    homp_bench::count_cells(cells);
    println!("  \"stencil_sum\": {{");
    println!("    \"barrier_ms\": {:.6},", barrier.makespan.as_millis());
    println!("    \"overlapped_ms\": {:.6},", over.makespan.as_millis());
    println!("    \"overlap_ms\": {:.6},", over.overlap().as_millis());
    println!("    \"boundary_idle_ms\": {:.6},", over.boundary_idle.as_millis());
    println!("    \"speedup\": {:.6}", barrier.makespan.as_secs() / over.makespan.as_secs());
    println!("  }}");
    println!("}}");
}
