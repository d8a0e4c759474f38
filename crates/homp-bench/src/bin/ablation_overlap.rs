//! Ablation: DMA/compute overlap.
//!
//! DESIGN.md design decision 2: dynamic chunking's advantage on
//! data-intensive kernels comes from pipelining chunk transfers with
//! computation. Turning overlap off (one half-duplex DMA engine,
//! serialized with compute) should erase SCHED_DYNAMIC's edge over
//! BLOCK on axpy while leaving compute-bound kernels mostly unchanged.

use homp_bench::{experiment, jobs, par_map, write_artifact, SEED};
use homp_core::{Algorithm, RuntimeConfig};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_sim::Machine;
use std::fmt::Write as _;

fn run_point(spec: KernelSpec, alg: Algorithm, overlap: bool) -> f64 {
    let mut rt = RuntimeConfig::new().seed(SEED).overlap(overlap).build(Machine::four_k40());
    let region = spec.region(vec![0, 1, 2, 3], alg);
    let mut k = PhantomKernel::new(spec.intensity());
    rt.offload(&region, &mut k).run().unwrap().time_ms()
}

fn main() {
    experiment("ablation_overlap", run);
}

fn run() {
    println!("== Ablation: transfer/compute overlap (4x K40) ==");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "kernel", "BLOCK ovl", "DYN ovl", "BLOCK novl", "DYN novl", "DYN gain ovl"
    );
    let mut csv =
        String::from("kernel,block_overlap_ms,dyn_overlap_ms,block_serial_ms,dyn_serial_ms\n");
    let dynamic = Algorithm::Dynamic { chunk_pct: 2.0 };
    let tasks: Vec<(KernelSpec, Algorithm, bool)> = KernelSpec::paper_suite()
        .into_iter()
        .flat_map(|spec| {
            [
                (spec, Algorithm::Block, true),
                (spec, dynamic, true),
                (spec, Algorithm::Block, false),
                (spec, dynamic, false),
            ]
        })
        .collect();
    let times = par_map(&tasks, jobs(), |_i, &(spec, alg, overlap)| run_point(spec, alg, overlap));
    homp_bench::count_cells(tasks.len() as u64);
    for (spec, quad) in KernelSpec::paper_suite().into_iter().zip(times.chunks_exact(4)) {
        let (b_ovl, d_ovl, b_ser, d_ser) = (quad[0], quad[1], quad[2], quad[3]);
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>13.2}%",
            spec.label(),
            b_ovl,
            d_ovl,
            b_ser,
            d_ser,
            (b_ovl - d_ovl) / b_ovl * 100.0
        );
        let _ =
            writeln!(csv, "{},{:.6},{:.6},{:.6},{:.6}", spec.label(), b_ovl, d_ovl, b_ser, d_ser);
    }
    println!("\n(without overlap, SCHED_DYNAMIC loses its advantage and pays pure");
    println!(" per-chunk overhead — the Table II 'High overhead / Multiple stages' row)");
    write_artifact("ablation_overlap.csv", &csv);
}
