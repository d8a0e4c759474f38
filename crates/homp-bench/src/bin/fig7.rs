//! Figure 7 — strong-scaling speedup using 1→4 K40 GPUs.
//!
//! For each kernel, the speedup of the best policy on k GPUs over the
//! single-GPU time. The paper reports near-linear scaling for the
//! compute-intensive kernels and sublinear scaling for the
//! data-intensive ones (the PCIe links saturate).

use homp_bench::{experiment, jobs, par_map, try_run_one, write_artifact, SEED};
use homp_core::Algorithm;
use homp_kernels::KernelSpec;
use homp_sim::Machine;
use std::fmt::Write as _;

fn main() {
    experiment("fig7", run);
}

fn run() {
    let specs = KernelSpec::paper_suite();
    let algorithms = Algorithm::paper_suite();

    // Best time per kernel per GPU count, skipping plans that cannot
    // fit device memory (matvec-48k's matrix exceeds one K40; chunked
    // algorithms stream it). Each (GPU count, kernel) point is an
    // independent task; results land by index, so the fan-out cannot
    // reorder them.
    let machines: Vec<Machine> = (1..=4).map(Machine::k40s).collect();
    let tasks: Vec<(usize, usize)> =
        (0..machines.len()).flat_map(|mi| (0..specs.len()).map(move |si| (mi, si))).collect();
    let times = par_map(&tasks, jobs(), |_i, &(mi, si)| {
        let spec = specs[si];
        let t = algorithms
            .iter()
            .filter_map(|&alg| try_run_one(&machines[mi], spec, alg, SEED))
            .map(|c| c.ms())
            .fold(f64::INFINITY, f64::min);
        assert!(t.is_finite(), "no algorithm fits {} on {} GPU(s)", spec.label(), mi + 1);
        t
    });
    let mut best: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    for (&(_mi, si), t) in tasks.iter().zip(times) {
        best[si].push(t);
    }

    println!("== Fig. 7: speedup over 1 GPU (best policy per point) ==");
    println!("{:<16} {:>8} {:>8} {:>8} {:>8}", "kernel", "1 GPU", "2 GPUs", "3 GPUs", "4 GPUs");
    let mut csv = String::from("kernel,gpus,best_ms,speedup\n");
    for (si, spec) in specs.iter().enumerate() {
        let base = best[si][0];
        let speedups: Vec<f64> = best[si].iter().map(|t| base / t).collect();
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            spec.label(),
            speedups[0],
            speedups[1],
            speedups[2],
            speedups[3]
        );
        for (k, (t, s)) in best[si].iter().zip(&speedups).enumerate() {
            let _ = writeln!(csv, "{},{},{:.6},{:.4}", spec.label(), k + 1, t, s);
        }
    }

    println!("\n(compute-intensive kernels should approach 4x; data-intensive stay sublinear)");
    write_artifact("fig7.csv", &csv);
}
