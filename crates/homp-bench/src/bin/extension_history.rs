//! Extension experiment: history-based prediction (Qilin \[21\], listed
//! by the paper as future work on "improving prediction models").
//!
//! Repeated offloads of the same kernel — a common pattern in iterative
//! applications — let the runtime learn each device's true throughput.
//! This binary shows the convergence: offload k's time under
//! `.history(&mut db)`, against the static MODEL_1 / MODEL_2 baselines.

use homp_bench::{experiment, jobs, par_map, write_artifact, SEED};
use homp_core::history::HistoryDb;
use homp_core::{Algorithm, OffloadReport, Runtime};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_sim::Machine;
use std::fmt::Write as _;

fn main() {
    experiment("extension_history", run);
}

fn run() {
    let machine = Machine::full_node();
    let specs =
        [KernelSpec::Axpy(10_000_000), KernelSpec::MatMul(6_144), KernelSpec::Sum(300_000_000)];

    // The learned-offload sequence of a kernel is inherently serial (each
    // offload feeds the next one's history), so parallelism is across
    // kernels: one task per spec, printed in order afterwards.
    let results: Vec<(f64, f64, Vec<OffloadReport>)> = par_map(&specs, jobs(), |_i, &spec| {
        let baseline = |alg: Algorithm| {
            let mut rt = Runtime::new(machine.clone(), SEED);
            let region = spec.region((0..7).collect(), alg);
            let mut k = PhantomKernel::new(spec.intensity());
            rt.offload(&region, &mut k).run().unwrap().time_ms()
        };
        let m1 = baseline(Algorithm::Model1 { cutoff: None });
        let m2 = baseline(Algorithm::Model2 { cutoff: None });

        let mut rt = Runtime::new(machine.clone(), SEED);
        let mut db = HistoryDb::new();
        let region = spec.region((0..7).collect(), Algorithm::Model1 { cutoff: None });
        let reps = (0..6)
            .map(|_| {
                let mut k = PhantomKernel::new(spec.intensity());
                rt.offload(&region, &mut k).history(&mut db).run().unwrap()
            })
            .collect();
        (m1, m2, reps)
    });
    homp_bench::count_cells(8 * specs.len() as u64); // 2 baselines + 6 learned offloads each

    let mut csv = String::from("kernel,offload_index,learned_ms,model1_ms,model2_ms\n");
    for (spec, (m1, m2, reps)) in specs.into_iter().zip(results) {
        println!("== {} : learned offloads vs static models ==", spec.label());
        println!("  MODEL_1 baseline: {m1:>10.3} ms   MODEL_2 baseline: {m2:>10.3} ms");
        for (i, rep) in reps.iter().enumerate() {
            println!(
                "  offload {i}: {:>10.3} ms  ({} devices used)",
                rep.time_ms(),
                rep.counts.iter().filter(|&&c| c > 0).count()
            );
            let _ =
                writeln!(csv, "{},{},{:.6},{:.6},{:.6}", spec.label(), i, rep.time_ms(), m1, m2);
        }
        println!();
    }
    println!("(offload 0 runs MODEL_1 cold; from offload 1 on, measured throughput");
    println!(" drives the split and should approach or beat MODEL_2)");
    write_artifact("extension_history.csv", &csv);
}
