//! Ablation: datasheet vs microbenchmark-profiled model constants.
//!
//! The paper's models take machine constants from the machine
//! description ("use peak performance as guideline"), so predictions
//! systematically overestimate devices whose sustained fraction is low —
//! that misprediction is what CUTOFF corrects. Feeding the models
//! *profiled* constants instead (our `RuntimeConfig::profiled_params`)
//! removes most of the error, shrinking both the model-vs-best gap and
//! CUTOFF's benefit.

use homp_bench::{experiment, jobs, par_map, write_artifact, SEED};
use homp_core::{Algorithm, Runtime, RuntimeConfig};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_sim::Machine;
use std::fmt::Write as _;

fn run_point(rt: &mut Runtime, spec: KernelSpec, alg: Algorithm) -> f64 {
    let region = spec.region((0..rt.machine().len() as u32).collect(), alg);
    let mut k = PhantomKernel::new(spec.intensity());
    rt.offload(&region, &mut k).run().unwrap().time_ms()
}

fn main() {
    experiment("ablation_constants", run);
}

fn run() {
    let machine = Machine::full_node();
    println!("== Ablation: model constants — datasheet vs profiled (full node) ==");
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>12} {:>12}",
        "kernel", "algorithm", "datasheet", "+cutoff15", "profiled", "+cutoff15"
    );
    let mut csv = String::from(
        "kernel,algorithm,datasheet_ms,datasheet_cutoff_ms,profiled_ms,profiled_cutoff_ms\n",
    );
    let tasks: Vec<(KernelSpec, Algorithm)> = KernelSpec::paper_suite()
        .into_iter()
        .flat_map(|spec| {
            [Algorithm::Model1 { cutoff: None }, Algorithm::Model2 { cutoff: None }]
                .map(|base| (spec, base))
        })
        .collect();
    let rows = par_map(&tasks, jobs(), |_i, &(spec, base)| {
        let mut ds = Runtime::new(machine.clone(), SEED);
        let mut pf = RuntimeConfig::new().seed(SEED).profiled_params().build(machine.clone());
        let a = run_point(&mut ds, spec, base);
        let b = run_point(&mut ds, spec, base.with_cutoff(0.15));
        let c = run_point(&mut pf, spec, base);
        let d = run_point(&mut pf, spec, base.with_cutoff(0.15));
        (a, b, c, d)
    });
    homp_bench::count_cells(4 * tasks.len() as u64);
    for (&(spec, base), &(a, b, c, d)) in tasks.iter().zip(&rows) {
        let name = match base {
            Algorithm::Model1 { .. } => "MODEL_1",
            _ => "MODEL_2",
        };
        println!(
            "{:<16} {:<14} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            spec.label(),
            name,
            a,
            b,
            c,
            d
        );
        let _ = writeln!(csv, "{},{},{:.6},{:.6},{:.6},{:.6}", spec.label(), name, a, b, c, d);
    }
    println!("\n(profiled constants should make the no-cutoff column competitive,");
    println!(" demonstrating that CUTOFF compensates for prediction error)");
    write_artifact("ablation_constants.csv", &csv);
}
