//! Ablation: CUTOFF ratio sweep (0%–40%).
//!
//! Section IV-E picks the ratio as the all-equal average contribution
//! (100/7 ≈ 15% on the full node). Sweeping it shows the trade-off: too
//! low keeps useless devices, too high throws away real capacity.

use homp_bench::{experiment, jobs, par_map, write_artifact, SEED};
use homp_core::{Algorithm, Runtime};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_sim::Machine;
use std::fmt::Write as _;

fn main() {
    experiment("ablation_cutoff", run);
}

fn run() {
    let machine = Machine::full_node();
    let specs =
        [KernelSpec::Axpy(10_000_000), KernelSpec::MatMul(6_144), KernelSpec::Sum(300_000_000)];
    let ratios = [0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40];

    // Sweep points in print order; each one is an independent task.
    let mut tasks: Vec<(KernelSpec, Algorithm, f64)> = Vec::new();
    for spec in specs {
        for base in [Algorithm::Model1 { cutoff: None }, Algorithm::Model2 { cutoff: None }] {
            for r in ratios {
                tasks.push((spec, base, r));
            }
        }
    }
    let reps = par_map(&tasks, jobs(), |_i, &(spec, base, r)| {
        let alg = if r == 0.0 { base } else { base.with_cutoff(r) };
        let mut rt = Runtime::new(machine.clone(), SEED);
        let region = spec.region((0..7).collect(), alg);
        let mut k = PhantomKernel::new(spec.intensity());
        rt.offload(&region, &mut k).run().unwrap()
    });
    homp_bench::count_cells(tasks.len() as u64);

    let mut csv = String::from("kernel,algorithm,ratio,time_ms,devices_kept\n");
    for (&(spec, base, r), rep) in tasks.iter().zip(&reps) {
        if r == ratios[0] {
            println!("== CUTOFF sweep: {} under {} ==", spec.label(), base);
            println!("{:>7} {:>12} {:>14}", "ratio%", "time (ms)", "devices kept");
        }
        println!("{:>7.0} {:>12.3} {:>14}", r * 100.0, rep.time_ms(), rep.kept_devices.len());
        let _ = writeln!(
            csv,
            "{},{},{},{:.6},{}",
            spec.label(),
            base,
            r,
            rep.time_ms(),
            rep.kept_devices.len()
        );
        if r == ratios[ratios.len() - 1] {
            println!();
        }
    }
    write_artifact("ablation_cutoff.csv", &csv);
}
