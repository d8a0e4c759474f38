//! §VI-D heuristics validation — does the algorithm-selection rule pick
//! the empirically best (or near-best) policy?
//!
//! For every kernel on every evaluation machine, run all seven
//! algorithms, then compare the heuristic's choice against the
//! empirical winner. The paper's rules: compute-intensive → BLOCK
//! (identical devices) / MODEL_1 (heterogeneous); balanced →
//! SCHED_DYNAMIC; data-intensive → MODEL_2.

use homp_bench::{experiment, run_grid, write_artifact, SEED};
use homp_core::{Algorithm, Runtime};
use homp_kernels::KernelSpec;
use homp_sim::Machine;
use std::fmt::Write as _;

fn main() {
    experiment("heuristics", run);
}

fn run() {
    let machines = [Machine::four_k40(), Machine::two_cpus_two_mics(), Machine::full_node()];
    let specs = KernelSpec::paper_suite();
    let algorithms = Algorithm::paper_suite();

    let mut csv = String::from(
        "machine,kernel,heuristic_choice,empirical_best,heuristic_ms,best_ms,slowdown\n",
    );
    println!("== Heuristic selection vs empirical best ==");
    let mut slowdowns = Vec::new();

    for machine in &machines {
        let grid = run_grid(machine, &specs, &algorithms, SEED);
        let rt = Runtime::new(machine.clone(), SEED);
        let devices: Vec<u32> = (0..machine.len() as u32).collect();
        println!("\n-- machine: {} --", machine.name);
        for (spec, row) in specs.iter().zip(&grid) {
            let chosen =
                rt.resolve_auto(Algorithm::Auto { cutoff: None }, &spec.intensity(), &devices);
            let chosen_label = chosen.to_string();
            let chosen_cell = row
                .iter()
                .find(|c| c.algorithm == chosen_label)
                .expect("chosen algorithm is in the suite");
            let best = homp_bench::best_cell(row);
            let slowdown = chosen_cell.ms() / best.ms();
            slowdowns.push(slowdown);
            println!(
                "  {:<16} heuristic {:<24} {:>10.3} ms | best {:<24} {:>10.3} ms | {:.2}x",
                spec.label(),
                chosen_label,
                chosen_cell.ms(),
                best.algorithm,
                best.ms(),
                slowdown
            );
            let _ = writeln!(
                csv,
                "{},{},{},{},{:.6},{:.6},{:.4}",
                machine.name,
                spec.label(),
                chosen_label,
                best.algorithm,
                chosen_cell.ms(),
                best.ms(),
                slowdown
            );
        }
    }

    let mean = homp_bench::geomean(&slowdowns);
    println!("\ngeomean slowdown of heuristic choice vs oracle best: {mean:.3}x");
    write_artifact("heuristics.csv", &csv);
}
