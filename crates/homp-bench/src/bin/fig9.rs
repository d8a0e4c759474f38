//! Figure 9 — offloading execution time (ms) on the full node
//! (2 CPUs + 4 GPUs + 2 MICs) under the extended suite (the paper's
//! seven policies plus WORK_ASSIST), plus the minimum time with a 15%
//! CUTOFF ratio applied.
//!
//! Paper finding: "when computational resources vary significantly in
//! performance, SCHED_DYNAMIC yields decent performance for most
//! kernels", and CUTOFF improves the model/profile algorithms by
//! pruning devices whose contribution is below the all-equal average
//! (100/7 ≈ 15%).

use homp_bench::{
    best_cell, experiment, format_matrix, grid_csv, run_grid, seed_from_args, write_artifact, Cell,
};
use homp_core::Algorithm;
use homp_kernels::KernelSpec;
use homp_sim::Machine;
use std::fmt::Write as _;

fn main() {
    experiment("fig9", run);
}

fn run() {
    let machine = Machine::full_node();
    let specs = KernelSpec::paper_suite();
    let seed = seed_from_args();

    let plain = run_grid(&machine, &specs, &Algorithm::extended_suite(), seed);
    print!(
        "{}",
        format_matrix(
            "Fig. 9: offloading execution time on 2 CPUs + 4 GPUs + 2 MICs",
            &plain,
            Cell::ms,
            "ms"
        )
    );

    let cut = run_grid(&machine, &specs, &Algorithm::extended_suite_with_cutoff(0.15), seed);
    println!("\nminimum execution time with CUTOFF_RATIO(15%):");
    println!(
        "{:<16} {:>14} {:>14} {:>24} {:>18}",
        "kernel", "min (ms)", "min+cutoff", "best cutoff algorithm", "devices kept"
    );
    let mut csv = String::from("kernel,min_ms,min_cutoff_ms,best_cutoff_alg,devices_kept\n");
    for (row_plain, row_cut) in plain.iter().zip(&cut) {
        let b = best_cell(row_plain);
        let bc = best_cell(row_cut);
        println!(
            "{:<16} {:>14.3} {:>14.3} {:>24} {:>18}",
            b.kernel,
            b.ms(),
            bc.ms(),
            bc.algorithm,
            bc.report.kept_devices.len()
        );
        let _ = writeln!(
            csv,
            "{},{:.6},{:.6},{},{}",
            b.kernel,
            b.ms(),
            bc.ms(),
            bc.algorithm,
            bc.report.kept_devices.len()
        );
    }

    write_artifact("fig9.csv", &grid_csv(&plain));
    write_artifact("fig9_cutoff.csv", &csv);
}
