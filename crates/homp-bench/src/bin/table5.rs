//! Table V — speedup from the CUTOFF device-selection heuristic on the
//! full node (15% ratio = the all-equal average over 7 devices).
//!
//! For each kernel: among the CUTOFF-capable algorithms (MODEL_1/2 and
//! the two profiling schemes), find the one with the best time *with*
//! CUTOFF, and report its speedup against the same algorithm *without*
//! CUTOFF, plus the surviving device set. The paper reports speedups of
//! 0.56–3.43× — including one regression, matvec-48k, where CUTOFF
//! dropped devices that were actually contributing.

use homp_bench::{experiment, run_grid, write_artifact, Cell, SEED};
use homp_core::Algorithm;
use homp_kernels::KernelSpec;
use homp_sim::{DeviceType, Machine};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn describe_devices(machine: &Machine, kept: &[u32]) -> String {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for &d in kept {
        let t = match machine.devices[d as usize].dev_type {
            DeviceType::HostCpu => "CPU",
            DeviceType::NvGpu => "GPU",
            DeviceType::IntelMic => "MIC",
        };
        *counts.entry(t).or_default() += 1;
    }
    counts
        .iter()
        .map(|(t, c)| format!("{c} {t}{}", if *c > 1 { "s" } else { "" }))
        .collect::<Vec<_>>()
        .join(" + ")
}

fn cutoff_capable() -> Vec<Algorithm> {
    Algorithm::paper_suite().into_iter().filter(|a| a.supports_cutoff()).collect()
}

fn main() {
    experiment("table5", run);
}

fn run() {
    let machine = Machine::full_node();
    let specs = KernelSpec::paper_suite();

    let plain = run_grid(&machine, &specs, &cutoff_capable(), SEED);
    let with_cut = run_grid(
        &machine,
        &specs,
        &cutoff_capable().into_iter().map(|a| a.with_cutoff(0.15)).collect::<Vec<_>>(),
        SEED,
    );

    println!("== Table V: speedup using CUTOFF (15%) on 2 CPUs + 4 GPUs + 2 MICs ==");
    println!(
        "{:<16} {:>24} {:>16}  (algorithm)",
        "benchmark", "devices after CUTOFF", "CUTOFF speedup"
    );
    let mut csv = String::from("benchmark,devices_after_cutoff,cutoff_speedup,algorithm\n");
    for (row_plain, row_cut) in plain.iter().zip(&with_cut) {
        // Best cutoff run, compared against the *same algorithm* without
        // cutoff — the isolated effect of device selection.
        let (ci, best_cut) = row_cut
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.ms().partial_cmp(&b.1.ms()).unwrap())
            .unwrap();
        let matched: &Cell = &row_plain[ci];
        let speedup = matched.ms() / best_cut.ms();
        let devices = describe_devices(&machine, &best_cut.report.kept_devices);
        println!(
            "{:<16} {:>24} {:>16.2}  ({})",
            matched.kernel, devices, speedup, matched.algorithm
        );
        let _ =
            writeln!(csv, "{},{},{:.4},{}", matched.kernel, devices, speedup, matched.algorithm);
    }
    println!("\n(paper: speedups 0.56-3.43; GPUs-only for matmul/matvec/stencil,");
    println!(" CPU+GPUs for axpy/bm/sum; one regression below 1.0 is expected)");
    write_artifact("table5.csv", &csv);
}
