//! Figure 6 — accumulated breakdown (%) of offloading time on the 4-GPU
//! machine, per kernel and policy, with the load-imbalance curve.
//!
//! The paper reports that "most of the algorithms are able to schedule
//! the loop with less than 5% overhead per device in average as the
//! cost of barrier synchronizations."

use homp_bench::{experiment, run_grid, write_artifact, SEED};
use homp_core::Algorithm;
use homp_kernels::KernelSpec;
use homp_sim::{Machine, Metrics, OpKind};
use std::fmt::Write as _;

fn main() {
    experiment("fig6", run);
}

fn run() {
    let machine = Machine::four_k40();
    let specs = KernelSpec::paper_suite();
    let algorithms = Algorithm::paper_suite();
    let grid = run_grid(&machine, &specs, &algorithms, SEED);

    let mut csv = String::from(
        "kernel,algorithm,init_pct,h2d_pct,kernel_pct,d2h_pct,sync_pct,imbalance_pct\n",
    );
    println!("== Fig. 6: accumulated breakdown (%) of offloading time on 4x K40 ==");
    println!(
        "{:<16} {:<24} {:>7} {:>7} {:>7} {:>7} {:>7} {:>10}",
        "kernel", "algorithm", "INIT", "H2D", "KERNEL", "D2H", "SYNC", "imbalance"
    );

    let mut imbalances = Vec::new();
    for row in &grid {
        for cell in row {
            let m = Metrics::from_trace(&cell.report.trace, machine.len());
            let pct = |s: f64| {
                if m.makespan_s > 0.0 {
                    s / m.makespan_s * 100.0
                } else {
                    0.0
                }
            };
            // Average each category over the participating devices: busy
            // time per kind, and SYNC as the wait from the device's
            // completion to the makespan.
            let devs = &cell.report.kept_devices;
            let mut avg = [0.0f64; 5];
            for &d in devs {
                let dm = &m.devices[d as usize];
                let busy = |k: OpKind| dm.busy_s[k.index()];
                let spans = [
                    busy(OpKind::Init),
                    busy(OpKind::H2D),
                    busy(OpKind::Kernel),
                    busy(OpKind::D2H),
                    m.makespan_s - dm.completion_s,
                ];
                for (a, s) in avg.iter_mut().zip(spans) {
                    *a += pct(s);
                }
            }
            for a in &mut avg {
                *a /= devs.len().max(1) as f64;
            }
            let imb = cell.report.imbalance_pct;
            imbalances.push(imb);
            println!(
                "{:<16} {:<24} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>9.2}%",
                cell.kernel, cell.algorithm, avg[0], avg[1], avg[2], avg[3], avg[4], imb
            );
            let _ = writeln!(
                csv,
                "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
                cell.kernel, cell.algorithm, avg[0], avg[1], avg[2], avg[3], avg[4], imb
            );
            // Consistency: categories are a subset of the makespan.
            debug_assert!(avg.iter().sum::<f64>() <= 100.0 + 1e-6);
        }
    }

    let mean = imbalances.iter().sum::<f64>() / imbalances.len() as f64;
    println!(
        "\naverage load imbalance across all kernels/policies: {mean:.2}% (paper: <5% average)"
    );
    write_artifact("fig6.csv", &csv);
}
