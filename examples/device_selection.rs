//! Device selection with CUTOFF: how the runtime decides which devices
//! are worth offloading to, per kernel class (Section IV-E).
//!
//! ```text
//! cargo run --release --example device_selection
//! ```

use homp::model::cutoff::default_ratio;
use homp::prelude::*;

fn main() {
    let machine = Machine::full_node();
    let ratio = default_ratio(machine.len());
    println!(
        "machine: {} ({} devices) — CUTOFF ratio = 100/{} = {:.1}%\n",
        machine.name,
        machine.len(),
        machine.len(),
        ratio * 100.0
    );

    for spec in KernelSpec::paper_suite() {
        let mut rt = Runtime::new(machine.clone(), 23);
        let region = spec.region((0..7).collect(), Algorithm::Model2 { cutoff: Some(ratio) });
        let mut phantom = PhantomKernel::new(spec.intensity());
        let report = rt.offload(&region, &mut phantom).run().expect("offload");

        let kept: Vec<String> =
            report.kept_devices.iter().map(|&d| machine.devices[d as usize].name.clone()).collect();
        let class = homp::model::heuristics::classify(
            &spec.intensity(),
            &homp::model::heuristics::ClassThresholds::default(),
        );
        println!("{:<16} [{class}]", spec.label());
        println!(
            "  time {:>10.3} ms | kept {}/{}: {}",
            report.time_ms(),
            kept.len(),
            7,
            kept.join(", ")
        );
        let shares: Vec<String> = report
            .counts
            .iter()
            .map(|&c| format!("{:.1}%", c as f64 / spec.trip_count() as f64 * 100.0))
            .collect();
        println!("  shares: {}\n", shares.join(" "));
    }

    println!("(data-intensive kernels concentrate on the host — no PCIe to pay;");
    println!(" compute-intensive kernels keep the GPUs; MICs fall below the ratio)");
}
