//! The `target data` elision experiment: one Jacobi solve inside a
//! persistent data region vs. the same solve remapping every offload.
//!
//! ```text
//! cargo run --release -p homp-bench --bin data_region -- [--seed N]
//! ```
//!
//! Emits a JSON report on stdout that is a pure function of the seed:
//! the determinism CI job diffs `--seed 42` against the checked-in
//! golden `results/golden/data_region_seed42.json`.

use homp_core::{Algorithm, Runtime};
use homp_kernels::jacobi::Jacobi;
use homp_sim::Machine;

const N: usize = 96;
const M: usize = 96;
const SWEEPS: u64 = 10;

fn main() {
    homp_bench::experiment("data_region", run);
}

fn run() {
    let mut seed: u64 = 42;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("data_region: --seed needs an integer");
                    std::process::exit(2)
                });
            }
            other => {
                eprintln!("data_region: unknown flag {other:?}");
                std::process::exit(2)
            }
        }
    }

    let machine = Machine::full_node();
    let devices: Vec<u32> = (0..machine.len() as u32).collect();

    let mut resident_grid = Jacobi::new(N, M);
    let mut rt = Runtime::new(machine.clone(), seed);
    let resident =
        resident_grid.run_distributed(&mut rt, devices.clone(), Algorithm::Block, SWEEPS, 0.0);
    let stats = *rt.transfer_stats();

    let mut free_grid = Jacobi::new(N, M);
    let mut rt_free = Runtime::new(machine, seed);
    let baseline = free_grid.run_per_offload(&mut rt_free, devices, Algorithm::Block, SWEEPS, 0.0);
    homp_bench::count_cells(2);

    assert_eq!(resident_grid.u, free_grid.u, "region must not change the math");
    assert!(
        baseline.h2d_bytes >= 5 * resident.h2d_bytes,
        "acceptance: >=5x H2D reduction in-region"
    );

    println!("{{");
    println!("  \"experiment\": \"data_region\",");
    println!("  \"seed\": {seed},");
    println!("  \"machine\": \"full-node\",");
    println!("  \"grid\": [{N}, {M}],");
    println!("  \"sweeps\": {SWEEPS},");
    println!("  \"algorithm\": \"BLOCK\",");
    println!("  \"resident\": {{");
    println!("    \"h2d_bytes\": {},", resident.h2d_bytes);
    println!("    \"d2h_bytes\": {},", resident.d2h_bytes);
    println!("    \"flushed_bytes\": {},", resident.flushed_bytes);
    println!("    \"halo_ms\": {:.6},", resident.halo_time.as_millis());
    println!("    \"total_ms\": {:.6}", resident.total_time.as_millis());
    println!("  }},");
    println!("  \"baseline\": {{");
    println!("    \"h2d_bytes\": {},", baseline.h2d_bytes);
    println!("    \"d2h_bytes\": {},", baseline.d2h_bytes);
    println!("    \"halo_ms\": {:.6},", baseline.halo_time.as_millis());
    println!("    \"total_ms\": {:.6}", baseline.total_time.as_millis());
    println!("  }},");
    println!("  \"env_stats\": {{");
    println!("    \"h2d_bytes\": {},", stats.h2d_bytes);
    println!("    \"h2d_elided_bytes\": {},", stats.h2d_elided_bytes);
    println!("    \"d2h_bytes\": {},", stats.d2h_bytes);
    println!("    \"d2h_elided_bytes\": {},", stats.d2h_elided_bytes);
    println!("    \"redistributed_bytes\": {}", stats.redistributed_bytes);
    println!("  }},");
    println!(
        "  \"h2d_reduction\": {:.2}",
        baseline.h2d_bytes as f64 / resident.h2d_bytes.max(1) as f64
    );
    println!("}}");
}
