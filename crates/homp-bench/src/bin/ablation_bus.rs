//! Ablation: K80 shared-slot modelling.
//!
//! The evaluation machine pairs K40s on K80 cards. The presets model
//! each K40 with a dedicated ~10 GB/s link (statically shared slot);
//! this ablation compares against strict serialization on a shared
//! 12 GB/s slot per card — the other way to model the same hardware —
//! and shows how it punishes BLOCK's monolithic transfers.

use homp_bench::{experiment, jobs, par_map, write_artifact, SEED};
use homp_core::{Algorithm, Runtime};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_sim::{device, Machine};
use std::fmt::Write as _;

/// Two K80 cards with both K40s of a card serializing on one 12 GB/s
/// slot.
fn shared_slot_machine() -> Machine {
    let mut devices = vec![
        device::nvidia_k40(0, 0),
        device::nvidia_k40(1, 0),
        device::nvidia_k40(2, 1),
        device::nvidia_k40(3, 1),
    ];
    for d in &mut devices {
        if let Some(l) = &mut d.link {
            l.hockney = homp_model::Hockney::new(l.hockney.alpha, 12e9);
        }
    }
    Machine::new("4xK40-shared-slots", devices)
}

fn main() {
    experiment("ablation_bus", run);
}

fn run() {
    let specs =
        [KernelSpec::Axpy(10_000_000), KernelSpec::Sum(300_000_000), KernelSpec::MatMul(6_144)];
    let algs = [Algorithm::Block, Algorithm::Dynamic { chunk_pct: 2.0 }];

    println!("== Ablation: dedicated 10 GB/s links vs shared 12 GB/s K80 slots ==");
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>12}",
        "kernel", "algorithm", "dedicated ms", "shared ms", "imb shared%"
    );
    let mut csv = String::from("kernel,algorithm,dedicated_ms,shared_ms,shared_imbalance\n");
    let tasks: Vec<(KernelSpec, Algorithm, bool)> = specs
        .into_iter()
        .flat_map(|spec| {
            algs.into_iter().flat_map(move |alg| [(spec, alg, false), (spec, alg, true)])
        })
        .collect();
    let reps = par_map(&tasks, jobs(), |_i, &(spec, alg, shared)| {
        let machine = if shared { shared_slot_machine() } else { Machine::four_k40() };
        let mut rt = Runtime::new(machine, SEED);
        let region = spec.region(vec![0, 1, 2, 3], alg);
        let mut k = PhantomKernel::new(spec.intensity());
        rt.offload(&region, &mut k).run().unwrap()
    });
    homp_bench::count_cells(tasks.len() as u64);
    for (&(spec, alg, _), pair) in tasks.iter().step_by(2).zip(reps.chunks_exact(2)) {
        let (ded, sha) = (&pair[0], &pair[1]);
        println!(
            "{:<16} {:<20} {:>14.3} {:>14.3} {:>12.2}",
            spec.label(),
            alg.to_string(),
            ded.time_ms(),
            sha.time_ms(),
            sha.imbalance_pct
        );
        let _ = writeln!(
            csv,
            "{},{},{:.6},{:.6},{:.3}",
            spec.label(),
            alg,
            ded.time_ms(),
            sha.time_ms(),
            sha.imbalance_pct
        );
    }
    println!("\n(strict serialization staggers BLOCK's big transfers pairwise, inflating");
    println!(" imbalance; chunked scheduling interleaves bus use and suffers less)");
    write_artifact("ablation_bus.csv", &csv);
}
