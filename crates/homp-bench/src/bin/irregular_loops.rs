//! Irregular loops — the §IV-A.2 rationale for dynamic chunking:
//! "Static chunking may not achieve good load balance when the work
//! performed by each iteration varies."
//!
//! Three cost profiles over a compute-bound loop on 4 identical GPUs:
//!
//! * `uniform`    — every iteration costs the same (BLOCK's home turf);
//! * `triangular` — cost grows linearly with the index (classic LU /
//!   triangular-solve shape): BLOCK's last device gets ~1.75× the work;
//! * `frontloaded` — cost decays linearly, the mirror image.
//!
//! Dynamic and guided chunking should flatten both skewed profiles;
//! the model algorithms mispredict them exactly like BLOCK does
//! (they assume uniform iterations, as the paper's models do).

use homp_bench::{experiment, jobs, par_map, write_artifact, SEED};
use homp_core::{Algorithm, FnKernel, OffloadRegion, Range, Runtime};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::Machine;
use std::fmt::Write as _;

const N: u64 = 1_000_000;

fn intensity() -> KernelIntensity {
    // Compute-bound so the imbalance is pure kernel time.
    KernelIntensity {
        flops_per_iter: 2_000.0,
        mem_elems_per_iter: 2.0,
        data_elems_per_iter: 2.0,
        elem_bytes: 8.0,
    }
}

fn triangular(i: u64) -> f64 {
    // Mean 1 over [0, N): f(i) = 2i/N.
    2.0 * i as f64 / N as f64
}

fn frontloaded(i: u64) -> f64 {
    2.0 - 2.0 * i as f64 / N as f64
}

fn region(profile: Option<fn(u64) -> f64>, alg: Algorithm) -> OffloadRegion {
    let mut b = OffloadRegion::builder("irregular")
        .trip_count(N)
        .devices(vec![0, 1, 2, 3])
        .algorithm(alg)
        .map_1d("x", MapDir::To, N, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 });
    if let Some(f) = profile {
        b = b.cost_profile(f);
    }
    b.build()
}

type CostProfile = Option<fn(u64) -> f64>;

fn main() {
    experiment("irregular_loops", run);
}

fn run() {
    let profiles: [(&str, CostProfile); 3] =
        [("uniform", None), ("triangular", Some(triangular)), ("frontloaded", Some(frontloaded))];
    let algorithms = Algorithm::paper_suite();

    // One task per (profile, algorithm); its 5-seed average reuses a
    // single runtime via `reset_with_seed`.
    let tasks: Vec<(&str, CostProfile, Algorithm)> = profiles
        .iter()
        .flat_map(|&(pname, profile)| algorithms.iter().map(move |&alg| (pname, profile, alg)))
        .collect();
    let averages = par_map(&tasks, jobs(), |_i, &(_, profile, alg)| {
        let mut rt = Runtime::new(Machine::four_k40(), SEED);
        let reg = region(profile, alg);
        let mut total = 0.0;
        let mut imb = 0.0;
        for s in 0..5u64 {
            rt.reset_with_seed(SEED + s * 7919);
            let mut k = FnKernel::new(intensity(), |_r: Range| {});
            let rep = rt.offload(&reg, &mut k).run().unwrap();
            total += rep.time_ms();
            imb += rep.imbalance_pct;
        }
        (total / 5.0, imb / 5.0)
    });
    homp_bench::count_cells(tasks.len() as u64);

    let mut csv = String::from("profile,algorithm,time_ms,imbalance_pct\n");
    for (&(pname, _, alg), &(ms, imb)) in tasks.iter().zip(&averages) {
        if alg == algorithms[0] {
            println!("== irregular loop profile: {pname} (4x K40) ==");
            println!("{:<26} {:>12} {:>12}", "algorithm", "time (ms)", "imbalance%");
        }
        println!("{:<26} {:>12.3} {:>12.2}", alg.to_string(), ms, imb);
        let _ = writeln!(csv, "{pname},{alg},{ms:.6},{imb:.3}");
        if alg == algorithms[algorithms.len() - 1] {
            println!();
        }
    }
    println!("(on the skewed profiles BLOCK and the models should show 30%+ imbalance;");
    println!(" SCHED_DYNAMIC and SCHED_GUIDED should stay in single digits)");
    write_artifact("irregular_loops.csv", &csv);
}
