//! Chaos soak: randomized fault schedules against every distribution
//! algorithm.
//!
//! For each algorithm of the extended suite × three noise seeds, a
//! no-fault baseline is measured and then five fault scenarios — a
//! dropout that later recovers, a mid-run slowdown, a flaky transient
//! window, a mixed schedule, and the loss of every device — are run
//! with scenario parameters drawn from a per-cell SplitMix64 stream.
//! Every run must (a) execute every iteration exactly once, (b) produce
//! bitwise-identical axpy output to a serial reference, (c) reconcile
//! device counts plus host-fallback iterations with the trip count, and
//! (d) finish within a scenario-specific slowdown bound of the
//! baseline.
//!
//! The summary JSON is written to `results/chaos_soak.json`; a seed-42
//! run is pinned as a golden (`results/golden/chaos_soak_seed42.json`)
//! and must be byte-identical at any `HOMP_BENCH_JOBS` value.

use homp_bench::{count_cells, experiment, jobs, par_map, seed_from_args, write_artifact};
use homp_core::{Algorithm, FaultConfig, FnKernel, OffloadRegion, Range, Runtime};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{FaultPlan, Machine};
use std::fmt::Write as _;

/// Trip count: small enough that 24 soak cells stay fast, large enough
/// that every chunked algorithm hands out many chunks.
const N: u64 = 60_000;

/// Compute-bound intensity so regions run long enough for the health
/// tracker's probe schedule to fire while work remains.
fn intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 50_000.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    }
}

fn region(alg: Algorithm) -> OffloadRegion {
    OffloadRegion::builder("axpy")
        .trip_count(N)
        .devices(vec![0, 1, 2, 3])
        .algorithm(alg)
        .map_1d("x", MapDir::To, N, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .map_1d("y", MapDir::ToFrom, N, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .build()
}

/// SplitMix64 step — the scenario parameter stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[lo, hi)`.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let u = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + u * (hi - lo)
}

fn pick_device(state: &mut u64) -> u32 {
    (splitmix(state) % 4) as u32
}

const SCENARIOS: [&str; 5] =
    ["dropout-recover", "slowdown", "flaky-window", "mixed", "all-quarantined"];

/// Allowed makespan ratio over the no-fault baseline per scenario. The
/// host fallback runs at host speed — orders of magnitude slower than
/// four accelerators on a compute-bound loop — so its bound is wide;
/// the others catch runaway retry/recovery pathologies.
fn max_slowdown(scenario: &str) -> f64 {
    match scenario {
        "all-quarantined" => 120.0,
        "slowdown" | "mixed" => 12.0,
        _ => 6.0,
    }
}

/// Build the fault plan for one scenario from the cell's parameter
/// stream. `base` is the no-fault makespan in seconds.
fn plan_for(scenario: &str, rng: &mut u64, base: f64) -> FaultPlan {
    let plan = FaultPlan::new(splitmix(rng));
    match scenario {
        "dropout-recover" => {
            let d = pick_device(rng);
            let down = uniform(rng, 0.2, 0.4) * base;
            let up = uniform(rng, 0.45, 0.65) * base;
            plan.with_dropout_at(d, down).with_recovery_at(d, up)
        }
        "slowdown" => {
            let d = pick_device(rng);
            let factor = uniform(rng, 2.0, 6.0);
            let from = uniform(rng, 0.2, 0.4) * base;
            plan.with_slowdown(d, factor, from, base * 20.0)
        }
        "flaky-window" => {
            let d = pick_device(rng);
            let from = uniform(rng, 0.1, 0.2) * base;
            let until = uniform(rng, 0.5, 0.7) * base;
            let dma = uniform(rng, 0.2, 0.5);
            let launch = uniform(rng, 0.1, 0.3);
            plan.with_flaky_window(d, from, until, dma, launch)
        }
        "mixed" => {
            let d1 = pick_device(rng);
            let d2 = (d1 + 1 + splitmix(rng) as u32 % 3) % 4;
            let d3 = (d1 + 1 + (d2 + 2) % 3) % 4;
            plan.with_dropout_at(d1, uniform(rng, 0.25, 0.45) * base)
                .with_transient_dma(d2, 0.05)
                .with_slowdown(d3, 2.0, uniform(rng, 0.1, 0.3) * base, base * 20.0)
        }
        "all-quarantined" => {
            let mut p = plan;
            for d in 0..4 {
                p = p.with_dropout_at(d, 1e-6 * (d + 1) as f64);
            }
            p
        }
        other => panic!("unknown scenario {other}"),
    }
}

struct SoakRow {
    scenario: &'static str,
    alg_key: String,
    seed: u64,
    makespan_us: f64,
    ratio: f64,
    host_iters: u64,
    dropouts: Vec<u32>,
    transient_retries: u64,
    requeued_chunks: u64,
}

/// Offload the axpy under `alg` with `faults`, asserting the soak
/// invariants against the serial reference `expected`.
fn run_cell(
    alg: Algorithm,
    seed: u64,
    faults: Option<FaultPlan>,
    expected: &[f64],
    x: &[f64],
    label: &str,
) -> homp_core::OffloadReport {
    let a = 1.75f64;
    let mut rt = match faults {
        Some(plan) => Runtime::with_fault_config(Machine::four_k40(), seed, FaultConfig::new(plan)),
        None => Runtime::new(Machine::four_k40(), seed),
    };
    let mut hits = vec![0u8; N as usize];
    let mut y: Vec<f64> = (0..N).map(|i| i as f64 * 0.5).collect();
    let report = {
        let mut k = FnKernel::new(intensity(), |r: Range| {
            for i in r.start..r.end {
                hits[i as usize] += 1;
                y[i as usize] += a * x[i as usize];
            }
        });
        rt.offload(&region(alg), &mut k)
            .run()
            .unwrap_or_else(|e| panic!("{label}: offload must survive the schedule: {e}"))
    };
    assert!(hits.iter().all(|&h| h == 1), "{label}: every iteration exactly once");
    assert_eq!(y, expected, "{label}: output must be bitwise-identical to the serial run");
    assert_eq!(
        report.counts.iter().sum::<u64>() + report.faults.host_iters,
        N,
        "{label}: device counts + host iterations must reconcile"
    );
    report
}

fn fmt_row(r: &SoakRow) -> String {
    let drops: Vec<String> = r.dropouts.iter().map(|d| d.to_string()).collect();
    format!(
        "    {{\"scenario\": \"{}\", \"algorithm\": \"{}\", \"seed\": {}, \
         \"makespan_us\": {:.3}, \"ratio\": {:.3}, \"host_iters\": {}, \
         \"dropouts\": [{}], \"transient_retries\": {}, \"requeued_chunks\": {}}}",
        r.scenario,
        r.alg_key,
        r.seed,
        r.makespan_us,
        r.ratio,
        r.host_iters,
        drops.join(", "),
        r.transient_retries,
        r.requeued_chunks,
    )
}

fn main() {
    let seed = seed_from_args();
    experiment("chaos_soak", || {
        let x: Vec<f64> = (0..N).map(|i| (i as f64 * 1e-3).sin()).collect();
        let expected: Vec<f64> =
            x.iter().enumerate().map(|(i, &xi)| i as f64 * 0.5 + 1.75 * xi).collect();

        let algorithms = Algorithm::extended_suite();
        let tasks: Vec<(Algorithm, u64)> = algorithms
            .iter()
            .flat_map(|&alg| (0..3u64).map(move |k| (alg, seed.wrapping_add(k))))
            .collect();

        // One task per (algorithm, seed): baseline first, then the five
        // scenarios off a task-local parameter stream. par_map keeps the
        // output order — and therefore the JSON bytes — independent of
        // the worker count.
        let rows: Vec<Vec<SoakRow>> = par_map(&tasks, jobs(), |_i, &(alg, s)| {
            let baseline = run_cell(alg, s, None, &expected, &x, &format!("{alg} baseline"));
            let base = baseline.makespan.as_secs();
            count_cells(1);
            SCENARIOS
                .iter()
                .map(|&scenario| {
                    let mut rng = s
                        .wrapping_mul(0xA076_1D64_78BD_642F)
                        .wrapping_add(splitmix_label(alg.key().as_bytes(), scenario));
                    let plan = plan_for(scenario, &mut rng, base);
                    let label = format!("{scenario}/{alg}/seed{s}");
                    let report = run_cell(alg, s, Some(plan), &expected, &x, &label);
                    count_cells(1);
                    let ratio = report.makespan.as_secs() / base;
                    assert!(
                        ratio <= max_slowdown(scenario),
                        "{label}: slowdown {ratio:.2}x exceeds the {}x bound",
                        max_slowdown(scenario)
                    );
                    match scenario {
                        "slowdown" | "flaky-window" => assert!(
                            report.faults.dropouts.is_empty(),
                            "{label}: transient scenarios must not quarantine permanently"
                        ),
                        "all-quarantined" => {
                            assert_eq!(report.faults.dropouts.len(), 4, "{label}");
                            assert_eq!(report.faults.host_iters, N, "{label}: host runs it all");
                        }
                        _ => {}
                    }
                    SoakRow {
                        scenario,
                        alg_key: alg.key(),
                        seed: s,
                        makespan_us: report.makespan.as_secs() * 1e6,
                        ratio,
                        host_iters: report.faults.host_iters,
                        dropouts: report.faults.dropouts.clone(),
                        transient_retries: report.faults.transient_retries,
                        requeued_chunks: report.faults.requeued_chunks,
                    }
                })
                .collect()
        });

        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"seed\": {seed},");
        let _ = writeln!(json, "  \"trip_count\": {N},");
        let _ = writeln!(json, "  \"cells\": [");
        let flat: Vec<&SoakRow> = rows.iter().flatten().collect();
        for (i, r) in flat.iter().enumerate() {
            let comma = if i + 1 < flat.len() { "," } else { "" };
            let _ = writeln!(json, "{}{comma}", fmt_row(r));
        }
        let _ = writeln!(json, "  ]");
        let _ = writeln!(json, "}}");
        print!("{json}");
        write_artifact("chaos_soak.json", &json);
        println!(
            "[soak] {} cells ({} algorithms x 3 seeds x {} scenarios + baselines) all held",
            flat.len(),
            algorithms.len(),
            SCENARIOS.len()
        );
    });
}

/// Fold a label into the scenario stream seed (FNV-1a) so each
/// (algorithm, scenario) cell draws independent parameters.
fn splitmix_label(alg_key: &[u8], scenario: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in alg_key.iter().chain(scenario.as_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
