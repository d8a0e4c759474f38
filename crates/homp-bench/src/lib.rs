//! Harness utilities shared by the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's experiment index). This library
//! holds the shared machinery: running a kernel×algorithm grid on a
//! simulated machine — in parallel across cells via [`par_map`], with
//! output byte-identical to a serial run — formatting the result
//! matrices the way the paper reports them, and writing CSV artifacts
//! to `results/`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod exec;

pub use exec::{jobs, par_map, JOBS_ENV};

use homp_core::{Algorithm, OffloadReport, Runtime};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_sim::Machine;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default noise seed for all experiments (deterministic).
pub const SEED: u64 = 20170529; // IPPS 2017 orlando week

/// The experiment's noise seed: `--seed N` from the command line, or
/// [`SEED`]. Figure binaries take this so CI can pin goldens at a
/// fixed seed while exploratory runs stay free to vary it.
pub fn seed_from_args() -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            let v = args.next().unwrap_or_else(|| panic!("--seed needs a value"));
            return v.parse().unwrap_or_else(|_| panic!("--seed {v}: not a u64"));
        }
        if let Some(v) = a.strip_prefix("--seed=") {
            return v.parse().unwrap_or_else(|_| panic!("--seed {v}: not a u64"));
        }
    }
    SEED
}

/// Grid cells simulated so far in this process (each [`run_one`] /
/// [`try_run_one`] call is one cell, regardless of its inner seed
/// loop). The [`experiment`] wrapper reports this as a throughput
/// denominator.
static CELLS: AtomicU64 = AtomicU64::new(0);

/// Number of grid cells simulated so far in this process.
pub fn cells_simulated() -> u64 {
    CELLS.load(Ordering::Relaxed)
}

/// Count `n` additional cells toward [`cells_simulated`] — for bespoke
/// sweeps that drive `Runtime::offload` directly instead of going
/// through [`run_one`] (one cell per independently scheduled sweep
/// point, mirroring `run_one`'s one-cell-per-seed-loop convention).
pub fn count_cells(n: u64) {
    CELLS.fetch_add(n, Ordering::Relaxed);
}

/// Run an experiment body, then print a machine-readable timing line to
/// **stderr** (stdout is reserved for the experiment's own tables, so
/// redirected output stays byte-identical):
///
/// ```text
/// [harness] name=fig5 wall_s=1.234 jobs=4 cells=42
/// ```
pub fn experiment(name: &str, f: impl FnOnce()) {
    let start = std::time::Instant::now();
    f();
    let wall = start.elapsed().as_secs_f64();
    eprintln!("[harness] name={name} wall_s={wall:.6} jobs={} cells={}", jobs(), cells_simulated());
}

/// One cell of a result grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Kernel label (`matmul-6144`).
    pub kernel: String,
    /// Algorithm notation (`SCHED_DYNAMIC,2%`).
    pub algorithm: String,
    /// Stable algorithm key (`sched_dynamic_2`) — the machine-readable
    /// handle for picking columns out of a grid; unlike the display
    /// notation it is independent of float formatting.
    pub key: String,
    /// The offload report.
    pub report: OffloadReport,
}

impl Cell {
    /// Offload time in ms.
    pub fn ms(&self) -> f64 {
        self.report.time_ms()
    }
}

/// Number of noise seeds each measurement is averaged over (the paper
/// reports averaged execution times).
pub const RUNS: u64 = 5;

/// Run one kernel under one algorithm on `machine` (phantom kernel at
/// paper size — the simulator prices it, no host-side arithmetic).
/// The returned cell carries the report of the *median-time* run out of
/// [`RUNS`] seeds, with its makespan replaced by the mean.
///
/// One [`Runtime`] serves all [`RUNS`] seeds via
/// [`Runtime::reset_with_seed`] — trace and calendar allocations are
/// reused, and the noise model's statelessness makes each rewound run
/// identical to one on a freshly built runtime (the
/// `reset_with_seed_matches_freshly_built_runtime` golden test pins
/// this down).
pub fn run_one(machine: &Machine, spec: KernelSpec, alg: Algorithm, seed: u64) -> Cell {
    let mut rt = Runtime::new(machine.clone(), seed);
    let devices = (0..machine.len() as u32).collect();
    let region = spec.region(devices, alg);
    let mut reports = Vec::with_capacity(RUNS as usize);
    for run in 0..RUNS {
        rt.reset_with_seed(seed.wrapping_add(run * 7919));
        let mut kernel = PhantomKernel::new(spec.intensity());
        let report = rt.offload(&region, &mut kernel).run().expect("offload");
        assert_eq!(kernel.executed(), spec.trip_count(), "harness must cover the loop");
        reports.push(report);
    }
    reports.sort_by(|a, b| a.makespan.partial_cmp(&b.makespan).unwrap());
    let mean_secs =
        reports.iter().map(|r| r.makespan.as_secs()).sum::<f64>() / reports.len() as f64;
    let mut median = reports.swap_remove(reports.len() / 2);
    median.makespan = homp_sim::SimSpan::from_secs(mean_secs);
    CELLS.fetch_add(1, Ordering::Relaxed);
    Cell { kernel: spec.label(), algorithm: alg.to_string(), key: alg.key(), report: median }
}

/// Like [`run_one`], but `None` when the plan legitimately cannot run
/// (e.g. a static plan whose per-device mapping exceeds device memory —
/// matvec-48k's 18 GB matrix on a single 12 GB K40). Chunked algorithms
/// stream and typically still fit.
pub fn try_run_one(machine: &Machine, spec: KernelSpec, alg: Algorithm, seed: u64) -> Option<Cell> {
    let mut rt = Runtime::new(machine.clone(), seed);
    let devices = (0..machine.len() as u32).collect();
    let region = spec.region(devices, alg);
    let mut kernel = PhantomKernel::new(spec.intensity());
    let out = match rt.offload(&region, &mut kernel).run() {
        Ok(report) => {
            Some(Cell { kernel: spec.label(), algorithm: alg.to_string(), key: alg.key(), report })
        }
        Err(homp_core::OffloadError::OutOfDeviceMemory { .. }) => None,
        Err(e) => panic!("offload failed: {e}"),
    };
    CELLS.fetch_add(1, Ordering::Relaxed);
    out
}

/// Run the full kernel × algorithm grid on `jobs` worker threads.
///
/// Cells are fanned out flat over the spec × algorithm product via
/// [`par_map`] and reassembled **by index** into the kernels × algorithms
/// shape, so any `jobs` value yields the same grid — and therefore the
/// same CSV bytes — as `jobs = 1`.
pub fn run_grid_jobs(
    machine: &Machine,
    specs: &[KernelSpec],
    algorithms: &[Algorithm],
    seed: u64,
    jobs: usize,
) -> Vec<Vec<Cell>> {
    let tasks: Vec<(KernelSpec, Algorithm)> =
        specs.iter().flat_map(|&spec| algorithms.iter().map(move |&alg| (spec, alg))).collect();
    let flat = par_map(&tasks, jobs, |_i, &(spec, alg)| run_one(machine, spec, alg, seed));
    let mut cells = flat.into_iter();
    specs.iter().map(|_| cells.by_ref().take(algorithms.len()).collect()).collect()
}

/// Run the full kernel × algorithm grid, parallel across cells with the
/// process-default worker count ([`jobs`], i.e. `HOMP_BENCH_JOBS` or
/// all cores).
pub fn run_grid(
    machine: &Machine,
    specs: &[KernelSpec],
    algorithms: &[Algorithm],
    seed: u64,
) -> Vec<Vec<Cell>> {
    run_grid_jobs(machine, specs, algorithms, seed, jobs())
}

/// Format a kernels×algorithms matrix of a per-cell metric, in the
/// paper's layout (kernels as columns, algorithms as rows).
pub fn format_matrix(
    title: &str,
    grid: &[Vec<Cell>],
    metric: impl Fn(&Cell) -> f64,
    unit: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    if grid.is_empty() {
        return out;
    }
    let kernels: Vec<&str> = grid.iter().map(|row| row[0].kernel.as_str()).collect();
    let algs: Vec<&str> = grid[0].iter().map(|c| c.algorithm.as_str()).collect();
    let _ = write!(out, "{:<28}", format!("algorithm ({unit})"));
    for k in &kernels {
        let _ = write!(out, "{k:>15}");
    }
    out.push('\n');
    for (ai, alg) in algs.iter().enumerate() {
        let _ = write!(out, "{alg:<28}");
        for row in grid {
            let _ = write!(out, "{:>15.3}", metric(&row[ai]));
        }
        out.push('\n');
    }
    // Winner row, as the paper discusses "best policy per kernel".
    let _ = write!(out, "{:<28}", "BEST");
    for row in grid {
        let best = row.iter().min_by(|a, b| metric(a).partial_cmp(&metric(b)).unwrap()).unwrap();
        let _ = write!(out, "{:>15}", best.algorithm.split(',').next().unwrap());
    }
    out.push('\n');
    out
}

/// CSV of a grid: `kernel,algorithm,time_ms,imbalance_pct,chunks,kept`.
pub fn grid_csv(grid: &[Vec<Cell>]) -> String {
    let mut out = String::from("kernel,algorithm,time_ms,imbalance_pct,chunks,kept_devices\n");
    for row in grid {
        for c in row {
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.3},{},{}",
                c.kernel,
                c.algorithm,
                c.ms(),
                c.report.imbalance_pct,
                c.report.chunks,
                c.report.kept_devices.len()
            );
        }
    }
    out
}

/// Write an artifact under `results/`, creating the directory.
pub fn write_artifact(name: &str, content: &str) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, content).is_ok() {
            println!("[wrote {}]", path.display());
        }
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Best (minimum-time) cell of a row.
pub fn best_cell(row: &[Cell]) -> &Cell {
    row.iter().min_by(|a, b| a.ms().partial_cmp(&b.ms()).unwrap()).expect("non-empty row")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_produces_sane_cell() {
        let c = run_one(&Machine::four_k40(), KernelSpec::Stencil2d(256), Algorithm::Block, 1);
        assert_eq!(c.kernel, "stencil2d-256");
        assert!(c.ms() > 0.0);
    }

    #[test]
    fn grid_shape_and_csv() {
        let grid = run_grid(
            &Machine::four_k40(),
            &[KernelSpec::Stencil2d(64), KernelSpec::Axpy(10_000)],
            &[Algorithm::Block, Algorithm::Dynamic { chunk_pct: 2.0 }],
            1,
        );
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].len(), 2);
        let csv = grid_csv(&grid);
        assert_eq!(csv.lines().count(), 5);
        let table = format_matrix("t", &grid, Cell::ms, "ms");
        assert!(table.contains("BEST"));
        assert!(table.contains("stencil2d-64"));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
