//! End-to-end harness timing report.
//!
//! Runs every figure/table binary twice — serial (`HOMP_BENCH_JOBS=1`)
//! and parallel (`HOMP_BENCH_JOBS=N`, N = this machine's available
//! parallelism unless the variable is already set) — parses the
//! `[harness] name=… wall_s=… jobs=… cells=…` line each binary prints
//! to stderr, and writes `BENCH_harness.json` with per-experiment
//! wall-clock, cells/sec and speedup, plus the combined speedup of the
//! three headline grids (fig5, fig8, fig9).
//!
//! The experiment binaries are located next to this one
//! (`target/<profile>/`), so run it as
//! `cargo run --release -p homp-bench --bin bench_report`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use homp_bench::json_nums;

/// Experiment binaries to time, in report order. `gantt` is excluded
/// (interactive viewer, argument-driven) and so is this binary itself.
const EXPERIMENTS: &[&str] = &[
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table4",
    "table5",
    "heuristics",
    "ablation_chunk",
    "ablation_cutoff",
    "ablation_overlap",
    "ablation_bus",
    "ablation_constants",
    "ablation_teams",
    "unified_memory",
    "extension_history",
    "irregular_loops",
];

/// The grids whose combined speedup is the headline number.
const KEY_FIGS: &[&str] = &["fig5", "fig8", "fig9"];

#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    jobs: usize,
    cells: u64,
}

/// Parse the `[harness]` line from a binary's stderr. A crashed child
/// (or one that never reached [`homp_bench::experiment`]) prints no such
/// line — that is an error naming the binary, not a panic of *this*
/// report tool.
fn parse_harness_line(stderr: &str, name: &str) -> Result<Sample, String> {
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("[harness] ") && l.contains(&format!("name={name} ")))
        .ok_or_else(|| {
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            format!(
                "{name}: no [harness] line in stderr (last lines: {:?})",
                tail.iter().rev().collect::<Vec<_>>()
            )
        })?;
    let field = |key: &str| -> Result<&str, String> {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
            .ok_or_else(|| format!("{name}: missing {key}= in {line:?}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        let raw = field(key)?;
        raw.parse().map_err(|e| format!("{name}: bad {key}={raw:?}: {e}"))
    };
    Ok(Sample {
        wall_s: num("wall_s")?,
        jobs: num("jobs")? as usize,
        cells: num("cells")? as u64,
    })
}

/// Summarize `BENCH_engine.json` (written by the `engine_torture`
/// binary) as a JSON object for embedding into `BENCH_harness.json`,
/// plus a human line. `events_per_sec` appears several times in that
/// file — baseline first, then the headline, then quick/scenarios —
/// so position selects the row.
fn engine_section(body: &str) -> Result<(String, String), String> {
    let eps = json_nums(body, "events_per_sec");
    // [baseline, headline, quick_* may not match this exact key].
    let (baseline, headline) = match (eps.first(), eps.get(1)) {
        (Some(&b), Some(&h)) => (b, h),
        _ => return Err(format!("expected ≥2 events_per_sec values, got {}", eps.len())),
    };
    let speedup = *json_nums(body, "speedup_vs_baseline")
        .first()
        .ok_or("missing speedup_vs_baseline")?;
    let json = format!(
        "{{\n    \"source\": \"BENCH_engine.json\",\n    \
         \"baseline_events_per_sec\": {baseline:.1},\n    \
         \"events_per_sec\": {headline:.1},\n    \
         \"speedup_vs_baseline\": {speedup:.4}\n  }}"
    );
    let human = format!(
        "engine: {headline:.0} events/s ({speedup:.2}x vs pre-overhaul {baseline:.0})"
    );
    Ok((json, human))
}

fn run_binary(dir: &Path, name: &str, jobs: usize) -> Result<Sample, String> {
    let path = dir.join(name);
    let out = Command::new(&path)
        .env(homp_bench::JOBS_ENV, jobs.to_string())
        .output()
        .map_err(|e| format!("{name}: failed to launch {}: {e}", path.display()))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let mut tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        tail.reverse();
        return Err(format!("{name} exited with {:?} (stderr tail: {tail:?})", out.status));
    }
    parse_harness_line(&String::from_utf8_lossy(&out.stderr), name)
}

fn main() {
    let exe = std::env::current_exe().expect("current_exe");
    let dir: PathBuf = exe.parent().expect("target dir").to_path_buf();
    for name in EXPERIMENTS {
        assert!(
            dir.join(name).exists(),
            "{name} not built — run `cargo build --release -p homp-bench` first",
        );
    }
    // At least 4 workers so the parallel pass always exercises the
    // fan-out, even on small runners (where the speedup column then
    // reads ~1.0x — the threads time-slice one core).
    let par_jobs = homp_bench::jobs().max(4);

    let mut rows = String::new();
    let mut key_serial = 0.0;
    let mut key_parallel = 0.0;
    println!("== harness timing: serial (jobs=1) vs parallel (jobs={par_jobs}) ==");
    println!(
        "{:<20} {:>10} {:>10} {:>8} {:>8} {:>12}",
        "experiment", "serial s", "parallel s", "speedup", "cells", "cells/s par"
    );
    let mut failures: Vec<String> = Vec::new();
    for (i, name) in EXPERIMENTS.iter().enumerate() {
        let (serial, parallel) =
            match run_binary(&dir, name, 1).and_then(|s| Ok((s, run_binary(&dir, name, par_jobs)?)))
            {
                Ok(pair) => pair,
                Err(msg) => {
                    eprintln!("[bench_report] FAILED {msg}");
                    failures.push(msg);
                    continue;
                }
            };
        let speedup = serial.wall_s / parallel.wall_s;
        let cps = parallel.cells as f64 / parallel.wall_s;
        if KEY_FIGS.contains(name) {
            key_serial += serial.wall_s;
            key_parallel += parallel.wall_s;
        }
        println!(
            "{name:<20} {:>10.3} {:>10.3} {:>7.2}x {:>8} {:>12.1}",
            serial.wall_s, parallel.wall_s, speedup, parallel.cells, cps
        );
        let _ = write!(
            rows,
            "    {{\"name\": \"{name}\", \"serial_wall_s\": {:.6}, \"parallel_wall_s\": {:.6}, \
             \"speedup\": {:.4}, \"jobs\": {}, \"cells\": {}, \"cells_per_sec_parallel\": {:.1}}}{}",
            serial.wall_s,
            parallel.wall_s,
            speedup,
            parallel.jobs,
            parallel.cells,
            cps,
            if i + 1 < EXPERIMENTS.len() { ",\n" } else { "\n" }
        );
    }
    let key_speedup = key_serial / key_parallel;
    println!(
        "\ncombined fig5+fig8+fig9: {key_serial:.3} s serial, {key_parallel:.3} s at \
         jobs={par_jobs} — {key_speedup:.2}x"
    );

    // Fold the engine throughput trajectory in alongside the harness
    // numbers, so one file answers both "is the fan-out healthy" and
    // "is the simulator core fast". Absence is not an error — the
    // engine bench is optional — but a malformed file is.
    let engine_json = match std::fs::read_to_string("BENCH_engine.json") {
        Ok(body) => match engine_section(&body) {
            Ok((json, human)) => {
                println!("{human}");
                json
            }
            Err(msg) => {
                eprintln!("[bench_report] FAILED BENCH_engine.json: {msg}");
                failures.push(format!("BENCH_engine.json: {msg}"));
                "null".to_string()
            }
        },
        Err(_) => {
            println!("engine: BENCH_engine.json not found — run engine_torture to produce it");
            "null".to_string()
        }
    };

    // Record the host's core count: the speedup column only has room
    // to move when the machine actually has spare cores.
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"jobs\": {par_jobs},\n  \"host_parallelism\": {host_cores},\n  \
         \"key_figures\": [\"fig5\", \"fig8\", \"fig9\"],\n  \
         \"key_serial_wall_s\": {key_serial:.6},\n  \"key_parallel_wall_s\": {key_parallel:.6},\n  \
         \"key_speedup\": {key_speedup:.4},\n  \"engine\": {engine_json},\n  \
         \"experiments\": [\n{rows}  ]\n}}\n"
    );
    std::fs::write("BENCH_harness.json", &json).expect("write BENCH_harness.json");
    println!("[wrote BENCH_harness.json]");
    if !failures.is_empty() {
        eprintln!("[bench_report] {} experiment(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_harness_line() {
        let s = parse_harness_line(
            "noise\n[harness] name=fig5 wall_s=1.250000 jobs=4 cells=42\n",
            "fig5",
        )
        .unwrap();
        assert!((s.wall_s - 1.25).abs() < 1e-12);
        assert_eq!(s.jobs, 4);
        assert_eq!(s.cells, 42);
    }

    #[test]
    fn missing_line_is_an_error_naming_the_binary() {
        let err = parse_harness_line("thread 'main' panicked at ...\n", "fig5").unwrap_err();
        assert!(err.starts_with("fig5:"), "error must name the binary: {err}");
        assert!(err.contains("no [harness] line"));
        // A line for a *different* experiment must not satisfy fig5.
        let err = parse_harness_line("[harness] name=fig6 wall_s=1 jobs=1 cells=1\n", "fig5")
            .unwrap_err();
        assert!(err.contains("no [harness] line"));
    }

    #[test]
    fn engine_section_picks_headline_not_baseline() {
        let body = "{\n  \"baseline\": {\"events_per_sec\": 100.0},\n  \
                    \"events_per_sec\": 350.0,\n  \"speedup_vs_baseline\": 3.5,\n  \
                    \"quick_events_per_sec\": 360.0\n}\n";
        let (json, human) = engine_section(body).unwrap();
        assert!(json.contains("\"baseline_events_per_sec\": 100.0"), "{json}");
        assert!(json.contains("\"events_per_sec\": 350.0"), "{json}");
        assert!(json.contains("\"speedup_vs_baseline\": 3.5000"), "{json}");
        assert!(human.contains("3.50x"), "{human}");
    }

    #[test]
    fn engine_section_rejects_truncated_files() {
        let err = engine_section("{\"events_per_sec\": 1.0}").unwrap_err();
        assert!(err.contains("expected ≥2"), "{err}");
        let err = engine_section(
            "{\"baseline\": {\"events_per_sec\": 1.0}, \"events_per_sec\": 2.0}",
        )
        .unwrap_err();
        assert!(err.contains("speedup_vs_baseline"), "{err}");
    }

    #[test]
    fn corrupt_fields_are_errors_not_panics() {
        let err =
            parse_harness_line("[harness] name=fig5 wall_s=oops jobs=1 cells=1\n", "fig5")
                .unwrap_err();
        assert!(err.contains("bad wall_s"));
        let err = parse_harness_line("[harness] name=fig5 wall_s=1.0 cells=1\n", "fig5")
            .unwrap_err();
        assert!(err.contains("missing jobs="));
    }
}
