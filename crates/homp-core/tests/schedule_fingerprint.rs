//! Schedule fingerprints: one FNV-1a 64 hash per offload over everything
//! a scheduler decides, pinned against a checked-in golden.
//!
//! The grid is 16 algorithms (the extended suite plus its CUTOFF
//! variants) × 2 machines × 8 fault scripts × parallel/serialized
//! offload × with/without an iteration-cost profile × three dispatch
//! modes: a plain offload, a dispatch at `t > 0` on un-reset calendars,
//! and two offloads inside a `target data` region. Each golden line is
//! one (machine, fault script, variant, offload mode) cell holding the
//! 16 per-algorithm hashes. Every run also asserts exactly-once
//! execution, that its decision log partitions the loop and that its
//! trace is a valid schedule (`assert_schedule_valid`: every op inside
//! the offload's window, no lane double-booked, no 0-byte transfer).
//!
//! A hash covers the trace CSV, the decision log, the per-slot counts,
//! the chunk count, the kept devices and the bits of the makespan,
//! completion instant and imbalance. FNV-1a is used because `std`'s
//! `DefaultHasher` is not stable across Rust releases.
//!
//! The overlapped pipeline executor gets its own lines: a 3-stage
//! `nowait` chain × per-device/4-per-device chunking × 4 fault scripts ×
//! both machines. Each hash covers the combined trace, every stage's
//! decisions, counts, chunks, fault summary and makespan/completion
//! bits, and the pipeline's makespan, completion and barrier-sum bits.
//! Each pipeline's combined trace passes the same schedule check.
//!
//! On a mismatch the test first prints how many cells differ in each
//! algorithm column (or how many pipeline lines differ), then every
//! actual line; after checking that a schedule change is intended,
//! paste them into the golden file.

use homp_core::testing::{assert_decisions_partition, assert_schedule_valid, CoverageKernel};
use homp_core::{
    Algorithm, ChunkingPolicy, FaultConfig, FaultSummary, OffloadRegion, OffloadReport, Pipeline,
    PipelineKernel, Range, Runtime, RuntimeConfig,
};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{DeviceId, FaultPlan, Machine, SimTime};

const GOLDEN: &str = include_str!("golden/schedule_fingerprint.txt");

/// Loop trip count: large enough for 50 dynamic chunks, small enough
/// that the whole grid runs in seconds in a debug build.
const N: u64 = 8_192;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_report(h: &mut Fnv, r: &OffloadReport) {
    h.str(&r.trace.to_csv());
    hash_decisions(h, r);
    h.u64(r.chunks);
    h.u64(r.kept_devices.len() as u64);
    for &d in &r.kept_devices {
        h.u64(u64::from(d));
    }
    h.f64(r.makespan.as_secs());
    h.f64(r.completed_at.as_secs());
    h.f64(r.imbalance_pct);
}

/// The decision log and the per-slot counts.
fn hash_decisions(h: &mut Fnv, r: &OffloadReport) {
    h.u64(r.decisions.len() as u64);
    for d in &r.decisions {
        h.u64(d.slot as u64);
        h.u64(u64::from(d.device));
        h.u64(d.range.start);
        h.u64(d.range.end);
        h.str(d.stage);
        h.f64(d.predicted_s.unwrap_or(-1.0));
        h.str(d.source.map_or("", |s| s.label()));
        h.f64(d.realized_s);
        h.u64(u64::from(d.requeued));
        h.u64(d.donor.map_or(u64::MAX, u64::from));
        h.str(d.note.unwrap_or(""));
    }
    h.u64(r.counts.len() as u64);
    for &c in &r.counts {
        h.u64(c);
    }
}

fn hash_faults(h: &mut Fnv, f: &FaultSummary) {
    h.u64(f.transient_retries);
    h.u64(f.dropouts.len() as u64);
    for &d in &f.dropouts {
        h.u64(u64::from(d));
    }
    h.u64(f.requeued_chunks);
    h.u64(f.requeued_iters);
    h.u64(f.host_iters);
}

/// An irregular loop: iteration cost ramps from 0.5× to 1.5×.
fn ramp(i: u64) -> f64 {
    0.5 + i as f64 / N as f64
}

fn region(machine: &Machine, alg: Algorithm, serialized: bool, profile: bool) -> OffloadRegion {
    let devices: Vec<DeviceId> = (0..machine.devices.len() as DeviceId).collect();
    let aligned = || DistPolicy::Align { target: "loop".into(), ratio: 1 };
    let mut b = OffloadRegion::builder("axpy")
        .trip_count(N)
        .devices(devices)
        .algorithm(alg)
        .map_1d("x", MapDir::To, N, 8, aligned())
        .map_1d("y", MapDir::ToFrom, N, 8, aligned())
        // A replicated table: the fixed transfer every path moves once.
        .map_1d("c", MapDir::To, 4_096, 8, DistPolicy::Full);
    if serialized {
        b = b.serialized_offload();
    }
    if profile {
        b = b.cost_profile(ramp);
    }
    b.build()
}

const SCRIPTS: [&str; 8] = [
    "none",
    "setup-dropout",
    "mid-dropout",
    "dropout-recover",
    "slowdown",
    "flaky-window",
    "retries-exhausted",
    "all-quarantined",
];

/// Fault plan for one script; `base` is the machine's fault-free BLOCK
/// makespan in seconds, so faults land at comparable points everywhere.
fn plan(script: &str, machine: &Machine, base: f64) -> FaultConfig {
    let p = FaultPlan::new(17);
    let p = match script {
        "none" => return FaultConfig::none(),
        "setup-dropout" => p.with_dropout_at(1, 1e-6),
        "mid-dropout" => p.with_dropout_at(2, 0.5 * base),
        "dropout-recover" => p.with_dropout_at(1, 0.3 * base).with_recovery_at(1, 0.55 * base),
        "slowdown" => p.with_slowdown(0, 4.0, 0.2 * base, 20.0 * base),
        "flaky-window" => p.with_flaky_window(3, 0.1 * base, 0.6 * base, 0.4, 0.2),
        "retries-exhausted" => p.with_transient_dma(1, 1.0),
        "all-quarantined" => (0..machine.devices.len() as DeviceId)
            .fold(p, |p, d| p.with_dropout_at(d, 1e-6 * f64::from(d + 1))),
        other => panic!("unknown fault script {other}"),
    };
    FaultConfig::new(p)
}

/// How the offload is dispatched.
#[derive(Clone, Copy)]
enum Mode {
    Plain,
    At,
    DataRegion,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::At => "at",
            Mode::DataRegion => "data",
        }
    }
}

/// Run one cell and return its hash, asserting exactly-once execution,
/// the decision-log partition and a valid schedule for every offload it
/// issues.
fn fingerprint(
    machine: &Machine,
    faults: &FaultConfig,
    mode: Mode,
    region: &OffloadRegion,
    base: f64,
    label: &str,
) -> u64 {
    let config = RuntimeConfig::new().faults(faults.clone()).decision_log(true);
    let mut rt = config.build(machine.clone());
    let mut h = Fnv::new();
    let run = |rt: &mut Runtime, at: Option<SimTime>, h: &mut Fnv| {
        let mut k = CoverageKernel::new(N);
        let b = rt.offload(region, &mut k);
        let b = match at {
            Some(t) => b.at(t),
            None => b,
        };
        let report = b.run().unwrap_or_else(|e| panic!("{label}: offload failed: {e}"));
        k.assert_exactly_once(label);
        assert_decisions_partition(&report, N, label);
        let dispatch = at.unwrap_or(SimTime::ZERO);
        assert_schedule_valid(&report.trace, dispatch, report.completed_at, machine, label);
        hash_report(h, &report);
    };
    match mode {
        Mode::Plain => run(&mut rt, None, &mut h),
        Mode::At => run(&mut rt, Some(SimTime::from_secs(0.25 * base)), &mut h),
        Mode::DataRegion => {
            rt.data_region_begin(region);
            run(&mut rt, None, &mut h);
            run(&mut rt, None, &mut h);
            let close = rt.data_region_end().unwrap_or_else(|e| panic!("{label}: close: {e}"));
            h.u64(close.flushed_bytes);
            h.u64(close.flush_transfers);
            h.f64(close.makespan.as_secs());
        }
    }
    h.0
}

fn algorithms() -> Vec<Algorithm> {
    let mut algs = Algorithm::extended_suite();
    algs.extend(Algorithm::extended_suite_with_cutoff(0.15));
    algs
}

fn actual_lines() -> Vec<String> {
    let algs = algorithms();
    let mut lines = Vec::new();
    for machine in [Machine::four_k40(), Machine::full_node()] {
        let base = {
            let mut rt = Runtime::new(machine.clone(), 42);
            let mut k = CoverageKernel::new(N);
            let r = region(&machine, Algorithm::Block, false, false);
            rt.offload(&r, &mut k).run().unwrap().makespan.as_secs()
        };
        for script in SCRIPTS {
            let faults = plan(script, &machine, base);
            for profile in [false, true] {
                for mode in [Mode::Plain, Mode::At, Mode::DataRegion] {
                    for serialized in [false, true] {
                        let variant =
                            format!("{}{}", mode.label(), if profile { "+profile" } else { "" });
                        let offload = if serialized { "serialized" } else { "parallel" };
                        let hashes: Vec<String> = algs
                            .iter()
                            .map(|&alg| {
                                let r = region(&machine, alg, serialized, profile);
                                let label =
                                    format!("{} {script} {variant} {offload} {alg}", machine.name);
                                let fp = fingerprint(&machine, &faults, mode, &r, base, &label);
                                format!("{fp:016x}")
                            })
                            .collect();
                        lines.push(format!(
                            "{} {script} {variant} {offload} {}",
                            machine.name,
                            hashes.join(" ")
                        ));
                    }
                }
            }
        }
    }
    lines
}

/// Stage `i` of the pipeline chain: reads `a{i}` with a one-row halo,
/// writes `a{i+1}`, and reads a replicated table every stage.
fn chain_stage(i: usize, devices: &[DeviceId]) -> OffloadRegion {
    let aligned = || DistPolicy::Align { target: "loop".into(), ratio: 1 };
    let mut r = OffloadRegion::builder(format!("stage{i}"))
        .trip_count(N)
        .devices(devices.to_vec())
        .algorithm(Algorithm::Block)
        .map_1d(format!("a{i}"), MapDir::To, N, 8, aligned())
        .map_1d(format!("a{}", i + 1), MapDir::ToFrom, N, 8, aligned())
        .map_1d("c", MapDir::To, 4_096, 8, DistPolicy::Full)
        .build();
    r.arrays[0].halo = vec![Some(1)];
    r
}

/// A 3-stage chain, every stage but the last `nowait`.
fn chain(machine: &Machine, chunking: ChunkingPolicy) -> Pipeline {
    let devices: Vec<DeviceId> = (0..machine.devices.len() as DeviceId).collect();
    let mut b = Pipeline::builder("chain").chunking(chunking);
    for i in 0..3 {
        b = b.then(chain_stage(i, &devices));
        if i < 2 {
            b = b.nowait();
        }
    }
    b.build()
}

/// Per-stage, per-iteration execution counters.
struct PipeCoverage {
    hits: Vec<Vec<u32>>,
}

impl PipelineKernel for PipeCoverage {
    fn intensity(&self, _stage: usize) -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 4.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 2.0,
            elem_bytes: 8.0,
        }
    }

    fn execute(&mut self, stage: usize, range: Range) {
        for i in range.start..range.end {
            self.hits[stage][i as usize] += 1;
        }
    }
}

const PIPELINE_SCRIPTS: [&str; 4] = ["none", "one-dropout", "all-dropped", "transient-dma"];

/// Fault plan for one pipeline script; `base` is the fault-free
/// makespan of the same pipeline in seconds.
fn pipeline_plan(script: &str, machine: &Machine, base: f64) -> FaultConfig {
    let p = FaultPlan::new(23);
    let p = match script {
        "none" => return FaultConfig::none(),
        // The last device: on the full node a K40 would already be done.
        "one-dropout" => p.with_dropout_at(machine.devices.len() as DeviceId - 1, 0.5 * base),
        // Every device drops near 20 µs, before most chunks land.
        "all-dropped" => (0..machine.devices.len() as DeviceId)
            .fold(p, |p, d| p.with_dropout_at(d, 20e-6 + 1e-7 * f64::from(d))),
        "transient-dma" => p.with_transient_dma(1, 0.5),
        other => panic!("unknown pipeline fault script {other}"),
    };
    FaultConfig::new(p)
}

/// Run one pipeline cell and return its hash, asserting exactly-once
/// execution, a per-stage decision partition and a valid schedule.
fn pipeline_fingerprint(
    machine: &Machine,
    faults: &FaultConfig,
    pipe: &Pipeline,
    label: &str,
) -> u64 {
    let config = RuntimeConfig::new().faults(faults.clone()).decision_log(true);
    let mut rt = config.build(machine.clone());
    let mut k = PipeCoverage { hits: vec![vec![0; N as usize]; pipe.stages.len()] };
    let rep = rt
        .offload_pipeline(pipe, &mut k)
        .unwrap_or_else(|e| panic!("{label}: pipeline failed: {e}"));
    assert_schedule_valid(&rep.trace, SimTime::ZERO, rep.completed_at, machine, label);
    let mut h = Fnv::new();
    h.str(&rep.trace.to_csv());
    for (s, stage) in rep.stages.iter().enumerate() {
        assert!(k.hits[s].iter().all(|&x| x == 1), "{label}: stage {s} not exactly-once");
        assert_decisions_partition(stage, N, &format!("{label} stage {s}"));
        assert!(
            rep.completed_at >= stage.completed_at,
            "{label}: stage {s} ends after the pipeline"
        );
        hash_decisions(&mut h, stage);
        h.u64(stage.chunks);
        hash_faults(&mut h, &stage.faults);
        h.f64(stage.makespan.as_secs());
        h.f64(stage.completed_at.as_secs());
    }
    h.f64(rep.makespan.as_secs());
    h.f64(rep.completed_at.as_secs());
    h.f64(rep.barrier_sum.as_secs());
    h.0
}

fn pipeline_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for machine in [Machine::four_k40(), Machine::full_node()] {
        for (chunking, chunk_label) in [
            (ChunkingPolicy::PerDevice, "per-device"),
            (ChunkingPolicy::PerDeviceChunks(4), "4-per-device"),
        ] {
            let pipe = chain(&machine, chunking);
            let base = {
                let mut rt = Runtime::new(machine.clone(), 42);
                let mut k = PipeCoverage { hits: vec![vec![0; N as usize]; 3] };
                rt.offload_pipeline(&pipe, &mut k).unwrap().makespan.as_secs()
            };
            for script in PIPELINE_SCRIPTS {
                let faults = pipeline_plan(script, &machine, base);
                let label = format!("pipeline {} {script} {chunk_label}", machine.name);
                let fp = pipeline_fingerprint(&machine, &faults, &pipe, &label);
                lines.push(format!("{label} {fp:016x}"));
            }
        }
    }
    lines
}

/// How many cells differ in each algorithm column of the single-region
/// lines, paired by position, as `key count` pairs in column order;
/// columns sharing an `Algorithm::key()` are summed.
fn differing_cells(actual: &[String], expected: &[&str]) -> String {
    // Machine, fault script, variant and offload mode, then the hashes.
    fn hashes(line: &str) -> impl Iterator<Item = &str> {
        line.split_whitespace().skip(4)
    }
    let keys: Vec<String> = algorithms().iter().map(Algorithm::key).collect();
    let mut per_key: Vec<(&str, usize)> = Vec::new();
    for key in &keys {
        if !per_key.iter().any(|(k, _)| k == key) {
            per_key.push((key, 0));
        }
    }
    for (a, e) in actual.iter().zip(expected) {
        for (key, (ha, he)) in keys.iter().zip(hashes(a).zip(hashes(e))) {
            if ha != he {
                per_key.iter_mut().find(|(k, _)| k == key).expect("listed above").1 += 1;
            }
        }
    }
    let cells: Vec<String> = per_key.iter().map(|(k, n)| format!("{k} {n}")).collect();
    cells.join(", ")
}

/// Compare `actual` with the golden lines of one section (pipeline
/// lines start with `pipeline`). On a mismatch, print its scope in one
/// line, then every actual line.
fn assert_matches_golden(actual: &[String], pipeline: bool) {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter(|l| l.starts_with("pipeline ") == pipeline)
        .collect();
    let differing = actual.iter().zip(&expected).filter(|(a, e)| a.as_str() != **e).count()
        + actual.len().abs_diff(expected.len());
    if differing > 0 {
        if pipeline {
            println!("{differing} pipeline lines differ");
        } else {
            println!("differing cells per algorithm: {}", differing_cells(actual, &expected));
        }
        println!("---- actual schedule fingerprints ----");
        for line in actual {
            println!("{line}");
        }
        panic!(
            "{differing} of {} fingerprint lines differ from tests/golden/schedule_fingerprint.txt",
            actual.len()
        );
    }
}

#[test]
fn schedules_match_the_fingerprint_golden() {
    assert_matches_golden(&actual_lines(), false);
}

#[test]
fn pipelines_match_the_fingerprint_golden() {
    assert_matches_golden(&pipeline_lines(), true);
}
