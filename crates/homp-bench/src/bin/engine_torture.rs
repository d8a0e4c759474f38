//! Synthetic engine torture: raw simulator throughput in events/sec.
//!
//! Unlike the figure binaries, this bench regenerates nothing from the
//! paper — it pushes the discrete-event core as hard as possible and
//! reports how many engine operations per wall-second it sustains, so
//! engine regressions are visible PR-over-PR in `BENCH_engine.json`.
//!
//! Three scenarios on a 64-device machine (two K40s per bus group, so
//! the bus calendar is exercised on every transfer):
//!
//! * `raw_ops` — a transfer/compute/transfer loop driven straight at
//!   [`Engine`], no runtime machinery: the ceiling of the simulator.
//! * `chunked_dynamic` — the headline torture: ~10⁶ chunks through
//!   `run_chunked` (SCHED_DYNAMIC), the hottest loop in `homp-core`.
//! * `work_assist` — repeated WORK_ASSIST offloads through the
//!   single-pass event loop (rolled back to the static path when no
//!   assist fires), reusing one runtime via `reset_with_seed`.
//!
//! Modes: the default (full) run writes `BENCH_engine.json`;
//! `--quick` runs ~20× smaller and writes nothing. CI compares the quick
//! headline of a change with its base commit's on the same runner
//! (`scripts/check_engine_perf.sh`).
//!
//! Events are metered by `Runtime::sim_ops` / `Engine::ops_submitted`
//! — a counter independent of the trace recording level, so switching
//! the trace off speeds the run without losing the denominator.

use homp_bench::seed_from_args;
use homp_core::{Algorithm, OffloadRegion, RuntimeConfig};
use homp_kernels::PhantomKernel;
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::device::nvidia_k40;
use homp_sim::{ChunkWork, Dir, Engine, Machine, NoiseModel, SimTime, TraceLevel};
use std::fmt::Write as _;
use std::time::Instant;

/// Devices in the torture machine (ISSUE 8 acceptance scale).
const DEVICES: usize = 64;
/// Chunks the headline scenario drives through `run_chunked`.
const FULL_CHUNKS: u64 = 1_000_000;
/// Iterations per dynamic chunk.
const CHUNK_ITERS: u64 = 64;
/// Quick mode shrinks every scenario by this factor.
const QUICK_DIV: u64 = 20;

/// Headline events/sec of the `chunked_dynamic` scenario measured on
/// this container *before* the PR-8 engine overhaul (HashMap bus
/// calendar, unconditional full-trace append, per-call scratch
/// allocations), with this same binary. The acceptance bar is ≥ 3×.
const BASELINE_EVENTS_PER_SEC: f64 = 9_314_453.0;
const BASELINE_LABEL: &str = "pre-PR8 engine: HashMap bus calendar, unconditional trace append";

/// axpy-like per-iteration intensity (2 flops, 3 elements touched).
fn intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 2.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    }
}

/// 64 K40s, two per bus group: every transfer contends on a shared
/// PCIe slot calendar, like the K80 cards of the paper's node.
fn torture_machine() -> Machine {
    Machine::new(
        format!("{DEVICES}xK40-paired"),
        (0..DEVICES).map(|i| nvidia_k40(i as u32, (i / 2) as u32)).collect(),
    )
}

/// Aligned in/out arrays over the loop — every chunk moves bytes both
/// ways, so the bus calendar is hit twice per chunk.
fn torture_region(trip: u64, alg: Algorithm) -> OffloadRegion {
    let devices: Vec<u32> = (0..DEVICES as u32).collect();
    OffloadRegion::builder("torture")
        .trip_count(trip)
        .devices(devices)
        .algorithm(alg)
        .map_1d("x", MapDir::To, trip, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .map_1d("y", MapDir::ToFrom, trip, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .build()
}

#[derive(Debug, Clone)]
struct Scenario {
    name: &'static str,
    chunks: u64,
    events: u64,
    wall_s: f64,
}

impl Scenario {
    fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Raw engine ceiling: transfer→compute→transfer per device, reset
/// periodically so virtual time and the trace stay bounded.
fn raw_ops(seed: u64, quick: bool) -> Scenario {
    let rounds: u64 = if quick { 512 } else { 8192 };
    let k = intensity();
    let mut e = Engine::new(torture_machine(), NoiseModel::new(seed, 0.06));
    e.set_trace_level(TraceLevel::Off);
    let ops0 = e.ops_submitted();
    let mut last = vec![SimTime::ZERO; DEVICES];
    let t0 = Instant::now();
    for round in 0..rounds {
        if round % 64 == 0 {
            e.reset();
            last.fill(SimTime::ZERO);
        }
        for d in 0..DEVICES as u32 {
            let t = e.transfer(d, 1 << 16, Dir::H2D, last[d as usize], "in");
            let c = e.compute(d, &ChunkWork::new(4096, &k), t, "kernel");
            last[d as usize] = e.transfer(d, 1 << 16, Dir::D2H, c, "out");
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Scenario {
        name: "raw_ops",
        chunks: rounds * DEVICES as u64,
        events: e.ops_submitted() - ops0,
        wall_s,
    }
}

/// The headline torture: `chunks` dynamic chunks over 64 devices.
fn chunked_dynamic(seed: u64, chunks: u64) -> Scenario {
    let trip = chunks * CHUNK_ITERS;
    let chunk_pct = 100.0 * CHUNK_ITERS as f64 / trip as f64;
    let mut rt =
        RuntimeConfig::new().seed(seed).trace_level(TraceLevel::Off).build(torture_machine());
    let region = torture_region(trip, Algorithm::Dynamic { chunk_pct });
    let mut kernel = PhantomKernel::new(intensity());
    let ops0 = rt.sim_ops();
    let t0 = Instant::now();
    let report = rt.offload(&region, &mut kernel).run().expect("offload");
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(report.counts.iter().sum::<u64>(), trip, "loop must be covered");
    assert_eq!(report.chunks, chunks, "chunk arithmetic drifted");
    Scenario { name: "chunked_dynamic", chunks: report.chunks, events: rt.sim_ops() - ops0, wall_s }
}

/// Repeated WORK_ASSIST offloads (one event-loop pass each) on one
/// runtime, rewound between offloads.
fn work_assist(seed: u64, quick: bool) -> Scenario {
    let repeats: u64 = if quick { 15 } else { 300 };
    let trip: u64 = 1_000_000;
    let mut rt =
        RuntimeConfig::new().seed(seed).trace_level(TraceLevel::Off).build(torture_machine());
    let region = torture_region(trip, Algorithm::WorkAssist { min_assist_pct: 0.5, cutoff: None });
    let ops0 = rt.sim_ops();
    let mut chunks = 0u64;
    let t0 = Instant::now();
    for i in 0..repeats {
        rt.reset_with_seed(seed.wrapping_add(i));
        let mut kernel = PhantomKernel::new(intensity());
        let report = rt.offload(&region, &mut kernel).run().expect("offload");
        assert_eq!(report.counts.iter().sum::<u64>(), trip, "loop must be covered");
        chunks += report.chunks;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Scenario { name: "work_assist", chunks, events: rt.sim_ops() - ops0, wall_s }
}

fn run_suite(seed: u64, quick: bool) -> Vec<Scenario> {
    let chunks = if quick { FULL_CHUNKS / QUICK_DIV } else { FULL_CHUNKS };
    let out = vec![raw_ops(seed, quick), chunked_dynamic(seed, chunks), work_assist(seed, quick)];
    for s in &out {
        println!(
            "[torture] scenario={} chunks={} events={} wall_s={:.4} events_per_sec={:.0}",
            s.name,
            s.chunks,
            s.events,
            s.wall_s,
            s.events_per_sec()
        );
    }
    out
}

fn headline(scenarios: &[Scenario]) -> f64 {
    scenarios
        .iter()
        .find(|s| s.name == "chunked_dynamic")
        .map(|s| s.events_per_sec())
        .expect("chunked_dynamic scenario present")
}

fn render_json(scenarios: &[Scenario], quick_eps: f64) -> String {
    let eps = headline(scenarios);
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"bench\": \"engine_torture\",");
    let _ = writeln!(j, "  \"devices\": {DEVICES},");
    let _ = writeln!(j, "  \"target_chunks\": {FULL_CHUNKS},");
    let _ = writeln!(j, "  \"baseline\": {{");
    let _ = writeln!(j, "    \"label\": \"{BASELINE_LABEL}\",");
    let _ = writeln!(j, "    \"events_per_sec\": {BASELINE_EVENTS_PER_SEC:.1}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"events_per_sec\": {eps:.1},");
    let _ = writeln!(
        j,
        "  \"speedup_vs_baseline\": {:.2},",
        if BASELINE_EVENTS_PER_SEC > 0.0 { eps / BASELINE_EVENTS_PER_SEC } else { 0.0 }
    );
    let _ = writeln!(j, "  \"quick_events_per_sec\": {quick_eps:.1},");
    j.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"name\": \"{}\", \"chunks\": {}, \"events\": {}, \"wall_s\": {:.4}, \
             \"events_per_sec\": {:.1}}}",
            s.name,
            s.chunks,
            s.events,
            s.wall_s,
            s.events_per_sec()
        );
        j.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");
    j
}

fn main() {
    let seed = seed_from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scenarios = run_suite(seed, quick);
    let eps = headline(&scenarios);
    println!(
        "[torture] headline events_per_sec={eps:.0} baseline={BASELINE_EVENTS_PER_SEC:.0} \
         speedup={:.2}x",
        if BASELINE_EVENTS_PER_SEC > 0.0 { eps / BASELINE_EVENTS_PER_SEC } else { 0.0 }
    );
    if !quick {
        // Measure the quick number in the same run so the checked-in
        // file carries both scales.
        let quick_eps = headline(&run_suite(seed, true));
        let json = render_json(&scenarios, quick_eps);
        std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
        println!("[wrote BENCH_engine.json]");
    }
}
