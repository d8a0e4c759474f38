//! Pins the two halves of the report path byte for byte and bit for
//! bit: `RunReport::to_json` and `Metrics::from_trace`.
//!
//! The `reference` module below keeps verbatim copies of the JSON
//! renderer (`core::fmt` for every number) and of the per-device
//! interval fold (one `Vec` of intervals per device and class, merged
//! by copy), as `homp-serve`'s `admission_order.rs` keeps the old
//! admission loop. Every report of a scenario grid must render to the
//! same bytes and fold to the same bits as the references do:
//!
//! - the 8 algorithms × {no fault, one dropout, flaky DMA, every device
//!   dropped} on `4xK40` and the full node, decision log on and off;
//! - a WORK_ASSIST straggler whose peers fire assists;
//! - a chunked run with health transitions (degraded, probation);
//! - synthetic reports with arbitrary float fields, and random trace
//!   event soups.

mod common;

use common::CoverageKernel;
use homp_core::{
    Algorithm, ChunkDecision, FaultConfig, OffloadRegion, OffloadReport, PredictionSource,
    PredictionStats, Range, RunReport, RuntimeConfig,
};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{DeviceId, DeviceMetrics, FaultPlan, Machine, Metrics, OpKind, SimTime, Trace};
use proptest::prelude::*;

/// Verbatim copies of the renderer and the fold as they stood before
/// the fixed-point writer and the one-buffer fold replaced them.
mod reference {
    use homp_core::RunReport;
    use homp_sim::{DeviceMetrics, FaultKind, Metrics, OpKind, Trace};
    use std::fmt::Write as _;

    pub fn to_json(r: &RunReport) -> String {
        let mut out = String::with_capacity(1024 + r.decisions.len() * 160);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"algorithm\": \"{}\",", r.algorithm);
        let _ = writeln!(out, "  \"makespan_ms\": {:.9},", r.makespan_ms);
        let _ = writeln!(out, "  \"imbalance_pct\": {:.4},", r.imbalance_pct);
        let _ = writeln!(out, "  \"load_balance_ratio\": {:.6},", r.load_balance_ratio);
        let _ = writeln!(out, "  \"flops_per_iter\": {:.3},", r.flops_per_iter);
        let host = if r.host_iters > 0 {
            format!(", \"host_iters\": {}", r.host_iters)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  \"faults\": {{\"transient_retries\": {}, \"dropouts\": {:?}, \
             \"requeued_chunks\": {}{}}},",
            r.transient_retries, r.dropouts, r.requeued_chunks, host
        );
        match &r.prediction {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  \"prediction\": {{\"chunks\": {}, \"mean_abs_err_pct\": {:.4}, \
                     \"max_abs_err_pct\": {:.4}, \"mean_err_pct\": {:.4}}},",
                    p.predicted_chunks, p.mean_abs_err_pct, p.max_abs_err_pct, p.mean_err_pct
                );
            }
            None => {
                out.push_str("  \"prediction\": null,\n");
            }
        }
        out.push_str("  \"devices\": [\n");
        for (s, &dev) in r.devices.iter().enumerate() {
            let m = &r.metrics.devices[dev as usize];
            let _ = write!(
                out,
                "    {{\"device\": {}, \"iters\": {}, \"utilization\": {:.6}, \
                 \"overlap_fraction\": {:.6}, \"queue_wait_s\": {:.9}, \
                 \"h2d_bytes\": {}, \"d2h_bytes\": {}, \"kernel_iters\": {}, \
                 \"completion_s\": {:.9}, \"busy_s\": {{",
                dev,
                r.counts[s],
                m.utilization,
                m.overlap_fraction,
                m.queue_wait_s,
                m.h2d_bytes,
                m.d2h_bytes,
                m.kernel_iters,
                m.completion_s,
            );
            for (i, k) in OpKind::ALL.iter().enumerate() {
                let _ =
                    write!(out, "{}\"{}\": {:.9}", if i > 0 { ", " } else { "" }, k, m.busy_s[i]);
            }
            let _ = writeln!(out, "}}}}{}", if s + 1 < r.devices.len() { "," } else { "" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"decisions\": [\n");
        for (i, d) in r.decisions.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"slot\": {}, \"device\": {}, \"start\": {}, \"end\": {}, \
                 \"stage\": \"{}\", \"requeued\": {}, \"realized_s\": {:.9}, ",
                d.slot, d.device, d.range.start, d.range.end, d.stage, d.requeued, d.realized_s
            );
            if let Some(donor) = d.donor {
                let _ = write!(out, "\"donor\": {donor}, ");
            }
            if let Some(note) = d.note {
                let _ = write!(out, "\"note\": \"{note}\", ");
            }
            match (d.predicted_s, d.source) {
                (Some(p), Some(src)) => {
                    let _ =
                        write!(out, "\"predicted_s\": {:.9}, \"source\": \"{}\"", p, src.label());
                }
                _ => {
                    let _ = write!(out, "\"predicted_s\": null, \"source\": null");
                }
            }
            let _ = writeln!(out, "}}{}", if i + 1 < r.decisions.len() { "," } else { "" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn merge(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
        iv.retain(|&(s, e)| s.is_finite() && e.is_finite() && e > s);
        iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
        for (s, e) in iv {
            match out.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        out
    }

    fn total_len(merged: &[(f64, f64)]) -> f64 {
        merged.iter().fold(0.0, |acc, &(s, e)| acc + (e - s))
    }

    fn intersection_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
        let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
        while i < a.len() && j < b.len() {
            let lo = a[i].0.max(b[j].0);
            let hi = a[i].1.min(b[j].1);
            if hi > lo {
                acc += hi - lo;
            }
            if a[i].1 < b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        acc
    }

    pub fn from_trace(trace: &Trace, n_devices: usize) -> Metrics {
        let rows =
            trace.events().iter().map(|e| e.device as usize + 1).max().unwrap_or(0).max(n_devices);
        let makespan_s = trace.makespan().as_secs();
        let mut devices = vec![DeviceMetrics::default(); rows];
        let mut compute_iv: Vec<Vec<(f64, f64)>> = vec![Vec::new(); rows];
        let mut dma_iv: Vec<Vec<(f64, f64)>> = vec![Vec::new(); rows];
        let mut work_iv: Vec<Vec<(f64, f64)>> = vec![Vec::new(); rows];

        for e in trace.events() {
            let d = e.device as usize;
            let m = &mut devices[d];
            let slot = OpKind::ALL.iter().position(|k| *k == e.kind).expect("known kind");
            let (s, t) = (e.start.as_secs(), e.end.as_secs());
            m.busy_s[slot] += t - s;
            match e.kind {
                OpKind::Kernel => {
                    m.kernel_iters += e.amount;
                    compute_iv[d].push((s, t));
                }
                OpKind::H2D => {
                    m.h2d_bytes += e.amount;
                    dma_iv[d].push((s, t));
                }
                OpKind::D2H => {
                    m.d2h_bytes += e.amount;
                    dma_iv[d].push((s, t));
                }
                OpKind::Fault => {
                    m.fault_events += 1;
                    if let Some(kind) = FaultKind::from_label_suffix(trace.label(e.label)) {
                        m.faults_by_kind[kind.index()] += 1;
                    }
                }
                OpKind::Backoff => m.backoff_events += 1,
                OpKind::Failover => m.failover_events += 1,
                OpKind::Init | OpKind::Sync => {}
            }
            if !matches!(e.kind, OpKind::Sync | OpKind::Backoff) {
                work_iv[d].push((s, t));
                if e.kind != OpKind::Sync {
                    m.completion_s = m.completion_s.max(t);
                }
            }
        }

        for (d, m) in devices.iter_mut().enumerate() {
            let work = merge(std::mem::take(&mut work_iv[d]));
            let compute = merge(std::mem::take(&mut compute_iv[d]));
            let dma = merge(std::mem::take(&mut dma_iv[d]));
            m.busy_union_s = total_len(&work);
            m.compute_s = total_len(&compute);
            m.dma_s = total_len(&dma);
            m.overlap_s = intersection_len(&compute, &dma);
            let hideable = m.compute_s.min(m.dma_s);
            m.overlap_fraction =
                if hideable > 0.0 { (m.overlap_s / hideable).min(1.0) } else { 0.0 };
            m.utilization =
                if makespan_s > 0.0 { (m.busy_union_s / makespan_s).min(1.0) } else { 0.0 };
            m.queue_wait_s = match (work.first(), work.last()) {
                (Some(&(first, _)), Some(&(_, last))) => ((last - first) - m.busy_union_s).max(0.0),
                _ => 0.0,
            };
        }
        Metrics { makespan_s, devices }
    }
}

/// Field-by-field equality on the bit patterns of every float, so a
/// `-0.0` for `0.0` or a one-ulp drift fails where `==` would not.
fn assert_metrics_identical(got: &Metrics, want: &Metrics, ctx: &str) {
    assert_eq!(got.makespan_s.to_bits(), want.makespan_s.to_bits(), "{ctx}: makespan_s");
    assert_eq!(got.devices.len(), want.devices.len(), "{ctx}: rows");
    for (d, (g, w)) in got.devices.iter().zip(&want.devices).enumerate() {
        let floats = |m: &DeviceMetrics| {
            let mut v = m.busy_s.to_vec();
            v.extend([
                m.busy_union_s,
                m.compute_s,
                m.dma_s,
                m.overlap_s,
                m.overlap_fraction,
                m.utilization,
                m.queue_wait_s,
                m.completion_s,
            ]);
            v.into_iter().map(f64::to_bits).collect::<Vec<u64>>()
        };
        assert_eq!(floats(g), floats(w), "{ctx}: device {d} floats");
        let counters = |m: &DeviceMetrics| {
            (
                m.h2d_bytes,
                m.d2h_bytes,
                m.kernel_iters,
                m.fault_events,
                m.faults_by_kind,
                m.backoff_events,
                m.failover_events,
            )
        };
        assert_eq!(counters(g), counters(w), "{ctx}: device {d} counters");
    }
}

/// Which rarely rendered parts of the JSON the checked reports reached.
#[derive(Default)]
struct Reach {
    donor: bool,
    note: bool,
    requeued: bool,
    host_iters: bool,
    dropouts: bool,
    prediction_null: bool,
    prediction: bool,
}

impl Reach {
    fn saw(&mut self, json: &str) {
        self.donor |= json.contains("\"donor\": ");
        self.note |= json.contains("\"note\": ");
        self.requeued |= json.contains("\"requeued\": true");
        self.host_iters |= json.contains("\"host_iters\": ");
        self.dropouts |= !json.contains("\"dropouts\": [],");
        self.prediction_null |= json.contains("\"prediction\": null,");
        self.prediction |= json.contains("\"prediction\": {");
    }
}

/// Render `report` both ways and fold its trace both ways.
fn check(report: &OffloadReport, ctx: &str, reach: &mut Reach) {
    let rr = RunReport::from_offload(report);
    let json = rr.to_json();
    assert_eq!(json, reference::to_json(&rr), "{ctx}: to_json");
    reach.saw(&json);
    let n = rr.metrics.devices.len();
    assert_metrics_identical(&rr.metrics, &reference::from_trace(&report.trace, n), ctx);
    for n_devices in [0, 1, n + 2] {
        assert_metrics_identical(
            &Metrics::from_trace(&report.trace, n_devices),
            &reference::from_trace(&report.trace, n_devices),
            &format!("{ctx} n_devices={n_devices}"),
        );
    }
}

fn region(machine: &Machine, n: u64, alg: Algorithm) -> homp_core::OffloadRegionBuilder {
    let devices: Vec<DeviceId> = (0..machine.devices.len() as DeviceId).collect();
    let aligned = || DistPolicy::Align { target: "loop".into(), ratio: 1 };
    OffloadRegion::builder("axpy")
        .trip_count(n)
        .devices(devices)
        .algorithm(alg)
        .map_1d("x", MapDir::To, n, 8, aligned())
        .map_1d("y", MapDir::ToFrom, n, 8, aligned())
}

/// One offload of `region` on `machine` at seed 42 with `plan`'s faults,
/// the decision log on or off.
fn run(
    machine: &Machine,
    plan: FaultPlan,
    region: &OffloadRegion,
    intensity: KernelIntensity,
    log: bool,
) -> OffloadReport {
    let config = RuntimeConfig::new().faults(FaultConfig::new(plan)).decision_log(log);
    let mut rt = config.build(machine.clone());
    let mut k = CoverageKernel::with_intensity(region.trip_count, intensity);
    let report = rt.offload(region, &mut k).run().expect("scenario offload runs");
    k.assert_exactly_once("render scenario");
    report
}

fn axpy() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 2.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    }
}

fn compute_bound() -> KernelIntensity {
    KernelIntensity { flops_per_iter: 50_000.0, ..axpy() }
}

#[test]
fn every_algorithm_and_fault_script_renders_as_the_reference() {
    let n = 60_000u64;
    let mut reach = Reach::default();
    for machine in [Machine::four_k40(), Machine::full_node()] {
        for alg in Algorithm::extended_suite() {
            let r = region(&machine, n, alg).build();
            let healthy = run(&machine, FaultPlan::none(), &r, axpy(), false).makespan;
            let all_dropped = (0..machine.devices.len() as DeviceId)
                .fold(FaultPlan::new(3), |p, d| p.with_dropout_at(d, 1e-6));
            let scripts = [
                ("no fault", FaultPlan::none()),
                ("one dropout", FaultPlan::new(9).with_dropout_at(1, healthy.as_secs() * 0.5)),
                ("flaky DMA", FaultPlan::new(5).with_transient_dma(0, 0.3)),
                ("all dropped", all_dropped),
            ];
            for (name, plan) in scripts {
                for log in [false, true] {
                    let ctx = format!("{} {alg} {name} log={log}", machine.name);
                    check(&run(&machine, plan.clone(), &r, axpy(), log), &ctx, &mut reach);
                }
            }
        }
    }
    assert!(reach.requeued, "a dropout must requeue a chunk");
    assert!(reach.host_iters, "losing every device must run the host fallback");
    assert!(reach.dropouts, "a dropout must be listed");
    assert!(reach.prediction_null && reach.prediction, "both prediction renderings");
}

/// A ramped, compute-bound loop under WORK_ASSIST: the devices that
/// finish first steal from the straggler, so `"assist"` decisions with
/// a `donor` reach the renderer.
#[test]
fn work_assist_steals_render_as_the_reference() {
    let n = 200_000u64;
    let machine = Machine::four_k40();
    let ramp: fn(u64) -> f64 = |i| 1.0 + 4.0 * (i as f64 / 200_000.0);
    let alg = Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: None };
    let r = region(&machine, n, alg).cost_profile(ramp).build();
    let mut reach = Reach::default();
    for log in [false, true] {
        let report = run(&machine, FaultPlan::none(), &r, compute_bound(), log);
        if log {
            assert!(report.decisions.iter().any(|d| d.stage == "assist"), "assists must fire");
        }
        check(&report, &format!("work-assist straggler log={log}"), &mut reach);
    }
    assert!(reach.donor, "assist decisions render their donor");
}

/// Chunked runs whose health tracker degrades a slowed device and puts
/// a recovered one on probation: `"health"` decisions carry a `note`.
#[test]
fn health_transitions_render_as_the_reference() {
    let n = 100_000u64;
    let machine = Machine::four_k40();
    let alg = Algorithm::Dynamic { chunk_pct: 2.0 };
    let r = region(&machine, n, alg).build();
    let healthy = run(&machine, FaultPlan::none(), &r, compute_bound(), false).makespan.as_secs();
    let scripts = [
        ("slowdown", FaultPlan::new(7).with_slowdown(1, 4.0, healthy * 0.3, healthy * 10.0)),
        (
            "probation",
            FaultPlan::new(7)
                .with_dropout_at(2, healthy * 0.25)
                .with_recovery_at(2, healthy * 0.45),
        ),
    ];
    let mut reach = Reach::default();
    for (name, plan) in scripts {
        for log in [false, true] {
            let report = run(&machine, plan.clone(), &r, compute_bound(), log);
            if log {
                assert!(report.decisions.iter().any(|d| d.stage == "health"), "{name}");
            }
            check(&report, &format!("chunked {name} log={log}"), &mut reach);
        }
    }
    assert!(reach.note, "health transitions render their note");
}

/// splitmix64, so one proptest seed expands into a whole report.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A float from one of the classes a rendered field can hold:
    /// arbitrary bit patterns, fractions, seconds, millisecond
    /// makespans, percentages, exact binary ties, and the special
    /// values.
    fn float(&mut self) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        match self.below(9) {
            0 => f64::from_bits(self.next()),
            1 => unit,
            2 => unit * 1e-3,
            3 => unit * 1e3,
            4 => (unit - 0.5) * 400.0,
            5 => (self.below(1 << 20) as f64 + 0.5) / (1u64 << self.below(12)) as f64,
            6 => [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE / 3.0]
                [self.below(6) as usize],
            7 => unit * 2f64.powi(52 - 9) * 2.0,
            _ => -unit * 1e-7,
        }
    }
}

fn synthetic_report(seed: u64) -> RunReport {
    const STAGES: [&str; 8] =
        ["static", "chunk", "sample", "stage2", "requeue", "assist", "health", "host"];
    const NOTES: [&str; 3] = ["healthy->degraded", "quarantined->probation", "host-fallback"];
    const SOURCES: [PredictionSource; 4] = [
        PredictionSource::Model1,
        PredictionSource::Model2,
        PredictionSource::Measured,
        PredictionSource::History,
    ];
    let mut g = Mix(seed);
    let rows = 1 + g.below(9) as usize;
    let devices: Vec<DeviceId> = (0..rows as DeviceId).filter(|_| g.below(4) != 0).collect();
    let metrics = Metrics {
        makespan_s: g.float(),
        devices: (0..rows)
            .map(|_| {
                let mut m = DeviceMetrics::default();
                for b in &mut m.busy_s {
                    *b = g.float();
                }
                m.utilization = g.float();
                m.overlap_fraction = g.float();
                m.queue_wait_s = g.float();
                m.completion_s = g.float();
                m.h2d_bytes = g.next() >> g.below(64);
                m.d2h_bytes = g.next() >> g.below(64);
                m.kernel_iters = g.next() >> g.below(64);
                m
            })
            .collect(),
    };
    let decisions = (0..g.below(12))
        .map(|_| {
            let start = g.next() >> g.below(64);
            let predicted = (g.below(2) == 0).then(|| g.float());
            ChunkDecision {
                slot: g.below(16) as usize,
                device: g.next() as DeviceId,
                range: Range::new(start, start.saturating_add(g.next() >> g.below(64))),
                stage: STAGES[g.below(8) as usize],
                donor: (g.below(3) == 0).then(|| g.next() as DeviceId),
                predicted_s: predicted,
                source: predicted.filter(|_| g.below(5) != 0).map(|_| SOURCES[g.below(4) as usize]),
                realized_s: g.float(),
                requeued: g.below(2) == 0,
                note: (g.below(3) == 0).then(|| NOTES[g.below(3) as usize]),
            }
        })
        .collect();
    let prediction = (g.below(2) == 0).then(|| PredictionStats {
        predicted_chunks: g.next() as usize >> g.below(64),
        mean_abs_err_pct: g.float(),
        max_abs_err_pct: g.float(),
        mean_err_pct: g.float(),
    });
    RunReport {
        algorithm: ["BLOCK", "MODEL_2_AUTO", "WORK_ASSIST(5%)"][g.below(3) as usize].to_string(),
        makespan_ms: g.float(),
        imbalance_pct: g.float(),
        load_balance_ratio: g.float(),
        counts: devices.iter().map(|_| g.next() >> g.below(64)).collect(),
        devices,
        metrics,
        decisions,
        prediction,
        flops_per_iter: g.float(),
        transient_retries: g.next() >> g.below(64),
        dropouts: (0..g.below(3)).map(|_| g.below(8) as DeviceId).collect(),
        requeued_chunks: g.next() >> g.below(64),
        host_iters: if g.below(2) == 0 { 0 } else { g.next() >> g.below(64) },
    }
}

/// Random event soup: few devices, every kind, times on a coarse grid
/// so equal starts, equal ends, nested and zero-length intervals are
/// common, and fault labels with and without a kind tag. Some events are
/// empty at `+0.0` or `-0.0`.
fn soup(seed: u64, len: usize, devices: u64) -> Trace {
    const LABELS: [&str; 5] =
        ["k", "chunk-in [dma-error]", "launch [launch-timeout]", "x [dropout]", "y [slowdown]"];
    let mut g = Mix(seed);
    let mut tr = Trace::new();
    for _ in 0..len {
        let (start, end) = match g.below(16) {
            0 => (-0.0, -0.0),
            1 => (0.0, 0.0),
            _ => {
                let start = g.below(80) as f64 / 8.0;
                let len = if g.below(4) == 0 {
                    0.0
                } else {
                    g.below(24) as f64 / 8.0 + g.below(7) as f64 * 1e-9
                };
                (start, start + len)
            }
        };
        tr.record(
            g.below(devices) as DeviceId,
            OpKind::ALL[g.below(OpKind::N as u64) as usize],
            SimTime::from_secs(start),
            SimTime::from_secs(end),
            g.below(1000),
            LABELS[g.below(5) as usize],
        );
    }
    tr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn synthetic_reports_render_as_the_reference(seed in 0u64..=u64::MAX) {
        let r = synthetic_report(seed);
        prop_assert_eq!(r.to_json(), reference::to_json(&r), "seed {}", seed);
    }

    #[test]
    fn event_soups_fold_as_the_reference(
        seed in 0u64..=u64::MAX,
        len in 0usize..120,
        devices in 1u64..7,
        n_devices in 0usize..9,
    ) {
        let tr = soup(seed, len, devices);
        assert_metrics_identical(
            &Metrics::from_trace(&tr, n_devices),
            &reference::from_trace(&tr, n_devices),
            &format!("seed {seed} len {len}"),
        );
    }
}

/// A trace whose latest end is zero, reached at both `+0.0` and `-0.0`:
/// the makespan is the last of the equal maxima, as `Trace::makespan`
/// takes it.
#[test]
fn signed_zero_makespans_fold_as_the_reference() {
    for ends in [[0.0, -0.0], [-0.0, 0.0]] {
        let mut tr = Trace::new();
        for (d, &z) in ends.iter().enumerate() {
            let at = SimTime::from_secs(z);
            tr.record(d as DeviceId, OpKind::Init, at, at, 0, "z");
        }
        let ctx = format!("ends {ends:?}");
        assert_metrics_identical(
            &Metrics::from_trace(&tr, 2),
            &reference::from_trace(&tr, 2),
            &ctx,
        );
    }
}

#[test]
fn a_large_soup_folds_as_the_reference() {
    let tr = soup(29_168, 30_000, 8);
    assert_metrics_identical(
        &Metrics::from_trace(&tr, 8),
        &reference::from_trace(&tr, 8),
        "large soup",
    );
}
