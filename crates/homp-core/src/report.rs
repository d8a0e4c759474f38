//! Scheduler decision log and per-run observability report.
//!
//! The paper's evaluation judges algorithms by observables — per-device
//! breakdowns (Fig. 6/7), max/min completion-time load-balance ratios
//! (Table IV/V), and the gap between a model's *predicted* chunk cost
//! and what the simulator actually charged. This module makes those
//! observables first-class: when [`crate::RuntimeConfig::decision_log`]
//! is on, every scheduler records one [`ChunkDecision`] per chunk it placed
//! (device, predicted cost and its source, realized cost), and
//! [`RunReport`] folds the decisions together with trace-derived
//! [`Metrics`] into a renderable report with prediction-error
//! statistics.
//!
//! The log is strictly read-side: recording a decision touches no
//! engine calendar, no noise sequence, and no launch counter, so a run
//! with the log enabled is byte-identical (trace CSV, makespan) to one
//! without — a golden test pins this down.

use crate::region::Range;
use crate::runtime::OffloadReport;
use homp_sim::fixed::push_fixed;
use homp_sim::{DeviceId, Metrics, OpKind};
use std::fmt::Write as _;

/// Where a chunk's predicted cost came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionSource {
    /// `MODEL_1_AUTO`: roofline-attenuated compute capability only.
    Model1,
    /// `MODEL_2_AUTO`: compute plus Hockney data-movement cost.
    Model2,
    /// Stage-2 of a profiling algorithm: throughput measured in stage 1.
    Measured,
    /// History fit (`T = a + b·N`) from earlier offloads.
    History,
}

impl PredictionSource {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            PredictionSource::Model1 => "MODEL_1",
            PredictionSource::Model2 => "MODEL_2",
            PredictionSource::Measured => "PROFILE",
            PredictionSource::History => "HISTORY",
        }
    }
}

/// One scheduler decision: a chunk placed on a device, with the cost the
/// scheduler expected (when its algorithm predicts one) and the cost the
/// simulator realized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkDecision {
    /// Slot index in the region's device list.
    pub slot: usize,
    /// Device the chunk ran on.
    pub device: DeviceId,
    /// Iteration range of the chunk.
    pub range: Range,
    /// Which scheduling stage placed it: `"static"`, `"chunk"`,
    /// `"sample"`, `"stage2"`, `"requeue"`, `"assist"`, `"health"`
    /// (a lifecycle transition, empty range) or `"host"` (host-fallback
    /// execution after every device quarantined).
    pub stage: &'static str,
    /// For `"assist"` decisions: the device the range was stolen from
    /// (the straggler or quarantined donor). `None` everywhere else.
    pub donor: Option<DeviceId>,
    /// Predicted wall time for the chunk, seconds — `None` for
    /// schedulers that do not predict (BLOCK, SCHED_*, stage-1 samples).
    pub predicted_s: Option<f64>,
    /// Source of the prediction, present iff `predicted_s` is.
    pub source: Option<PredictionSource>,
    /// Realized time from when the proxy started the chunk to its
    /// out-transfer completion, seconds (includes queueing on the
    /// device's engines, retries and backoff).
    pub realized_s: f64,
    /// Whether this chunk was re-run on a survivor after its original
    /// device failed.
    pub requeued: bool,
    /// Free-form annotation: health-lifecycle transitions
    /// (`"healthy->degraded"`, `"quarantined->probation"`, …) and the
    /// host-fallback marker. `None` for ordinary chunk placements.
    pub note: Option<&'static str>,
}

impl ChunkDecision {
    /// A plain placement: no prediction, not requeued, no donor, no
    /// note. Schedulers fill in the rest with struct-update syntax.
    pub(crate) fn placed(
        slot: usize,
        device: DeviceId,
        range: Range,
        stage: &'static str,
        realized_s: f64,
    ) -> ChunkDecision {
        ChunkDecision {
            slot,
            device,
            range,
            stage,
            predicted_s: None,
            source: None,
            realized_s,
            requeued: false,
            donor: None,
            note: None,
        }
    }

    /// Signed relative error of the prediction, percent
    /// (`(realized − predicted) / predicted · 100`); `None` when the
    /// decision carries no usable prediction.
    pub fn error_pct(&self) -> Option<f64> {
        match self.predicted_s {
            Some(p) if p > 0.0 => Some((self.realized_s - p) / p * 100.0),
            _ => None,
        }
    }
}

/// Aggregate prediction-error statistics over a run's decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictionStats {
    /// Decisions that carried a prediction.
    pub predicted_chunks: usize,
    /// Mean of |error|, percent.
    pub mean_abs_err_pct: f64,
    /// Largest |error|, percent.
    pub max_abs_err_pct: f64,
    /// Mean signed error, percent (positive: model was optimistic).
    pub mean_err_pct: f64,
}

impl PredictionStats {
    /// Fold the decisions that carry predictions; `None` if none do.
    pub fn from_decisions(decisions: &[ChunkDecision]) -> Option<PredictionStats> {
        let errs: Vec<f64> = decisions.iter().filter_map(|d| d.error_pct()).collect();
        if errs.is_empty() {
            return None;
        }
        let n = errs.len() as f64;
        Some(PredictionStats {
            predicted_chunks: errs.len(),
            mean_abs_err_pct: errs.iter().map(|e| e.abs()).sum::<f64>() / n,
            max_abs_err_pct: errs.iter().map(|e| e.abs()).fold(0.0, f64::max),
            mean_err_pct: errs.iter().sum::<f64>() / n,
        })
    }
}

/// Everything observable about one offload, ready to render: trace
/// metrics, the decision log, prediction errors, and the paper's
/// load-balance ratio.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Paper notation of the algorithm that ran.
    pub algorithm: String,
    /// Makespan, milliseconds.
    pub makespan_ms: f64,
    /// The Fig. 6 load-imbalance metric, percent.
    pub imbalance_pct: f64,
    /// Max/min completion-time ratio over participating devices
    /// (Table IV/V).
    pub load_balance_ratio: f64,
    /// Participating devices, slot order.
    pub devices: Vec<DeviceId>,
    /// Iterations per slot.
    pub counts: Vec<u64>,
    /// Trace-derived per-device metrics (indexed by device id).
    pub metrics: Metrics,
    /// The decision log (empty unless the log was enabled).
    pub decisions: Vec<ChunkDecision>,
    /// Prediction-error statistics, when any decision predicted.
    pub prediction: Option<PredictionStats>,
    /// FLOPs per loop iteration (for the FLOP counter).
    pub flops_per_iter: f64,
    /// Transient retries performed by fault handling.
    pub transient_retries: u64,
    /// Devices quarantined during the run.
    pub dropouts: Vec<DeviceId>,
    /// Chunks re-run on survivors.
    pub requeued_chunks: u64,
    /// Iterations executed by the host fallback after every device
    /// quarantined (zero on any run that kept at least one device).
    pub host_iters: u64,
}

impl RunReport {
    /// Build from an [`OffloadReport`] (which owns the trace and the
    /// decision log).
    pub fn from_offload(report: &OffloadReport) -> RunReport {
        let n_devices = report.devices.iter().map(|&d| d as usize + 1).max().unwrap_or(0);
        let metrics = Metrics::from_trace(&report.trace, n_devices);
        RunReport {
            algorithm: report.algorithm.to_string(),
            makespan_ms: report.makespan.as_millis(),
            imbalance_pct: report.imbalance_pct,
            load_balance_ratio: metrics.load_balance_ratio(),
            devices: report.devices.clone(),
            counts: report.counts.clone(),
            prediction: PredictionStats::from_decisions(&report.decisions),
            decisions: report.decisions.clone(),
            flops_per_iter: report.flops_per_iter,
            transient_retries: report.faults.transient_retries,
            dropouts: report.faults.dropouts.clone(),
            requeued_chunks: report.faults.requeued_chunks,
            host_iters: report.faults.host_iters,
            metrics,
        }
    }

    /// Human-readable multi-line rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== run report: {} ==", self.algorithm);
        let _ = writeln!(
            out,
            "makespan {:.6} ms | load-balance ratio {:.4} | imbalance {:.2} % | chunks {}",
            self.makespan_ms,
            self.load_balance_ratio,
            self.imbalance_pct,
            self.decisions.len(),
        );
        let _ = writeln!(
            out,
            "moved {} B in / {} B out | {} iterations ({:.3e} FLOPs)",
            self.metrics.total_h2d_bytes(),
            self.metrics.total_d2h_bytes(),
            self.metrics.total_kernel_iters(),
            self.metrics.total_flops(self.flops_per_iter),
        );
        if self.transient_retries > 0 || !self.dropouts.is_empty() || self.requeued_chunks > 0 {
            let _ = writeln!(
                out,
                "faults: {} retries, dropouts {:?}, {} chunks requeued",
                self.transient_retries, self.dropouts, self.requeued_chunks
            );
        }
        if self.host_iters > 0 {
            let _ = writeln!(
                out,
                "host fallback executed {} iterations (all devices quarantined)",
                self.host_iters
            );
        }
        let _ = writeln!(
            out,
            "{:<6} {:>10} {:>7} {:>8} {:>9} {:>11} {:>11} {:>10}",
            "device", "iters", "util", "overlap", "wait us", "h2d B", "d2h B", "compl ms"
        );
        for (s, &dev) in self.devices.iter().enumerate() {
            let m = &self.metrics.devices[dev as usize];
            let _ = writeln!(
                out,
                "dev{:<3} {:>10} {:>6.1}% {:>7.1}% {:>9.1} {:>11} {:>11} {:>10.6}",
                dev,
                self.counts[s],
                m.utilization * 100.0,
                m.overlap_fraction * 100.0,
                m.queue_wait_s * 1e6,
                m.h2d_bytes,
                m.d2h_bytes,
                m.completion_s * 1e3,
            );
        }
        match &self.prediction {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "prediction error over {} chunk(s): mean |e| {:.2} %, max |e| {:.2} %, \
                     bias {:+.2} %",
                    p.predicted_chunks, p.mean_abs_err_pct, p.max_abs_err_pct, p.mean_err_pct
                );
            }
            None => {
                let _ = writeln!(out, "no model predictions (measured/static schedule)");
            }
        }
        out
    }

    /// JSON rendering (hand-serialized, no external deps; all floats at
    /// fixed precision so the bytes are stable across platforms). Floats
    /// go through [`push_fixed`], which writes what `{:.N}` writes.
    pub fn to_json(&self) -> String {
        let mut out =
            String::with_capacity(1024 + self.devices.len() * 384 + self.decisions.len() * 160);
        out.push_str("{\n  \"algorithm\": \"");
        out.push_str(&self.algorithm);
        fixed(&mut out, "\",\n  \"makespan_ms\": ", self.makespan_ms, 9);
        fixed(&mut out, ",\n  \"imbalance_pct\": ", self.imbalance_pct, 4);
        fixed(&mut out, ",\n  \"load_balance_ratio\": ", self.load_balance_ratio, 6);
        fixed(&mut out, ",\n  \"flops_per_iter\": ", self.flops_per_iter, 3);
        uint(&mut out, ",\n  \"faults\": {\"transient_retries\": ", self.transient_retries);
        let _ = write!(out, ", \"dropouts\": {:?}", self.dropouts);
        uint(&mut out, ", \"requeued_chunks\": ", self.requeued_chunks);
        // `host_iters` is emitted only when the host fallback ran, so
        // fault-free reports stay byte-identical to the existing goldens.
        if self.host_iters > 0 {
            let _ = write!(out, ", \"host_iters\": {}", self.host_iters);
        }
        out.push_str("},\n");
        match &self.prediction {
            Some(p) => {
                uint(&mut out, "  \"prediction\": {\"chunks\": ", p.predicted_chunks as u64);
                fixed(&mut out, ", \"mean_abs_err_pct\": ", p.mean_abs_err_pct, 4);
                fixed(&mut out, ", \"max_abs_err_pct\": ", p.max_abs_err_pct, 4);
                fixed(&mut out, ", \"mean_err_pct\": ", p.mean_err_pct, 4);
                out.push_str("},\n");
            }
            None => {
                out.push_str("  \"prediction\": null,\n");
            }
        }
        out.push_str("  \"devices\": [\n");
        for (s, &dev) in self.devices.iter().enumerate() {
            let m = &self.metrics.devices[dev as usize];
            uint(&mut out, "    {\"device\": ", dev.into());
            uint(&mut out, ", \"iters\": ", self.counts[s]);
            fixed(&mut out, ", \"utilization\": ", m.utilization, 6);
            fixed(&mut out, ", \"overlap_fraction\": ", m.overlap_fraction, 6);
            fixed(&mut out, ", \"queue_wait_s\": ", m.queue_wait_s, 9);
            uint(&mut out, ", \"h2d_bytes\": ", m.h2d_bytes);
            uint(&mut out, ", \"d2h_bytes\": ", m.d2h_bytes);
            uint(&mut out, ", \"kernel_iters\": ", m.kernel_iters);
            fixed(&mut out, ", \"completion_s\": ", m.completion_s, 9);
            out.push_str(", \"busy_s\": {");
            for (i, k) in OpKind::ALL.iter().enumerate() {
                out.push_str(if i > 0 { ", \"" } else { "\"" });
                out.push_str(k.label());
                fixed(&mut out, "\": ", m.busy_s[i], 9);
            }
            out.push_str(if s + 1 < self.devices.len() { "}},\n" } else { "}}\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"decisions\": [\n");
        for (i, d) in self.decisions.iter().enumerate() {
            uint(&mut out, "    {\"slot\": ", d.slot as u64);
            uint(&mut out, ", \"device\": ", d.device.into());
            uint(&mut out, ", \"start\": ", d.range.start);
            uint(&mut out, ", \"end\": ", d.range.end);
            out.push_str(", \"stage\": \"");
            out.push_str(d.stage);
            out.push_str("\", \"requeued\": ");
            out.push_str(if d.requeued { "true" } else { "false" });
            fixed(&mut out, ", \"realized_s\": ", d.realized_s, 9);
            out.push_str(", ");
            // Emitted only when present so reports from assist-free
            // runs stay byte-identical to the pre-assist goldens.
            if let Some(donor) = d.donor {
                uint(&mut out, "\"donor\": ", donor.into());
                out.push_str(", ");
            }
            if let Some(note) = d.note {
                out.push_str("\"note\": \"");
                out.push_str(note);
                out.push_str("\", ");
            }
            match (d.predicted_s, d.source) {
                (Some(p), Some(src)) => {
                    fixed(&mut out, "\"predicted_s\": ", p, 9);
                    out.push_str(", \"source\": \"");
                    out.push_str(src.label());
                    out.push('"');
                }
                _ => out.push_str("\"predicted_s\": null, \"source\": null"),
            }
            out.push_str(if i + 1 < self.decisions.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Append `key`, then `x` at `decimals` places.
fn fixed(out: &mut String, key: &str, x: f64, decimals: usize) {
    out.push_str(key);
    push_fixed(out, x, decimals);
}

/// Append `key`, then the decimal digits of `n` (what `{n}` writes).
fn uint(out: &mut String, key: &str, mut n: u64) {
    out.push_str(key);
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(predicted: Option<f64>, realized: f64) -> ChunkDecision {
        ChunkDecision {
            predicted_s: predicted,
            source: predicted.map(|_| PredictionSource::Model2),
            ..ChunkDecision::placed(0, 0, Range::new(0, 10), "static", realized)
        }
    }

    #[test]
    fn error_pct_is_signed_relative() {
        assert_eq!(decision(Some(1.0), 1.5).error_pct(), Some(50.0));
        assert_eq!(decision(Some(2.0), 1.0).error_pct(), Some(-50.0));
        assert_eq!(decision(None, 1.0).error_pct(), None);
        assert_eq!(decision(Some(0.0), 1.0).error_pct(), None);
    }

    #[test]
    fn stats_fold_only_predicted_decisions() {
        let ds = vec![decision(Some(1.0), 1.1), decision(None, 9.0), decision(Some(1.0), 0.8)];
        let s = PredictionStats::from_decisions(&ds).unwrap();
        assert_eq!(s.predicted_chunks, 2);
        assert!((s.mean_abs_err_pct - 15.0).abs() < 1e-9);
        assert!((s.max_abs_err_pct - 20.0).abs() < 1e-9);
        assert!((s.mean_err_pct - (-5.0)).abs() < 1e-9);
        assert!(PredictionStats::from_decisions(&[decision(None, 1.0)]).is_none());
    }
}
