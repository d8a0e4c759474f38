//! Execution tracing.
//!
//! Figure 6 of the paper reports the accumulated breakdown of offloading
//! time per device — runtime init, host-to-device copies, kernel
//! execution, device-to-host copies, and barrier synchronization — with
//! a curve of incurred load imbalance (below 5% on average). The
//! [`Trace`] records every simulated operation with start/end times so
//! [`Metrics`](crate::Metrics) can fold that breakdown, the harness can
//! render ASCII Gantt charts for the examples, and export CSV.

use crate::device::DeviceId;
use crate::fixed::push_fixed;
use crate::time::{SimSpan, SimTime};
use std::fmt::Write as _;

/// Category of a traced operation, the x-axis groups of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Runtime initialization / scheduling bookkeeping.
    Init,
    /// Host-to-device data movement.
    H2D,
    /// Kernel execution.
    Kernel,
    /// Device-to-host data movement.
    D2H,
    /// Idle time waiting on the end-of-region barrier (load imbalance).
    Sync,
    /// Time lost to an injected fault (failed DMA, hung launch, or the
    /// truncated tail of an operation cut short by a device dropout).
    Fault,
    /// A proxy backing off before retrying a transiently failed
    /// operation (no device resource is held).
    Backoff,
    /// Recovery bookkeeping on a surviving device picking up work
    /// re-queued from a failed one.
    Failover,
}

impl OpKind {
    /// Number of categories.
    pub const N: usize = 8;

    /// All categories in display order.
    pub const ALL: [OpKind; OpKind::N] = [
        OpKind::Init,
        OpKind::H2D,
        OpKind::Kernel,
        OpKind::D2H,
        OpKind::Sync,
        OpKind::Fault,
        OpKind::Backoff,
        OpKind::Failover,
    ];

    /// Position in [`OpKind::ALL`]: the index of per-kind arrays such
    /// as [`crate::DeviceMetrics::busy_s`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Init => "INIT",
            OpKind::H2D => "H2D",
            OpKind::Kernel => "KERNEL",
            OpKind::D2H => "D2H",
            OpKind::Sync => "SYNC",
            OpKind::Fault => "FAULT",
            OpKind::Backoff => "BACKOFF",
            OpKind::Failover => "FAILOVER",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Handle to an interned event label (see [`Trace::label`]).
///
/// Labels repeat heavily — every chunk of a dynamic schedule records
/// `"chunk-in"`, `"chunk-launch"`, `"chunk-out"` and the kernel name —
/// so events store a small id into the trace's label table instead of
/// an owned `String` per event. This removes a heap allocation from
/// every simulated operation, the hottest path of the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(u32);

/// Whether the trace records simulated operations.
///
/// The recorder sits on the hottest path of the simulator — every
/// transfer, kernel, and barrier appends one event — so scheduling-only
/// workloads (parameter sweeps, torture benches) can switch recording
/// off without touching the calendar math: the virtual clock, noise
/// draw order, and scheduling decisions are bit-identical at both
/// levels, and so are the per-device busy time and completions the
/// engine keeps for every op ([`Engine::busy`](crate::Engine::busy),
/// which learned offloads read, and
/// [`Engine::imbalance_pct`](crate::Engine::imbalance_pct), which an
/// offload reports).
///
/// What [`TraceLevel::Off`] gives up is trace-*derived*
/// observability: [`Metrics::from_trace`](crate::Metrics::from_trace)
/// folds an empty event list, so utilization, per-kind busy times and
/// completions all read zero even though the schedule they would have
/// described is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TraceLevel {
    /// Record nothing. `events()` stays empty; trace metrics and
    /// renders are vacuous. Cheapest: the append is skipped entirely.
    Off,
    /// Record everything, labels included. The default — existing
    /// goldens (CSV, Chrome JSON, reports) are byte-identical.
    #[default]
    Full,
}

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Device the operation ran on.
    pub device: DeviceId,
    /// Category.
    pub kind: OpKind,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
    /// Bytes moved (transfers) or iterations executed (kernels).
    pub amount: u64,
    /// Interned label id; resolve with [`Trace::label`].
    pub label: LabelId,
}

impl TraceEvent {
    /// Duration of the operation.
    pub fn span(&self) -> SimSpan {
        self.end - self.start
    }
}

/// Recorder for one offload region (or a whole run).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// Interned label table, indexed by [`LabelId`]. The cardinality is
    /// tiny (a handful of fixed stage names plus the kernel names), so
    /// a linear probe beats a hash map here.
    labels: Vec<Box<str>>,
    /// Recording level; see [`TraceLevel`].
    level: TraceLevel,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty trace recording at `level`.
    pub fn with_level(level: TraceLevel) -> Self {
        Self { level, ..Self::default() }
    }

    /// Current recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Change the recording level. Takes effect for subsequent
    /// [`Trace::record`] calls; already-recorded events are kept.
    pub fn set_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    /// Intern `label`, returning its id (existing id if already seen).
    pub fn intern(&mut self, label: &str) -> LabelId {
        match self.labels.iter().position(|l| &**l == label) {
            Some(i) => LabelId(i as u32),
            None => {
                self.labels.push(label.into());
                LabelId((self.labels.len() - 1) as u32)
            }
        }
    }

    /// Resolve an interned label id back to its text.
    pub fn label(&self, id: LabelId) -> &str {
        &self.labels[id.0 as usize]
    }

    /// Record an operation, subject to the recording [`TraceLevel`].
    pub fn record(
        &mut self,
        device: DeviceId,
        kind: OpKind,
        start: SimTime,
        end: SimTime,
        amount: u64,
        label: &str,
    ) {
        debug_assert!(end >= start, "event ends before it starts");
        if self.level == TraceLevel::Off {
            return;
        }
        let label = self.intern(label);
        self.events.push(TraceEvent { device, kind, start, end, amount, label });
    }

    /// All events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all events (reuse between regions).
    ///
    /// Steady-state reuse is allocation-free: the event buffer's
    /// capacity is retained (`Vec::clear` never shrinks), and the
    /// interned label table is kept in full — ids from earlier regions
    /// stay valid, and a rewound engine re-records the same labels, so
    /// the second run of a reseeded runtime interns nothing new (see
    /// [`Trace::label_count`]). The recording level is also unchanged.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Number of distinct labels interned so far. Stable across
    /// [`Trace::clear`]; useful for asserting steady-state reuse.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Append every event of `other`, re-interning its labels into this
    /// trace's table.
    ///
    /// This is how a long-running service keeps one machine-wide trace
    /// across many per-request traces: each request's trace is taken
    /// out of the engine with its own small label table, and absorbing
    /// re-maps those ids onto the master table. Because requests reuse
    /// the same stage and kernel labels, the master table stays bounded
    /// by the label *vocabulary*, not by the request count — see the
    /// `absorb_label_table_is_bounded_by_vocabulary` test.
    ///
    /// Events are appended as-is (absolute times, recording order), so
    /// absorbing traces produced on a shared calendar yields a merged
    /// trace whose [`Metrics`](crate::Metrics) fold sees the
    /// true machine timeline. A trace at [`TraceLevel::Off`] absorbs
    /// nothing.
    pub fn absorb(&mut self, other: &Trace) {
        if self.level == TraceLevel::Off {
            return;
        }
        let map: Vec<LabelId> = other.labels.iter().map(|l| self.intern(l)).collect();
        let relabel = |e: &TraceEvent| TraceEvent { label: map[e.label.0 as usize], ..*e };
        self.events.extend(other.events.iter().map(relabel));
    }

    /// Capacity of the event buffer — retained across [`Trace::clear`]
    /// so steady-state reuse does not reallocate.
    pub fn events_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// The latest end time across all events (the region makespan).
    pub fn makespan(&self) -> SimTime {
        self.events.iter().map(|e| e.end).max().unwrap_or(SimTime::ZERO)
    }

    /// The events in canonical render order: by start, device, kind
    /// (in [`OpKind::ALL`] order), end, amount, then label *text*. Label
    /// ids depend on the order labels were interned, so they cannot be
    /// the key. Traces holding the same events render the same bytes
    /// whatever order the runtime issued them in; [`Trace::events`]
    /// keeps recording order.
    fn rows(&self) -> Vec<&TraceEvent> {
        let mut rows: Vec<&TraceEvent> = self.events.iter().collect();
        rows.sort_unstable_by(|a, b| {
            (a.start, a.device, a.kind.index(), a.end, a.amount)
                .cmp(&(b.start, b.device, b.kind.index(), b.end, b.amount))
                .then_with(|| self.label(a.label).cmp(self.label(b.label)))
        });
        rows
    }

    /// CSV export: `device,kind,start_s,end_s,amount,label`, one row per
    /// event in canonical order: by start, device, kind, end, amount,
    /// then label text ([`Trace::events`] keeps recording order).
    ///
    /// The buffer is preallocated from the event count and rows are
    /// written in place, times through [`push_fixed`] — no per-row
    /// `String` churn.
    pub fn to_csv(&self) -> String {
        // ~56 bytes of fixed-width fields per row plus the label.
        let mut out = String::with_capacity(40 + self.events.len() * 72);
        out.push_str("device,kind,start_s,end_s,amount,label\n");
        for e in self.rows() {
            let _ = write!(out, "{},{},", e.device, e.kind);
            push_fixed(&mut out, e.start.as_secs(), 9);
            out.push(',');
            push_fixed(&mut out, e.end.as_secs(), 9);
            let _ = writeln!(out, ",{},{}", e.amount, self.label(e.label));
        }
        out
    }

    /// Export as Chrome trace-event JSON (load in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev)): one complete event (`"X"`)
    /// per operation, devices as process IDs, operation kinds as
    /// threads, in the same canonical order as [`Trace::to_csv`].
    /// Hand-serialized — labels are escaped, no serde needed.
    pub fn to_chrome_json(&self) -> String {
        fn escape_into(out: &mut String, s: &str) {
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if c.is_control() => out.push(' '),
                    c => out.push(c),
                }
            }
        }
        let mut out = String::with_capacity(16 + self.events.len() * 140);
        out.push_str("[\n");
        for (i, e) in self.rows().into_iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  {\"name\":\"");
            escape_into(&mut out, self.label(e.label));
            let _ = write!(out, r#"","cat":"{}","ph":"X","ts":"#, e.kind);
            push_fixed(&mut out, e.start.as_micros(), 3);
            out.push_str(r#","dur":"#);
            push_fixed(&mut out, e.span().as_secs() * 1e6, 3);
            let _ = write!(
                out,
                r#","pid":{},"tid":"{}","args":{{"amount":{}}}}}"#,
                e.device, e.kind, e.amount
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Render an ASCII Gantt chart, one row per device, `width` columns
    /// spanning the makespan. Kernel time renders as `#`, H2D as `<`,
    /// D2H as `>`, init as `i`, sync as `.`, faults as `X`, retry
    /// backoff as `~`, failover bookkeeping as `+`. Events are painted
    /// in the canonical order of [`Trace::to_csv`], so where two share a
    /// cell the one that sorts later wins.
    pub fn gantt(&self, n_devices: usize, width: usize) -> String {
        let total = self.makespan().as_secs();
        if total <= 0.0 || width == 0 {
            return String::new();
        }
        // Grow past `n_devices` if the trace mentions higher device ids
        // (e.g. a merged trace or a machine-file mismatch) — a chart
        // with extra rows beats a panic.
        let rows_n =
            self.events.iter().map(|e| e.device as usize + 1).max().unwrap_or(0).max(n_devices);
        let mut rows = vec![vec![' '; width]; rows_n];
        for e in self.rows() {
            let glyph = match e.kind {
                OpKind::Init => 'i',
                OpKind::H2D => '<',
                OpKind::Kernel => '#',
                OpKind::D2H => '>',
                OpKind::Sync => '.',
                OpKind::Fault => 'X',
                OpKind::Backoff => '~',
                OpKind::Failover => '+',
            };
            let s = ((e.start.as_secs() / total) * width as f64) as usize;
            let mut t = ((e.end.as_secs() / total) * width as f64).ceil() as usize;
            t = t.min(width);
            for c in &mut rows[e.device as usize][s..t] {
                // The later row wins a shared boundary cell; sync never
                // overwrites work.
                if glyph == '.' && *c != ' ' {
                    continue;
                }
                *c = glyph;
            }
        }
        // One buffer, written with `fmt::Write` like `to_csv` — no
        // per-row `format!` temporaries.
        let mut out = String::with_capacity((rows_n + 1) * (width + 9));
        for (d, row) in rows.iter().enumerate() {
            let head = out.len();
            let _ = write!(out, "dev{d}");
            while out.len() - head < 5 {
                out.push(' ');
            }
            out.push('|');
            out.extend(row.iter());
            out.push_str("|\n");
        }
        // The axis label right-aligns a composite ("X.XXX ms"), which
        // needs one small staging string; rows above stay churn-free.
        let mut ms = String::with_capacity(16);
        let _ = write!(ms, "{:.3} ms", total * 1e3);
        let _ = writeln!(out, "       0 {ms:>width$}", width = width.saturating_sub(2));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k}");
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::Kernel, t(0.0), t(1.0), 42, "axpy");
        let csv = tr.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "device,kind,start_s,end_s,amount,label");
        assert!(lines.next().unwrap().contains("KERNEL"));
    }

    #[test]
    fn gantt_renders_rows() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::H2D, t(0.0), t(0.5), 1, "x");
        tr.record(0, OpKind::Kernel, t(0.5), t(1.0), 1, "k");
        tr.record(1, OpKind::Kernel, t(0.0), t(1.0), 1, "k");
        let g = tr.gantt(2, 20);
        assert!(g.contains("dev0 |"));
        assert!(g.contains('#'));
        assert!(g.contains('<'));
    }

    #[test]
    fn gantt_tolerates_out_of_range_device_ids() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::Kernel, t(0.0), t(1.0), 1, "k");
        // Device 5 on a "2-device" chart: rows grow instead of panicking.
        tr.record(5, OpKind::Kernel, t(0.0), t(0.5), 1, "k");
        let g = tr.gantt(2, 20);
        assert!(g.contains("dev5 |"));
        assert_eq!(g.matches('|').count(), 12, "6 rows, two bars each:\n{g}");
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::H2D, t(0.0), t(0.5), 1024, r#"chunk "0" \ in"#);
        tr.record(1, OpKind::Kernel, t(0.5), t(1.0), 99, "axpy");
        let json = tr.to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // Quotes and backslashes in labels must be escaped.
        assert!(json.contains(r#"chunk \"0\" \\ in"#));
        assert!(json.contains(r#""pid":1"#));
        assert!(json.contains(r#""dur":500"#), "0.5 s = 500000 us: {json}");
    }

    /// Both exports write every row as the `core::fmt` templates they
    /// replaced would, times at `{:.9}` s and `{:.3}` µs, in canonical
    /// row order (every label is the same, so the numeric key decides).
    #[test]
    fn exports_match_fmt_templates() {
        let mut tr = Trace::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let start = (x >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi((i % 7) as i32 - 4);
            let len = (x % 1_000_003) as f64 * 1e-9 * (i % 3) as f64;
            let kind = OpKind::ALL[(x % 8) as usize];
            tr.record((x % 9) as DeviceId, kind, t(start), t(start + len), x >> 40, "lbl");
        }
        let mut rows = tr.events().to_vec();
        rows.sort_by_key(|e| (e.start, e.device, e.kind.index(), e.end, e.amount));
        let mut csv = String::from("device,kind,start_s,end_s,amount,label\n");
        let mut chrome = String::from("[\n");
        for (i, e) in rows.iter().enumerate() {
            let (s, end) = (e.start.as_secs(), e.end.as_secs());
            let _ = writeln!(csv, "{},{},{s:.9},{end:.9},{},lbl", e.device, e.kind, e.amount);
            let _ = write!(
                chrome,
                r#"{}  {{"name":"lbl","cat":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":{},"tid":"{}","args":{{"amount":{}}}}}"#,
                if i > 0 { ",\n" } else { "" },
                e.kind,
                e.start.as_micros(),
                e.span().as_secs() * 1e6,
                e.device,
                e.kind,
                e.amount
            );
        }
        chrome.push_str("\n]\n");
        assert_eq!(tr.to_csv(), csv);
        assert_eq!(tr.to_chrome_json(), chrome);
    }

    /// The same events recorded in two orders, so their labels are
    /// interned in two orders and get different ids, render the same
    /// CSV, Chrome JSON and Gantt chart.
    #[test]
    fn renders_do_not_depend_on_recording_order() {
        let events = [
            (1, OpKind::H2D, 0.0, 0.5, 64, "map-in"),
            (0, OpKind::Init, 0.0, 0.1, 0, "axpy"),
            (0, OpKind::H2D, 0.1, 0.5, 64, "map-in"),
            (0, OpKind::Kernel, 0.5, 2.0, 100, "axpy"),
            (1, OpKind::Kernel, 0.5, 1.5, 100, "axpy"),
            // Equal but for the label: only its text orders these two.
            (1, OpKind::D2H, 1.5, 1.8, 32, "map-out"),
            (1, OpKind::D2H, 1.5, 1.8, 32, "assist-out"),
            (0, OpKind::D2H, 2.0, 2.2, 64, "map-out"),
        ];
        let mut fwd = Trace::new();
        for &(d, k, s, e, a, l) in &events {
            fwd.record(d, k, t(s), t(e), a, l);
        }
        let mut rev = Trace::new();
        for &(d, k, s, e, a, l) in events.iter().rev() {
            rev.record(d, k, t(s), t(e), a, l);
        }
        assert_ne!(fwd.events()[0].label, rev.events()[7].label, "ids differ between tables");

        let csv = fwd.to_csv();
        assert_eq!(csv, rev.to_csv());
        assert_eq!(fwd.to_chrome_json(), rev.to_chrome_json());
        // Device 0's map-in and kernel share a boundary cell.
        assert_eq!(fwd.gantt(2, 40), rev.gantt(2, 40));
        let labels: Vec<&str> =
            csv.lines().skip(1).map(|l| l.rsplit(',').next().unwrap()).collect();
        assert_eq!(
            labels,
            ["axpy", "map-in", "map-in", "axpy", "axpy", "assist-out", "map-out", "map-out"]
        );
    }

    #[test]
    fn chrome_json_empty() {
        assert_eq!(Trace::new().to_chrome_json(), "[\n\n]\n");
    }

    #[test]
    fn labels_are_interned_once() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::Kernel, t(0.0), t(1.0), 1, "axpy");
        tr.record(1, OpKind::Kernel, t(1.0), t(2.0), 1, "axpy");
        tr.record(0, OpKind::H2D, t(0.0), t(0.5), 8, "chunk-in");
        assert_eq!(tr.events()[0].label, tr.events()[1].label, "same text, same id");
        assert_ne!(tr.events()[0].label, tr.events()[2].label);
        assert_eq!(tr.label(tr.events()[2].label), "chunk-in");
    }

    #[test]
    fn clear_keeps_interned_labels_stable() {
        let mut tr = Trace::new();
        tr.record(0, OpKind::Kernel, t(0.0), t(1.0), 1, "axpy");
        let id = tr.events()[0].label;
        tr.clear();
        assert!(tr.is_empty());
        tr.record(0, OpKind::Kernel, t(0.0), t(1.0), 1, "axpy");
        assert_eq!(tr.events()[0].label, id, "re-recorded label reuses its id");
        assert_eq!(tr.label(id), "axpy");
    }

    #[test]
    fn clear_retains_event_capacity_and_labels() {
        let mut tr = Trace::new();
        for i in 0..100 {
            tr.record(0, OpKind::Kernel, t(i as f64), t(i as f64 + 0.5), 1, "axpy");
            tr.record(0, OpKind::H2D, t(i as f64), t(i as f64 + 0.1), 8, "chunk-in");
        }
        let cap = tr.events_capacity();
        let labels = tr.label_count();
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.events_capacity(), cap, "clear must not shrink the event buffer");
        assert_eq!(tr.label_count(), labels, "clear must keep the label table");
        // Second run re-records the same labels: zero re-interning.
        for i in 0..100 {
            tr.record(0, OpKind::Kernel, t(i as f64), t(i as f64 + 0.5), 1, "axpy");
            tr.record(0, OpKind::H2D, t(i as f64), t(i as f64 + 0.1), 8, "chunk-in");
        }
        assert_eq!(tr.label_count(), labels, "steady state interns no new labels");
        assert_eq!(tr.events_capacity(), cap, "steady state reallocates nothing");
    }

    #[test]
    fn absorb_remaps_labels_and_keeps_times() {
        let mut a = Trace::new();
        a.record(0, OpKind::Kernel, t(0.0), t(1.0), 5, "axpy");
        a.record(0, OpKind::H2D, t(1.0), t(2.0), 8, "chunk-in");
        let mut b = Trace::new();
        // Interned in a different order, so raw ids differ between the
        // two tables and a blind event copy would mislabel.
        b.record(1, OpKind::H2D, t(2.0), t(3.0), 16, "chunk-in");
        b.record(1, OpKind::Kernel, t(3.0), t(5.0), 7, "axpy");
        b.record(1, OpKind::D2H, t(5.0), t(6.0), 4, "map-out");
        a.absorb(&b);
        assert_eq!(a.len(), 5);
        let labels: Vec<&str> = a.events().iter().map(|e| a.label(e.label)).collect();
        assert_eq!(labels, ["axpy", "chunk-in", "chunk-in", "axpy", "map-out"]);
        assert_eq!(a.label_count(), 3, "shared labels are not duplicated");
        assert_eq!(a.events()[4].start, t(5.0), "absolute times are preserved");
        assert_eq!(a.makespan(), t(6.0));
    }

    #[test]
    fn absorb_label_table_is_bounded_by_vocabulary() {
        let mut master = Trace::new();
        // 1000 "requests", each with its own fresh trace and table, all
        // drawing from the same 3-label vocabulary — the service-layer
        // steady state.
        for i in 0..1000 {
            let mut req = Trace::new();
            let at = i as f64;
            req.record(0, OpKind::H2D, t(at), t(at + 0.1), 8, "chunk-in");
            req.record(0, OpKind::Kernel, t(at + 0.1), t(at + 0.8), 5, "axpy");
            req.record(0, OpKind::D2H, t(at + 0.8), t(at + 0.9), 8, "map-out");
            master.absorb(&req);
        }
        assert_eq!(master.len(), 3000);
        assert_eq!(master.label_count(), 3, "table growth must not scale with requests");
    }

    #[test]
    fn absorb_respects_recording_level() {
        let mut src = Trace::new();
        src.record(0, OpKind::Kernel, t(0.0), t(1.0), 1, "axpy");

        let mut off = Trace::with_level(TraceLevel::Off);
        off.absorb(&src);
        assert!(off.is_empty());

        let mut full = Trace::new();
        full.absorb(&src);
        assert_eq!(full.len(), 1);
        assert_eq!(full.label(full.events()[0].label), "axpy");
    }

    #[test]
    fn level_off_records_nothing() {
        let mut tr = Trace::with_level(TraceLevel::Off);
        tr.record(0, OpKind::Kernel, t(0.0), t(1.0), 1, "axpy");
        assert!(tr.is_empty());
        assert_eq!(tr.label_count(), 0, "no interning at Off");
        assert_eq!(tr.level(), TraceLevel::Off);
    }

    #[test]
    fn default_level_is_full() {
        assert_eq!(Trace::new().level(), TraceLevel::Full);
        let mut tr = Trace::new();
        tr.set_level(TraceLevel::Off);
        tr.record(0, OpKind::Kernel, t(0.0), t(1.0), 1, "k");
        tr.set_level(TraceLevel::Full);
        tr.record(0, OpKind::Kernel, t(1.0), t(2.0), 1, "k");
        assert_eq!(tr.len(), 1, "only the Full-level record lands");
        tr.clear();
        assert_eq!(tr.level(), TraceLevel::Full, "clear keeps the level");
    }

    #[test]
    fn empty_trace_behaves() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.makespan(), SimTime::ZERO);
        assert_eq!(tr.gantt(2, 10), "");
    }
}
