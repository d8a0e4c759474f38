//! The HOMP runtime: per-device proxy execution of offload regions.
//!
//! Mirrors Section V and Figure 4: each device has a proxy that performs
//! array/loop distribution, memory allocation, data movement, kernel
//! launch and book-keeping. Here the proxies are agents over the
//! deterministic simulator — every data transfer, launch and kernel
//! execution is priced by `homp-sim`, while the kernel's *real* Rust
//! implementation runs for every chunk so numerical results can be
//! checked. Completion ordering (who grabs the next dynamic chunk) is
//! decided on the virtual clock exactly as pthread proxies would decide
//! it on the wall clock.
//!
//! Scheduling decisions use the *datasheet* machine constants by
//! default ("use peak performance as guideline", §VI-B) — not the
//! simulator's sustained ground truth — so model error and load
//! imbalance arise naturally; [`RuntimeConfig::profiled_params`]
//! switches to microbenchmark-measured constants for the
//! `ablation_constants` study.

use crate::data_env::DataEnv;
use crate::dist::Distribution;
use crate::history::HistoryDb;
use crate::map::{ArrayCost, ArrayCostKind, DataPlan, PlanError};
use crate::offload::OffloadRegion;
use crate::pipeline::{
    producer_window, stage_chunks, stage_links, Pipeline, PipelineKernel, PipelineReport,
    StageKernel, StageLink,
};
use crate::region::Range;
use crate::report::{ChunkDecision, PredictionSource, RunReport};
use crate::sched::assist::{self, StealPolicy};
use crate::sched::chunking::{ChunkPolicy, ChunkQueue, DynamicChunks, GuidedChunks};
use crate::sched::health::{
    transition_note, HealthState, HealthTracker, HealthTransition, MAX_PROBES, PROBE_INTERVAL_US,
};
use crate::sched::model_sched::{model1_plan, model2_plan, throughput_plan, ModelPlan};
use crate::sched::profile_sched::{const_sample_counts, measured_throughput, model_sample_counts};
use crate::sched::{block, Algorithm};
use homp_model::heuristics::{classify, select_algorithm, ClassThresholds};
use homp_model::{DeviceParams, KernelIntensity};
use homp_sim::{
    profile_machine, ChunkWork, DeviceId, Dir, Engine, Fault, FaultKind, FaultPlan, Machine,
    NoiseModel, OpKind, SimSpan, SimTime, Trace, TraceLevel, TransferStats,
};
use std::collections::{BinaryHeap, VecDeque};

/// A loop kernel the runtime can distribute: a per-outer-iteration cost
/// descriptor plus the real computation.
pub trait LoopKernel {
    /// Per-outer-iteration intensity (inner loops folded in).
    fn intensity(&self) -> KernelIntensity;
    /// Execute iterations `[range.start, range.end)` on the host-side
    /// data. Called exactly once per iteration across all devices.
    fn execute(&mut self, range: Range);
}

/// A kernel defined by a closure plus a fixed intensity — convenient for
/// tests and examples.
pub struct FnKernel<F: FnMut(Range)> {
    intensity: KernelIntensity,
    f: F,
}

impl<F: FnMut(Range)> FnKernel<F> {
    /// Build from parts.
    pub fn new(intensity: KernelIntensity, f: F) -> Self {
        Self { intensity, f }
    }
}

impl<F: FnMut(Range)> LoopKernel for FnKernel<F> {
    fn intensity(&self) -> KernelIntensity {
        self.intensity
    }
    fn execute(&mut self, range: Range) {
        (self.f)(range)
    }
}

/// Error from [`Runtime::offload`].
#[derive(Debug, Clone, PartialEq)]
pub enum OffloadError {
    /// Data-plan construction failed.
    Plan(PlanError),
    /// The region names no device to run on.
    NoDevices,
    /// A device ID in the region does not exist on the machine.
    UnknownDevice(DeviceId),
    /// The region names a device more than once; two slots cannot share
    /// one device's calendars.
    DuplicateDevice(DeviceId),
    /// A device's mapped footprint exceeds its memory capacity
    /// (Section V-C: the runtime performs memory allocation per device).
    OutOfDeviceMemory {
        /// The device that cannot hold its mapping.
        device: DeviceId,
        /// Bytes the mapping needs, plus what open `target data` regions
        /// keep on the device for arrays the offload does not map.
        required: u64,
        /// Bytes the device has.
        capacity: u64,
    },
    /// A `target update` named an array no open `target data` region
    /// maps.
    UnmappedArray(String),
    /// A data-region operation (`close`, `target update`) was issued
    /// with no `target data` region open.
    NoOpenDataRegion,
    /// The region's algorithm carries a CUTOFF ratio outside `[0, 1)`
    /// (NaN included).
    InvalidCutoff(f64),
    /// The region's algorithm carries a scheduling percentage outside
    /// its range (NaN included): `chunk_pct` and `sample_pct` must lie
    /// in `(0, 100]`, `min_assist_pct` in `[0, 100]`.
    InvalidPercent {
        /// `chunk_pct`, `sample_pct` or `min_assist_pct`.
        param: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// [`OffloadBuilder::align`] or [`Runtime::exchange_halo`] was given
    /// a split over this many slots, not one per device of the region.
    AlignSlots(usize),
    /// [`OffloadBuilder::align`] was given a split of this many
    /// iterations, not the region's trip count.
    AlignTripCount(u64),
    /// [`OffloadBuilder::align`] was given a replicated (FULL) split,
    /// which would run every iteration on every slot.
    AlignReplicated,
}

impl From<PlanError> for OffloadError {
    fn from(e: PlanError) -> Self {
        OffloadError::Plan(e)
    }
}

impl std::fmt::Display for OffloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OffloadError::Plan(e) => write!(f, "{e}"),
            OffloadError::NoDevices => write!(f, "the region names no devices"),
            OffloadError::UnknownDevice(d) => write!(f, "unknown device id {d}"),
            OffloadError::DuplicateDevice(d) => write!(f, "device id {d} is named twice"),
            OffloadError::OutOfDeviceMemory { device, required, capacity } => write!(
                f,
                "device {device} cannot hold its mapping: needs {required} bytes, has {capacity}"
            ),
            OffloadError::UnmappedArray(name) => {
                write!(f, "array `{name}` is not mapped by any open target data region")
            }
            OffloadError::NoOpenDataRegion => {
                write!(f, "no target data region is open")
            }
            OffloadError::InvalidCutoff(r) => write!(f, "CUTOFF ratio {r} is outside [0, 1)"),
            OffloadError::InvalidPercent { param, value } => {
                let range = if *param == "min_assist_pct" { "[0, 100]" } else { "(0, 100]" };
                write!(f, "{param} = {value}% is outside {range}")
            }
            OffloadError::AlignSlots(s) => {
                write!(f, "the aligned split has {s} slots, not one per device of the region")
            }
            OffloadError::AlignTripCount(t) => {
                write!(f, "the aligned split covers {t} iterations, not the loop's trip count")
            }
            OffloadError::AlignReplicated => write!(f, "the aligned split is replicated (FULL)"),
        }
    }
}

impl std::error::Error for OffloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OffloadError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

/// Retries after the first failed attempt at a transient fault (DMA
/// error, launch timeout); once they are spent the device is quarantined
/// as if it had dropped out.
const MAX_RETRIES: u32 = 3;
/// Backoff before the first retry, microseconds. Backoff time is priced
/// on the virtual clock and recorded as BACKOFF trace events.
const BASE_BACKOFF_US: f64 = 100.0;
/// Multiplier applied to the backoff after each retry: the three retries
/// wait 100, 200 and 400 µs.
const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Microseconds of bookkeeping a survivor pays each time it picks up
/// work re-queued from a failed device (recorded as FAILOVER).
const REQUEUE_OVERHEAD_US: f64 = 20.0;
/// Trace labels of a re-run piece's chunk pipeline.
const REQUEUE_LABELS: [&str; 3] = ["requeue-in", "requeue-launch", "requeue-out"];

/// Fault injection for the runtime: the simulator-side [`FaultPlan`]
/// the engine draws faults from. How the proxies respond (retries,
/// backoff, requeue, health) is fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Scripted faults, handed to the simulation engine.
    pub plan: FaultPlan,
}

impl FaultConfig {
    /// No injection: offloads behave exactly as without a config.
    #[must_use]
    pub fn none() -> Self {
        Self::new(FaultPlan::none())
    }

    /// Config around a fault plan.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// What fault handling did during one offload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSummary {
    /// Transient-fault retries performed (each preceded by a backoff).
    pub transient_retries: u64,
    /// Devices quarantined during the region, in quarantine order.
    pub dropouts: Vec<DeviceId>,
    /// Chunks re-run on a survivor after their device failed.
    pub requeued_chunks: u64,
    /// Iterations re-run on survivors.
    pub requeued_iters: u64,
    /// Iterations executed on the host after every device quarantined
    /// (the degraded-mode fallback). These are *not* counted in the
    /// report's per-slot `counts`.
    pub host_iters: u64,
}

impl FaultSummary {
    /// Whether any fault was observed.
    pub fn any(&self) -> bool {
        self.transient_retries > 0
            || !self.dropouts.is_empty()
            || self.requeued_chunks > 0
            || self.host_iters > 0
    }
}

/// Result of one offload.
#[derive(Debug, Clone)]
pub struct OffloadReport {
    /// The algorithm that actually ran (AUTO resolved to a concrete one).
    pub algorithm: Algorithm,
    /// Virtual time from region dispatch to the end barrier.
    pub makespan: SimSpan,
    /// Absolute virtual instant of the end barrier. Equals `makespan`
    /// past time zero for the classic entry points; later when the
    /// region was dispatched onto busy calendars via
    /// [`OffloadBuilder::at`] (the service layer's request-latency
    /// clock reads this).
    pub completed_at: SimTime,
    /// Participating devices, in slot order.
    pub devices: Vec<DeviceId>,
    /// Iterations executed per slot.
    pub counts: Vec<u64>,
    /// Devices that survived CUTOFF (equals `devices` when no cutoff or
    /// for chunk algorithms).
    pub kept_devices: Vec<DeviceId>,
    /// Pieces of the loop attempted on a device, in every scheduler
    /// path: static shares, chunk grabs, profiling samples and stage-2
    /// shares, WORK_ASSIST shares, steals and adoptions, requeued pieces
    /// and pipeline chunks. Failed attempts count; ranges the host
    /// fallback ran do not.
    pub chunks: u64,
    /// The paper's load-imbalance metric (Fig. 6 curve), percent,
    /// measured from the dispatch instant over the completions the
    /// engine keeps at every trace level.
    pub imbalance_pct: f64,
    /// What fault handling did (all zeros when no faults fired).
    pub faults: FaultSummary,
    /// FLOPs per loop iteration (from the kernel's intensity), so
    /// reports can convert iteration counters into FLOP counters.
    pub flops_per_iter: f64,
    /// Scheduler decision log — one entry per placed chunk, with
    /// predicted and realized cost. Empty unless the runtime was built
    /// with [`RuntimeConfig::decision_log`] on.
    pub decisions: Vec<ChunkDecision>,
    /// Full operation trace (for Fig. 6 breakdowns and Gantt charts).
    pub trace: Trace,
}

impl OffloadReport {
    /// Offload execution time in milliseconds (the y-axis of Figs 5/8/9).
    pub fn time_ms(&self) -> f64 {
        self.makespan.as_millis()
    }

    /// Fold this report's trace and decision log into a renderable
    /// [`RunReport`] (text / JSON / prediction-error statistics).
    pub fn run_report(&self) -> RunReport {
        RunReport::from_offload(self)
    }
}

/// Per-slot predicted chunk costs handed to a static distribution, for
/// the decision log only — scheduling has already happened by the time
/// these are computed.
struct Predictions {
    source: PredictionSource,
    per_slot: Vec<f64>,
}

/// The per-offload bookkeeping of the device proxies (Fig. 4), shared by
/// every scheduler path. It carries the offload it books: the region,
/// whose devices are the slots, the kernel's intensity and the dispatch
/// instant. The proxy lifecycle helpers ([`Runtime::setup`],
/// [`Runtime::transfer`], [`Runtime::launch`], [`Runtime::compute`],
/// [`Runtime::chunk_pipeline`], ...) take a ledger and a slot index.
/// Each single-region path fills one through them and
/// [`Ledger::commit`], hands it to [`Runtime::recover`] for the ranges
/// its failed devices dropped, and closes it with [`Runtime::finish`];
/// the overlapped pipeline keeps one per stage.
struct Ledger<'a> {
    /// The offload being booked; slot `s` runs on `region.devices[s]`.
    region: &'a OffloadRegion,
    /// The kernel's per-iteration intensity.
    intensity: KernelIntensity,
    /// The dispatch instant: zero for the classic entry points, later
    /// when a region is dispatched onto busy calendars via
    /// [`OffloadBuilder::at`]. Every path anchors its first ops here,
    /// and [`OffloadReport::makespan`] is measured from it.
    base: SimTime,
    /// Per-slot instant of the last committed op, or of the fault that
    /// quarantined the slot.
    completions: Vec<SimTime>,
    /// Per-slot iterations the kernel actually executed.
    counts: Vec<u64>,
    /// Per-slot health. Its quarantine is the offload's only one; the
    /// rest of the lifecycle runs only when `health_on`.
    health: HealthTracker,
    /// Whether the health lifecycle runs: only in chunked offloads under
    /// a fault config, so fault-free runs issue exactly the op sequence
    /// they always did. Then every quarantine is logged as a transition.
    health_on: bool,
    /// Where the next proxy's setup starts: the dispatch instant in a
    /// parallel offload; in a serialized one (plain multi-device
    /// `target` without `parallel`), the previous proxy's map-in end or
    /// its setup fault.
    next_setup: SimTime,
    /// Ranges dropped by quarantined slots, awaiting recovery.
    failed: VecDeque<Range>,
    chunks: u64,
    summary: FaultSummary,
    /// The decision log, `None` unless [`RuntimeConfig::decision_log`]
    /// turned it on.
    log: Option<Vec<ChunkDecision>>,
}

impl<'a> Ledger<'a> {
    fn new(region: &'a OffloadRegion, intensity: KernelIntensity, at: SimTime, log: bool) -> Self {
        let n = region.devices.len();
        Ledger {
            region,
            intensity,
            base: at,
            completions: vec![at; n],
            counts: vec![0; n],
            health: HealthTracker::new(n),
            health_on: false,
            next_setup: at,
            failed: VecDeque::new(),
            chunks: 0,
            summary: FaultSummary::default(),
            log: log.then(Vec::new),
        }
    }

    /// Append to the decision log; records nothing when it is off.
    fn note(&mut self, d: ChunkDecision) {
        if let Some(log) = &mut self.log {
            log.push(d);
        }
    }

    /// Whether slot `s` is quarantined.
    fn quarantined(&self, s: usize) -> bool {
        self.health.state(s) == HealthState::Quarantined
    }

    /// The simulator work unit for `range`, applying the region's
    /// iteration-cost profile (§IV-A.2's irregular loops): the weight is
    /// the profile sampled at the range midpoint, exact for the linear
    /// profiles the benches use and a good approximation otherwise.
    fn work(&self, range: Range) -> ChunkWork<'_> {
        let w = ChunkWork::new(range.len(), &self.intensity);
        match self.region.cost_profile {
            Some(f) => w.weighted(f((range.start + range.end) / 2)),
            None => w,
        }
    }

    /// Quarantine slot `s`: its device failed at `at`.
    fn drop_slot(&mut self, s: usize, at: SimTime) {
        let dev = self.region.devices[s];
        self.summary.dropouts.push(dev);
        self.completions[s] = at;
        if let Some(tr) = self.health.quarantine(s, dev, at) {
            if self.health_on {
                self.note(health_decision(&tr));
            }
        }
    }

    /// Settle a piece whose last op landed at `end`: run the kernel over
    /// `range` (only now, which is what makes every iteration execute
    /// exactly once under faults), count it on slot `s`, and as re-run
    /// work when `requeued`, make `end` the slot's completion, and log
    /// the decision `decide` builds, which it builds only when the log
    /// is on.
    fn commit(
        &mut self,
        kernel: &mut dyn LoopKernel,
        s: usize,
        range: Range,
        requeued: bool,
        end: SimTime,
        decide: impl FnOnce() -> ChunkDecision,
    ) {
        kernel.execute(range);
        self.counts[s] += range.len();
        if requeued {
            self.summary.requeued_chunks += 1;
            self.summary.requeued_iters += range.len();
        }
        self.completions[s] = end;
        if let Some(log) = &mut self.log {
            log.push(ChunkDecision { requeued, ..decide() });
        }
    }

    /// When the failures become public knowledge: once every quarantined
    /// slot's proxy has reported in, and never before the dispatch
    /// instant. Survivors (or the host) cannot react earlier.
    fn known_at(&self) -> SimTime {
        (0..self.completions.len())
            .filter(|&s| self.quarantined(s))
            .map(|s| self.completions[s])
            .fold(self.base, SimTime::max)
    }
}

/// A piece of the loop in flight during a work-assisted run: its
/// transfer and launch have committed, its compute has not.
#[derive(Debug, Clone, Copy)]
struct AssistPiece {
    /// Slot executing the piece.
    slot: usize,
    /// Iterations the piece covers (shrinks if a thief steals the tail).
    range: Range,
    /// When the slot began acquiring the piece (setup / grab start) —
    /// the baseline for its realized time.
    base: SimTime,
    /// When the compute becomes ready (launch + in-transfer committed).
    start: SimTime,
    /// The engine's exact finish time, peeked without committing — the
    /// proxy *is* the simulator, so its estimate is the DES's answer.
    pred_end: SimTime,
    /// Device the range was stolen from, for the decision log.
    donor: Option<DeviceId>,
    /// Whether the range was rescued from a quarantined device.
    requeued: bool,
}

/// A committed compute awaiting the final map-out flush. The kernel is
/// *not* executed until that flush succeeds — exactly-once under faults.
#[derive(Debug, Clone, Copy)]
struct DonePiece {
    piece: AssistPiece,
    comp_end: SimTime,
}

/// Work dropped by a quarantined device, up for adoption by assistants.
#[derive(Debug, Clone, Copy)]
struct Orphan {
    range: Range,
    /// The failure becomes public knowledge only at this time; no
    /// assistant can react earlier.
    known_at: SimTime,
    /// The device that dropped it.
    donor: DeviceId,
}

/// Mutable state threaded through the work-assist event loop.
struct AssistState<'a> {
    /// Pieces set up but not yet committed (at most one per slot).
    pending: Vec<AssistPiece>,
    orphans: VecDeque<Orphan>,
    /// Per-slot committed computes awaiting flush.
    done: Vec<Vec<DonePiece>>,
    /// `Some(t)` while a slot is alive, drained and looking for work.
    free_since: Vec<Option<SimTime>>,
    /// Completions (the last committed compute until the flush), flushed
    /// counts and the ranges left for the serial requeue path.
    led: Ledger<'a>,
    /// Whether any steal or orphan adoption happened; it chooses how the
    /// flush charges the copy-backs.
    fired: bool,
    /// Reusable `(free-since, slot)` buffer for the dispatch loop —
    /// rebuilt (not reallocated) every dispatch round.
    free_scratch: Vec<(SimTime, usize)>,
}

impl<'a> AssistState<'a> {
    fn new(region: &'a OffloadRegion, intensity: KernelIntensity, at: SimTime, log: bool) -> Self {
        let n = region.devices.len();
        AssistState {
            pending: Vec::new(),
            orphans: VecDeque::new(),
            done: vec![Vec::new(); n],
            free_since: vec![None; n],
            led: Ledger::new(region, intensity, at, log),
            fired: false,
            free_scratch: Vec::new(),
        }
    }

    /// Quarantine a slot: its unflushed computes are lost (the kernel
    /// never ran for them) and must be re-executed elsewhere.
    fn drop_slot(&mut self, s: usize, at: SimTime) {
        self.led.drop_slot(s, at);
        self.free_since[s] = None;
        for dp in self.done[s].drain(..) {
            self.led.failed.push_back(dp.piece.range);
        }
    }
}

/// A health-lifecycle transition rendered as a decision-log entry:
/// stage `"health"`, empty range (it places no work), zero realized
/// time, with the transition in the `note` field.
fn health_decision(tr: &HealthTransition) -> ChunkDecision {
    ChunkDecision {
        note: Some(transition_note(tr.from, tr.to)),
        ..ChunkDecision::placed(tr.slot, tr.device, Range::EMPTY, "health", 0.0)
    }
}

/// The next piece the assist commit loop should retire: earliest
/// predicted finish, ties broken by slot for determinism.
fn next_pending(pending: &[AssistPiece]) -> Option<usize> {
    pending.iter().enumerate().min_by_key(|(_, p)| (p.pred_end, p.slot)).map(|(i, _)| i)
}

/// The steal target for a device freed at `now`: the pending piece with
/// the latest predicted finish whose unexecuted tail is still worth
/// splitting under `policy`. Returns `(index, kept, stolen)`.
fn pick_victim(
    pending: &[AssistPiece],
    policy: &StealPolicy,
    now: SimTime,
) -> Option<(usize, Range, Range)> {
    let mut best: Option<(usize, Range, Range)> = None;
    for (i, p) in pending.iter().enumerate() {
        let executed = assist::estimate_executed(p.range.len(), p.start, p.pred_end, now);
        let Some((kept, stolen)) = assist::steal_from_tail(p.range, executed, policy) else {
            continue;
        };
        let better = match best {
            None => true,
            Some((j, _, _)) => {
                let q = &pending[j];
                p.pred_end > q.pred_end || (p.pred_end == q.pred_end && p.slot < q.slot)
            }
        };
        if better {
            best = Some((i, kept, stolen));
        }
    }
    best
}

/// The runtime: a simulated machine plus profiled device parameters.
pub struct Runtime {
    engine: Engine,
    params: Vec<DeviceParams>,
    /// When set, every offload's ledger keeps a decision log; recording
    /// is pure read-side and never touches the engine (golden tests pin
    /// that a logged run is byte-identical to an unlogged one).
    log_decisions: bool,
    /// The persistent device-data environment (`target data`) and the
    /// device memory backing it. Inactive (and cost-free) until a
    /// region is opened.
    data_env: DataEnv,
}

/// What closing a `target data` region did: the deferred dirty
/// copy-backs it flushed and the cumulative transfer accounting of the
/// environment at close time.
#[derive(Debug, Clone, PartialEq)]
pub struct DataRegionReport {
    /// Bytes flushed device→host at close (dirty `from`/`tofrom`
    /// entries whose copy-back had been deferred).
    pub flushed_bytes: u64,
    /// Individual flush transfers issued.
    pub flush_transfers: u64,
    /// Virtual duration of the flush.
    pub makespan: SimSpan,
    /// Cumulative environment accounting (all offloads since the
    /// runtime was built or last reset).
    pub stats: TransferStats,
}

/// What a `target update` moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// Host→device bytes (`update to`).
    pub h2d_bytes: u64,
    /// Device→host bytes (`update from`).
    pub d2h_bytes: u64,
}

/// Everything a runtime is built with: noise seed, noise on or off,
/// fault injection, trace level, the decision log, DMA/compute overlap
/// and the model constants. [`RuntimeConfig::build`] is the one place a
/// [`Runtime`] is made; [`Runtime::new`] and
/// [`Runtime::with_fault_config`] are shorthands for it.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    seed: u64,
    noiseless: bool,
    faults: FaultConfig,
    trace_level: TraceLevel,
    decision_log: bool,
    overlap: bool,
    profiled_params: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            noiseless: false,
            faults: FaultConfig::none(),
            trace_level: TraceLevel::Full,
            decision_log: false,
            overlap: true,
            profiled_params: false,
        }
    }
}

impl RuntimeConfig {
    /// Defaults: seed 42, ±6% noise, no faults, full trace, no decision
    /// log, DMA/compute overlap on, datasheet model constants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Noise seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disable noise entirely (exactness tests, ablations).
    #[must_use]
    pub fn noiseless(mut self) -> Self {
        self.noiseless = true;
        self
    }

    /// Install fault injection. Only offload paths observe faults;
    /// profiling and halo exchange use the engine's infallible entry
    /// points and are unaffected.
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Trace recording level (default [`TraceLevel::Full`]). Scheduling
    /// decisions and the virtual clock are identical at every level;
    /// dialing down to [`TraceLevel::Off`] makes throughput-bound
    /// sweeps skip trace appends entirely, and reports then carry an
    /// empty trace (so a vacuous breakdown).
    #[must_use]
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Keep the scheduler decision log (default off): every offload's
    /// [`OffloadReport::decisions`] lists each placed chunk with its
    /// predicted and realized cost. Recording is pure observation —
    /// simulated timestamps are identical either way.
    #[must_use]
    pub fn decision_log(mut self, on: bool) -> Self {
        self.decision_log = on;
        self
    }

    /// DMA/compute overlap (default on). Off, each device has one
    /// half-duplex DMA engine serialized with compute (the
    /// `ablation_overlap` bench).
    #[must_use]
    pub fn overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Give the models *microbenchmark-profiled* constants instead of
    /// datasheet ones — the `ablation_constants` bench shows this
    /// largely removes the need for CUTOFF.
    #[must_use]
    pub fn profiled_params(mut self) -> Self {
        self.profiled_params = true;
        self
    }

    /// Build the runtime over `machine`. Unless
    /// [`RuntimeConfig::profiled_params`] is set, its models receive the
    /// *datasheet* machine constants, as the paper's runtime does ("use
    /// peak performance as guideline") — the datasheet-vs-sustained gap
    /// is what makes CUTOFF earn its keep.
    pub fn build(&self, machine: Machine) -> Runtime {
        let noise = if self.noiseless {
            NoiseModel::disabled()
        } else {
            NoiseModel::new(self.seed, Runtime::DEFAULT_NOISE)
        };
        let data_env = DataEnv::new(machine.devices.iter().map(|d| d.mem_capacity));
        let mut engine = Engine::new(machine, noise);
        let params = if self.profiled_params {
            profile_machine(&engine)
        } else {
            engine.machine().datasheet_params()
        };
        engine.set_fault_plan(self.faults.plan.clone());
        engine.set_trace_level(self.trace_level);
        engine.overlap = self.overlap;
        Runtime { engine, params, log_decisions: self.decision_log, data_env }
    }
}

impl Runtime {
    /// Default noise amplitude per operation (±6%: DVFS, ECC scrubbing
    /// and OS noise on 2015-era accelerators; Fig. 6's <5% average
    /// imbalance emerges from this).
    pub const DEFAULT_NOISE: f64 = 0.06;

    /// Runtime over `machine`, with default noise seeded by `seed`.
    pub fn new(machine: Machine, seed: u64) -> Self {
        RuntimeConfig::new().seed(seed).build(machine)
    }

    /// Runtime with fault injection: like [`Runtime::new`] plus a
    /// [`FaultConfig`] naming the faults to inject.
    pub fn with_fault_config(machine: Machine, seed: u64, faults: FaultConfig) -> Self {
        RuntimeConfig::new().seed(seed).faults(faults).build(machine)
    }

    /// Rewind the runtime to a fresh state under a new noise seed.
    ///
    /// After this call the runtime behaves exactly like one its
    /// [`RuntimeConfig`] builds at `seed` from scratch (the noise model
    /// is a pure hash of `(seed, device, seq)`, and the engine reset
    /// rewinds every resource calendar and sequence counter), but the
    /// engine's trace and calendar allocations are reused — the cheap
    /// path for repeating an experiment over many seeds.
    ///
    /// Model parameters are left untouched, so a runtime built with
    /// [`RuntimeConfig::profiled_params`] keeps its measured constants
    /// rather than re-profiling.
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.engine.reset_with_seed(seed);
        self.data_env.clear();
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        self.engine.machine()
    }

    /// The instant a host thread sees once its synchronous target
    /// regions have returned: the latest end on any device's compute or
    /// DMA calendar. A halo exchange, a region close, a `target update`
    /// and an overlapped pipeline start here; a plain `.run()` and
    /// [`Runtime::reset_with_seed`] rewind it to zero.
    pub fn now(&self) -> SimTime {
        let e = &self.engine;
        (0..e.n_devices() as DeviceId)
            .map(|d| e.compute_free_at(d).max(e.dma_free_at(d)))
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Engine operations submitted since the runtime was built — a
    /// monotone counter that survives [`Runtime::reset_with_seed`] and
    /// is independent of the trace recording level, so throughput
    /// harnesses can meter multi-offload runs with one read (see
    /// [`homp_sim::engine::Engine::ops_submitted`]).
    pub fn sim_ops(&self) -> u64 {
        self.engine.ops_submitted()
    }

    /// Current trace recording level.
    pub fn trace_level(&self) -> TraceLevel {
        self.engine.trace_level()
    }

    /// Resolve `AUTO` to a concrete algorithm per the §VI-D heuristics.
    pub fn resolve_auto(
        &self,
        algorithm: Algorithm,
        intensity: &KernelIntensity,
        devices: &[DeviceId],
    ) -> Algorithm {
        match algorithm {
            Algorithm::Auto { cutoff } => {
                let homogeneous = {
                    let m = self.machine();
                    devices.windows(2).all(|w| {
                        let a = &m.devices[w[0] as usize];
                        let b = &m.devices[w[1] as usize];
                        a.dev_type == b.dev_type
                            && (a.sustained_flops() - b.sustained_flops()).abs()
                                < 1e-6 * a.sustained_flops()
                    })
                };
                let class = classify(intensity, &ClassThresholds::default());
                let choice = select_algorithm(class, homogeneous);
                use homp_model::heuristics::AlgorithmChoice as C;
                let concrete = match choice {
                    C::Block => Algorithm::Block,
                    C::SchedDynamic => Algorithm::Dynamic { chunk_pct: 2.0 },
                    C::SchedGuided => Algorithm::Guided { chunk_pct: 20.0 },
                    C::Model1Auto => Algorithm::Model1 { cutoff: None },
                    C::Model2Auto => Algorithm::Model2 { cutoff: None },
                    C::SchedProfileAuto => {
                        Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None }
                    }
                    C::ModelProfileAuto => {
                        Algorithm::ProfileModel { sample_pct: 10.0, cutoff: None }
                    }
                };
                match cutoff {
                    Some(c) => concrete.with_cutoff(c),
                    None => concrete,
                }
            }
            other => other,
        }
    }

    /// Price a halo exchange for a 1-D distribution across `slots`
    /// (ghost width `width`, `slab_bytes` per row): plans the pairwise
    /// sends and queues them from [`Runtime::now`] on the calendars as
    /// they stand, returning the exchange's virtual duration. Used
    /// between offloads of an iterative app (Fig. 3's
    /// `#pragma omp halo_exchange (uold)`). A slot the machine lacks, a
    /// repeated slot, a split without one range per slot, or a
    /// replicated (FULL) split, which has no halo, is refused before the
    /// engine is touched.
    pub fn exchange_halo(
        &mut self,
        slots: &[DeviceId],
        dist: &Distribution,
        width: u64,
        slab_bytes: u64,
    ) -> Result<SimSpan, OffloadError> {
        self.check_devices(slots)?;
        if dist.n_devices() != slots.len() {
            return Err(OffloadError::AlignSlots(dist.n_devices()));
        }
        if dist.is_replicated() {
            return Err(OffloadError::AlignReplicated);
        }
        let start = self.now();
        let transfers = crate::halo::plan_exchange(dist, width);
        let end =
            crate::halo::simulate_exchange(&mut self.engine, slots, &transfers, slab_bytes, start);
        // An offload dispatched `.at(t)` does not reset the engine, so it
        // would report events left here as its own.
        self.engine.clear_trace();
        Ok(end - start)
    }

    /// Open a `target data` region: every array `region` maps becomes
    /// resident-tracked, and subsequent offloads touching those arrays
    /// elide transfers for data already on-device. Regions nest; the
    /// loop/algorithm/device fields of `region` describe the *scope*,
    /// only its maps matter here. Opening is free on the virtual clock —
    /// uploads happen lazily at the first offload, which knows the
    /// actual split. MODEL_2 plans every offload inside the region as a
    /// warm one, the first included: it prices only the loop-aligned
    /// bytes no open region maps, so a split planned right after the
    /// open ([`Runtime::distribution`]) is every later offload's.
    pub fn data_region_begin(&mut self, region: &OffloadRegion) {
        self.data_env.open(region);
    }

    /// Close the innermost `target data` region: flush the deferred
    /// dirty copy-backs (`from`/`tofrom` entries written by offloads
    /// inside the region) from [`Runtime::now`], release the region's
    /// device allocations, and report what moved.
    pub fn data_region_end(&mut self) -> Result<DataRegionReport, OffloadError> {
        let flush = self.data_env.close()?;
        let start = self.now();
        let mut end = start;
        let mut bytes = 0u64;
        for &(dev, b) in &flush {
            let t = self.engine.transfer(dev, b, Dir::D2H, start, "region-flush");
            end = end.max(t);
            bytes += b;
        }
        self.engine.clear_trace();
        Ok(DataRegionReport {
            flushed_bytes: bytes,
            flush_transfers: flush.len() as u64,
            makespan: end - start,
            stats: *self.data_env.stats(),
        })
    }

    /// Explicit `target update`: force-refresh device copies from the
    /// host (`to`) and/or copy device data back to the host (`from`),
    /// regardless of dirty state, moving both from [`Runtime::now`].
    /// Every named array must be mapped by an open `target data` region.
    /// An `update from` cleans the dirty bit, so the region close will
    /// not flush those bytes again.
    pub fn target_update(
        &mut self,
        to: &[&str],
        from: &[&str],
    ) -> Result<UpdateReport, OffloadError> {
        if !self.data_env.active() {
            return Err(OffloadError::NoOpenDataRegion);
        }
        // Validate both name lists up front so a bad `from` cannot leave
        // the `to` half already applied.
        for &name in to.iter().chain(from) {
            if !self.data_env.is_mapped(name) {
                return Err(OffloadError::UnmappedArray(name.to_string()));
            }
        }
        let up = self.data_env.update_to(to)?;
        let down = self.data_env.update_from(from)?;
        let start = self.now();
        let mut h2d = 0u64;
        for &(dev, b) in &up {
            self.engine.transfer(dev, b, Dir::H2D, start, "update-to");
            h2d += b;
        }
        let mut d2h = 0u64;
        for &(dev, b) in &down {
            self.engine.transfer(dev, b, Dir::D2H, start, "update-from");
            d2h += b;
        }
        self.engine.clear_trace();
        Ok(UpdateReport { h2d_bytes: h2d, d2h_bytes: d2h })
    }

    /// Cumulative transfer accounting of the data environment:
    /// transferred vs. elided bytes in each direction, plus
    /// redistribution traffic. Zero until a `target data` region opens.
    pub fn transfer_stats(&self) -> &TransferStats {
        self.data_env.stats()
    }

    /// The persistent data environment (residency inspection).
    pub fn data_env(&self) -> &DataEnv {
        &self.data_env
    }

    /// Check that every discrete device in `slots` can hold its fixed
    /// mappings plus `uniform_iters` aligned iterations (or its entry in
    /// `per_slot` counts when given), beside what open `target data`
    /// regions keep on it for arrays `plan` does not map.
    fn check_capacity(
        &self,
        slots: &[DeviceId],
        plan: &DataPlan,
        uniform_iters: u64,
        per_slot: Option<&[u64]>,
    ) -> Result<(), OffloadError> {
        for (s, &dev) in slots.iter().enumerate() {
            let d = &self.engine.machine().devices[dev as usize];
            if !d.needs_copy() {
                continue;
            }
            let iters = per_slot.map(|c| c[s]).unwrap_or(uniform_iters);
            let held = self.data_env.held_except(dev, plan);
            let required = plan.alloc_bytes(s, iters).saturating_add(held);
            if required > d.mem_capacity {
                return Err(OffloadError::OutOfDeviceMemory {
                    device: dev,
                    required,
                    capacity: d.mem_capacity,
                });
            }
        }
        Ok(())
    }

    /// Per-slot predicted seconds for a static model plan — decision-log
    /// bookkeeping only, computed *after* the plan is fixed. Learned
    /// shares are priced at the `rates` they were planned from.
    fn predict_static(
        &self,
        source: PredictionSource,
        slots: &[DeviceId],
        intensity: &KernelIntensity,
        counts: &[u64],
        rates: Option<&[f64]>,
    ) -> Predictions {
        let per_slot = slots
            .iter()
            .zip(counts)
            .enumerate()
            .map(|(s, (&d, &n))| {
                let p = &self.params[d as usize];
                let rate = match (source, rates) {
                    (PredictionSource::History, Some(rates)) => rates[s],
                    // MODEL_1 prices compute capability only.
                    (PredictionSource::Model1, _) => {
                        homp_model::model1::iteration_rate(p, intensity)
                    }
                    // Everything else gets the full fixed + data + exe
                    // decomposition of MODEL_2.
                    _ => return homp_model::model2::device_cost(p, intensity).time(n as f64),
                };
                if rate > 0.0 {
                    n as f64 / rate
                } else {
                    0.0
                }
            })
            .collect();
        Predictions { source, per_slot }
    }

    /// Offload a region: the single entry point for every variant.
    ///
    /// Returns an [`OffloadBuilder`] — call [`OffloadBuilder::run`] to
    /// execute. The default run resets the engine (the classic
    /// one-region-at-a-time semantics) and maps all data, except what an
    /// open `target data` region ([`Runtime::data_region_begin`])
    /// already holds on-device; chain [`OffloadBuilder::at`] to dispatch
    /// onto the engine's calendars as they stand (the multi-tenant
    /// case).
    ///
    /// ```
    /// # use homp_core::{Algorithm, FnKernel, OffloadRegion, Runtime};
    /// # use homp_lang::{DistPolicy, MapDir};
    /// # use homp_model::KernelIntensity;
    /// # use homp_sim::Machine;
    /// # let region = OffloadRegion::builder("axpy")
    /// #     .trip_count(1000)
    /// #     .devices(vec![0, 1, 2, 3])
    /// #     .map_1d("x", MapDir::To, 1000, 8, DistPolicy::Block)
    /// #     .build();
    /// # let intensity = KernelIntensity {
    /// #     flops_per_iter: 2.0, mem_elems_per_iter: 3.0,
    /// #     data_elems_per_iter: 3.0, elem_bytes: 8.0 };
    /// # let mut kernel = FnKernel::new(intensity, |_r| {});
    /// let mut rt = Runtime::new(Machine::four_k40(), 42);
    /// let report = rt.offload(&region, &mut kernel).run().unwrap();
    /// assert_eq!(report.counts.iter().sum::<u64>(), 1000);
    /// ```
    pub fn offload<'r, 'k>(
        &'r mut self,
        region: &'r OffloadRegion,
        kernel: &'k mut dyn LoopKernel,
    ) -> OffloadBuilder<'r, 'k> {
        OffloadBuilder { runtime: self, region, kernel, at: None, history: None, align: None }
    }

    /// A region must name at least one device, and only devices the
    /// machine has, each once; its CUTOFF ratio, if any, must lie in
    /// `[0, 1)`, and its scheduling percentage in the algorithm's range
    /// (`Algorithm::invalid_pct`).
    fn check_region(&self, region: &OffloadRegion) -> Result<(), OffloadError> {
        if region.devices.is_empty() {
            return Err(OffloadError::NoDevices);
        }
        self.check_devices(&region.devices)?;
        if let Some(r) = region.algorithm.invalid_cutoff() {
            return Err(OffloadError::InvalidCutoff(r));
        }
        match region.algorithm.invalid_pct() {
            Some((param, value)) => Err(OffloadError::InvalidPercent { param, value }),
            None => Ok(()),
        }
    }

    /// Every device in `devices` must be one the machine has, named once.
    fn check_devices(&self, devices: &[DeviceId]) -> Result<(), OffloadError> {
        for (i, &d) in devices.iter().enumerate() {
            if d as usize >= self.engine.n_devices() {
                return Err(OffloadError::UnknownDevice(d));
            }
            if devices[..i].contains(&d) {
                return Err(OffloadError::DuplicateDevice(d));
            }
        }
        Ok(())
    }

    /// The split a `.run()` of `region` would use for a kernel of
    /// `intensity`, after the same region checks and from the same
    /// [`DataPlan`], so a region a run refuses (a byte count past `u64`,
    /// an ALIGN cycle) is the same error here: BLOCK, MODEL_1, MODEL_2
    /// or WORK_ASSIST's initial shares, AUTO resolved and CUTOFF applied;
    /// `None` for chunk-scheduled and profiling algorithms. Like a run,
    /// MODEL_2 plans from what the open `target data` regions hold, so
    /// inside Fig. 3's region loop1's split is every sweep's. Another
    /// loop runs on it with [`OffloadBuilder::align`] (Fig. 3's
    /// `ALIGN(loop1)`).
    pub fn distribution(
        &self,
        region: &OffloadRegion,
        intensity: &KernelIntensity,
    ) -> Result<Option<Distribution>, OffloadError> {
        self.check_region(region)?;
        let plan = DataPlan::new(region, region.devices.len())?;
        let (_, block, model) = self.plan_split(region, &plan, intensity, None);
        Ok(block.or(model.map(|(mp, _)| mp.counts)).map(|c| Distribution::from_counts(&c)))
    }

    /// The intensity `algorithm` prices a model split and its
    /// predictions with. MODEL_2 scales the kernel's data term by the
    /// share of `plan`'s loop-aligned bytes no open `target data` region
    /// holds ([`DataEnv::unheld_share`]), 1 outside any region: a held
    /// row crosses the bus only where an offload first places it, so a
    /// warm Fig. 3 sweep pays no `DataT` for its rows. WORK_ASSIST keeps
    /// the kernel's: a steal drops the region's holds
    /// (`DataEnv::invalidate_residency`), so the next offload uploads
    /// again.
    fn model2_intensity(
        &self,
        algorithm: Algorithm,
        intensity: &KernelIntensity,
        plan: &DataPlan,
    ) -> KernelIntensity {
        match algorithm {
            Algorithm::Model2 { .. } => KernelIntensity {
                data_elems_per_iter: intensity.data_elems_per_iter
                    * self.data_env.unheld_share(plan),
                ..*intensity
            },
            _ => *intensity,
        }
    }

    /// The algorithm a run of `region` uses (AUTO resolved, or as written
    /// under learned `rates`) and its static split: BLOCK's even counts,
    /// or a model plan (CUTOFF decides which slots it keeps) with the
    /// source of its predictions, MODEL_2's priced from what the open
    /// regions hold (`model2_intensity`). Learned shares come from the
    /// throughput planner (stage 2 of the profiling algorithms) over
    /// `rates`.
    fn plan_split(
        &self,
        region: &OffloadRegion,
        plan: &DataPlan,
        intensity: &KernelIntensity,
        rates: Option<&[f64]>,
    ) -> (Algorithm, Option<Vec<u64>>, Option<(ModelPlan, PredictionSource)>) {
        let (slots, trip) = (&region.devices[..], region.trip_count);
        let algorithm = match rates {
            Some(_) => region.algorithm,
            None => self.resolve_auto(region.algorithm, intensity, slots),
        };
        let (block, model) = match (rates, algorithm) {
            (Some(r), _) => (
                None,
                Some((throughput_plan(r, trip, algorithm.cutoff()), PredictionSource::History)),
            ),
            (None, Algorithm::Block) => (Some(block::block_counts(trip, slots.len())), None),
            (None, Algorithm::Model1 { cutoff }) => (
                None,
                Some((
                    model1_plan(&self.slot_params(slots), intensity, trip, cutoff),
                    PredictionSource::Model1,
                )),
            ),
            (None, Algorithm::Model2 { cutoff } | Algorithm::WorkAssist { cutoff, .. }) => {
                let priced = self.model2_intensity(algorithm, intensity, plan);
                let mp = model2_plan(&self.slot_params(slots), &priced, trip, cutoff);
                (None, Some((mp, PredictionSource::Model2)))
            }
            _ => (None, None),
        };
        (algorithm, block, model)
    }

    /// The constants the models see for each of `slots`, in slot order.
    fn slot_params(&self, slots: &[DeviceId]) -> Vec<DeviceParams> {
        slots.iter().map(|&d| self.params[d as usize]).collect()
    }

    /// Run one region: plan its split, or take the `align`ed one, reset
    /// the engine unless it dispatches `at` an instant on the calendars
    /// as they stand, run the split's scheduler path and, with a
    /// `history`, learn from the run.
    pub(crate) fn offload_inner(
        &mut self,
        region: &OffloadRegion,
        kernel: &mut dyn LoopKernel,
        at: Option<SimTime>,
        history: Option<&mut HistoryDb>,
        align: Option<&Distribution>,
    ) -> Result<OffloadReport, OffloadError> {
        self.check_region(region)?;
        let slots: &[DeviceId] = &region.devices;
        let n = slots.len();
        let trip = region.trip_count;
        match align {
            Some(a) if a.n_devices() != n => return Err(OffloadError::AlignSlots(a.n_devices())),
            Some(a) if a.total() != trip => return Err(OffloadError::AlignTripCount(a.total())),
            Some(a) if a.is_replicated() => return Err(OffloadError::AlignReplicated),
            _ => {}
        }
        let plan = DataPlan::new(region, n)?;
        let intensity = kernel.intensity();
        // Rates learned by earlier offloads, once the history covers
        // every slot. Their shares replace the algorithm's split, and the
        // report keeps the region's algorithm as written.
        let rates: Option<Vec<f64>> =
            history.as_deref().filter(|db| db.covers(&region.name, slots)).map(|db| {
                let guess = trip / n as u64;
                slots
                    .iter()
                    .map(|&d| db.predicted_rate(&region.name, d, guess).unwrap_or(0.0))
                    .collect()
            });
        let (algorithm, block, model) = match align {
            Some(split) => (region.algorithm, Some(split.counts()), None),
            None => self.plan_split(region, &plan, &intensity, rates.as_deref()),
        };
        let mp = model.as_ref().map(|(mp, _)| mp);
        let counts = block.as_deref().or(mp.map(|mp| &mp.counts[..]));

        // Memory capacity (Section V-C): a static split against its
        // per-slot counts, a chunked plan against its fixed mappings plus
        // two in-flight chunks (double buffering), a profiled plan against
        // an even share.
        match (counts, algorithm) {
            (Some(counts), _) => self.check_capacity(slots, &plan, 0, Some(counts)),
            (None, Algorithm::Dynamic { chunk_pct }) => {
                let c = DynamicChunks::from_pct(trip, chunk_pct).chunk;
                self.check_capacity(slots, &plan, (2 * c).min(trip), None)
            }
            (None, Algorithm::Guided { chunk_pct }) => {
                let c = GuidedChunks::from_pct(trip, chunk_pct).first_chunk;
                self.check_capacity(slots, &plan, (2 * c).min(trip), None)
            }
            (None, _) => self.check_capacity(slots, &plan, trip / n as u64, None),
        }?;
        if at.is_none() {
            self.engine.reset();
        }
        self.engine.clear_busy();
        let base = at.unwrap_or(SimTime::ZERO);

        let pred = match &model {
            Some((mp, source)) if self.log_decisions => {
                let priced = self.model2_intensity(algorithm, &intensity, &plan);
                Some(self.predict_static(*source, slots, &priced, &mp.counts, rates.as_deref()))
            }
            _ => None,
        };
        let result = match (counts, algorithm) {
            (Some(counts), Algorithm::WorkAssist { min_assist_pct, .. })
                if rates.is_none() && align.is_none() =>
            {
                self.run_assisted(
                    region,
                    kernel,
                    &plan,
                    counts,
                    mp,
                    base,
                    algorithm,
                    min_assist_pct,
                    pred,
                )
            }
            (Some(counts), _) => {
                self.run_static(region, kernel, &plan, counts, base, algorithm, mp, pred)
            }
            (None, Algorithm::Dynamic { chunk_pct }) => {
                let policy = DynamicChunks::from_pct(trip, chunk_pct);
                self.run_chunked(region, kernel, &plan, &policy, base, algorithm)
            }
            (None, Algorithm::Guided { chunk_pct }) => {
                let policy = GuidedChunks::from_pct(trip, chunk_pct);
                self.run_chunked(region, kernel, &plan, &policy, base, algorithm)
            }
            (None, Algorithm::ProfileConst { sample_pct, cutoff }) => {
                let samples = const_sample_counts(trip, n, sample_pct);
                self.run_profiled(region, kernel, &plan, &samples, cutoff, base, algorithm)
            }
            (None, Algorithm::ProfileModel { sample_pct, cutoff }) => {
                let params = self.slot_params(slots);
                let samples = model_sample_counts(&params, &intensity, trip, sample_pct);
                self.run_profiled(region, kernel, &plan, &samples, cutoff, base, algorithm)
            }
            (None, _) => unreachable!("AUTO is resolved and static splits are planned above"),
        };

        // Learn from the run. A device streaming chunks is a pipeline of
        // three resources (upload, compute, download); its sustainable
        // throughput is bounded by the *busiest* of them, so that is the
        // time it learns from. The engine sums busy time at every trace
        // level.
        if let (Some(db), Ok(report)) = (history, &result) {
            for (s, &dev) in slots.iter().enumerate() {
                let busy = self
                    .engine
                    .busy(dev, OpKind::Kernel)
                    .max(self.engine.busy(dev, OpKind::H2D))
                    .max(self.engine.busy(dev, OpKind::D2H));
                db.record(&region.name, dev, report.counts[s], busy.as_secs());
            }
        }
        result
    }

    /// Peak host FLOP rate assumed by the fallback pricing, FLOP/s — a
    /// deliberately pessimistic single-socket figure: the fallback is a
    /// last resort, not a competitive executor.
    const HOST_FALLBACK_FLOPS: f64 = 100e9;
    /// Host memory bandwidth assumed by the fallback pricing, B/s.
    const HOST_FALLBACK_BW: f64 = 40e9;

    /// Degraded-mode host fallback: execute the non-empty `ranges`
    /// serially on the host, starting on the virtual clock at `start`
    /// (when the last quarantine became public). Virtual cost is priced
    /// by a host roofline over the ledger's intensity — never by wall
    /// clock, so runs stay deterministic. No trace events are recorded:
    /// the trace belongs to devices, and the host has none. Decisions
    /// and `host_iters` go to `led`. Returns the virtual completion time.
    fn host_fallback(
        kernel: &mut dyn LoopKernel,
        led: &mut Ledger,
        ranges: &[Range],
        start: SimTime,
    ) -> SimTime {
        let intensity = led.intensity;
        let flops_s = intensity.flops_per_iter / Self::HOST_FALLBACK_FLOPS;
        let bytes_s = intensity.mem_elems_per_iter * intensity.elem_bytes / Self::HOST_FALLBACK_BW;
        let per_iter = flops_s.max(bytes_s);
        let region = led.region;
        let mut cursor = start;
        for &r in ranges {
            if r.is_empty() {
                continue;
            }
            kernel.execute(r);
            // Weight irregular loops the same way the device path does:
            // the cost profile sampled at the chunk midpoint.
            let weight = match region.cost_profile {
                Some(f) => f((r.start + r.end) / 2),
                None => 1.0,
            };
            let end = cursor + SimSpan::from_secs(per_iter * weight * r.len() as f64);
            led.note(ChunkDecision {
                requeued: true,
                note: Some("host-fallback"),
                ..ChunkDecision::placed(0, region.devices[0], r, "host", (end - cursor).as_secs())
            });
            led.summary.host_iters += r.len();
            cursor = end;
        }
        cursor
    }

    /// Run a fallible engine operation for slot `s` with exponential
    /// backoff on transient faults, counting each retry in the ledger.
    /// Permanent faults and exhausted retries surface as `Err` — the
    /// caller quarantines the slot.
    fn retry(
        &mut self,
        led: &mut Ledger,
        s: usize,
        ready: SimTime,
        mut op: impl FnMut(&mut Engine, SimTime) -> Result<SimTime, Fault>,
    ) -> Result<SimTime, Fault> {
        let dev = led.region.devices[s];
        let mut ready = ready;
        let mut retries = 0u32;
        loop {
            match op(&mut self.engine, ready) {
                Ok(t) => return Ok(t),
                Err(f) if f.kind.is_permanent() || retries == MAX_RETRIES => return Err(f),
                Err(f) => {
                    let backoff = SimSpan::from_micros(BASE_BACKOFF_US)
                        .scale(BACKOFF_MULTIPLIER.powi(retries as i32));
                    retries += 1;
                    led.summary.transient_retries += 1;
                    ready = self.engine.record_backoff(dev, f.at, backoff, "retry-backoff");
                }
            }
        }
    }

    /// Slot `s` moves `bytes` in `dir` once `ready`, retrying transient
    /// DMA faults.
    fn transfer(
        &mut self,
        led: &mut Ledger,
        s: usize,
        bytes: u64,
        dir: Dir,
        ready: SimTime,
        label: &str,
    ) -> Result<SimTime, Fault> {
        let dev = led.region.devices[s];
        self.retry(led, s, ready, |e, r| e.try_transfer(dev, bytes, dir, r, label))
    }

    /// Slot `s` launches once `ready`, retrying launch timeouts.
    fn launch(
        &mut self,
        led: &mut Ledger,
        s: usize,
        ready: SimTime,
        label: &str,
    ) -> Result<SimTime, Fault> {
        let dev = led.region.devices[s];
        self.retry(led, s, ready, |e, r| e.try_launch(dev, r, label))
    }

    /// Slot `s` computes `range` once `ready`, under the region's name
    /// and team schedule. A compute fault is not retried.
    fn compute(
        &mut self,
        led: &Ledger,
        s: usize,
        range: Range,
        ready: SimTime,
    ) -> Result<SimTime, Fault> {
        let (region, work) = (led.region, led.work(range));
        let dev = region.devices[s];
        self.engine.try_compute_teams(dev, &work, ready, &region.name, region.team_sched)
    }

    /// When slot `s` would finish computing `range` from `ready`: the
    /// engine's exact answer, peeked without committing.
    fn peek(&self, led: &Ledger, s: usize, range: Range, ready: SimTime) -> SimTime {
        let region = led.region;
        self.engine.peek_compute_end(region.devices[s], &led.work(range), ready, region.team_sched)
    }

    /// Slot `s` pays the requeue bookkeeping from `at` before it runs
    /// work a failed device dropped (a FAILOVER op under `label`).
    /// Returns when the work can start.
    fn failover(&mut self, led: &Ledger, s: usize, at: SimTime, label: &str) -> SimTime {
        let overhead = SimSpan::from_micros(REQUEUE_OVERHEAD_US);
        self.engine.record_failover(led.region.devices[s], at, overhead, label)
    }

    /// The setup every path gives a proxy before its first piece: slot
    /// `s` launches at the ledger's next setup instant, then moves
    /// `in_bytes` under `label`. Returns when the moved data is
    /// on-device. In a serialized offload the next proxy starts there,
    /// or at this setup's fault; the caller quarantines the slot on
    /// `Err`.
    fn setup(
        &mut self,
        led: &mut Ledger,
        s: usize,
        in_bytes: u64,
        label: &str,
    ) -> Result<SimTime, Fault> {
        let (region, start) = (led.region, led.next_setup);
        let ready = self
            .launch(led, s, start, &region.name)
            .and_then(|launched| self.transfer(led, s, in_bytes, Dir::H2D, launched, label));
        if !region.parallel_offload {
            led.next_setup = ready.unwrap_or_else(|f| f.at);
        }
        ready
    }

    /// Slot `s` runs `chunk` through the chunk pipeline (chunk-in →
    /// launch → kernel → chunk-out) from `start`. Returns `(in_done,
    /// comp_done, out_done)`.
    #[allow(clippy::too_many_arguments)]
    fn chunk_pipeline(
        &mut self,
        led: &mut Ledger,
        s: usize,
        chunk: Range,
        start: SimTime,
        h2d_bytes: u64,
        d2h_bytes: u64,
        labels: [&str; 3],
    ) -> Result<(SimTime, SimTime, SimTime), Fault> {
        let in_done = self.transfer(led, s, h2d_bytes, Dir::H2D, start, labels[0])?;
        let launched = self.launch(led, s, in_done, labels[1])?;
        let comp_done = self.compute(led, s, chunk, launched)?;
        let out_done = self.transfer(led, s, d2h_bytes, Dir::D2H, comp_done, labels[2])?;
        Ok((in_done, comp_done, out_done))
    }

    /// The recovery tail every single-region path ends with: block-split
    /// the ranges in `led.failed` over the surviving slots, repeating if
    /// a survivor fails during recovery, and run them on the host once
    /// no survivor remains. Terminates because each round either drains
    /// `failed` or quarantines at least one more device.
    fn recover(&mut self, kernel: &mut dyn LoopKernel, plan: &DataPlan, led: &mut Ledger) {
        let region = led.region;
        let slots = &region.devices;
        loop {
            let total: u64 = led.failed.iter().map(|r| r.len()).sum();
            if total == 0 {
                return;
            }
            let known_at = led.known_at();
            let survivors: Vec<usize> = (0..slots.len()).filter(|&s| !led.quarantined(s)).collect();
            if survivors.is_empty() {
                // Every device is gone: the host executes what is left
                // instead of erroring — degraded but correct.
                let ranges: Vec<Range> = led.failed.drain(..).collect();
                let end = Self::host_fallback(kernel, led, &ranges, known_at);
                led.completions[0] = led.completions[0].max(end);
                return;
            }
            let shares = block::block_counts(total, survivors.len());
            let mut next_failed: VecDeque<Range> = VecDeque::new();
            for (k, &s) in survivors.iter().enumerate() {
                let mut need = shares[k];
                if need == 0 {
                    continue;
                }
                let dev = slots[s];
                let base = led.completions[s].max(known_at);
                let mut cursor = self.failover(led, s, base, "requeue");
                while need > 0 {
                    let Some(mut r) = led.failed.pop_front() else { break };
                    let piece = r.take(need.min(r.len()));
                    if !r.is_empty() {
                        led.failed.push_front(r);
                    }
                    need -= piece.len();
                    if led.quarantined(s) {
                        next_failed.push_back(piece);
                        continue;
                    }
                    led.chunks += 1;
                    let len = piece.len();
                    let (h2d, d2h) = (plan.h2d_chunk_bytes(len), plan.d2h_chunk_bytes(len));
                    match self.chunk_pipeline(led, s, piece, cursor, h2d, d2h, REQUEUE_LABELS) {
                        Ok((_, _, out_done)) => {
                            led.commit(kernel, s, piece, true, out_done, || {
                                let realized_s = (out_done - cursor).as_secs();
                                ChunkDecision::placed(s, dev, piece, "requeue", realized_s)
                            });
                            cursor = out_done;
                        }
                        Err(f) => {
                            led.drop_slot(s, f.at);
                            next_failed.push_back(piece);
                        }
                    }
                }
            }
            // Whatever the newly dead devices dropped goes around again.
            next_failed.extend(led.failed.drain(..));
            led.failed = next_failed;
        }
    }

    /// Single-stage static distribution: one launch, one in-transfer, one
    /// kernel, one out-transfer per device.
    #[allow(clippy::too_many_arguments)]
    fn run_static(
        &mut self,
        region: &OffloadRegion,
        kernel: &mut dyn LoopKernel,
        plan: &DataPlan,
        counts: &[u64],
        dispatch: SimTime,
        algorithm: Algorithm,
        model: Option<&ModelPlan>,
        pred: Option<Predictions>,
    ) -> Result<OffloadReport, OffloadError> {
        // When a `target data` region covers this offload, the
        // environment rewrites the per-slot transfer bytes: resident
        // data is elided, split changes move only the delta, and
        // registered copy-backs are deferred to region close.
        let bytes = self.data_env.plan(region, plan, Some(counts), &region.devices)?;
        let mut led = Ledger::new(region, kernel.intensity(), dispatch, self.log_decisions);
        let mut range = Range::new(0, region.trip_count);

        // A share's whole lifecycle, setup through copy-back, is issued
        // before the next proxy sets up: deferring its compute and
        // copy-back, as WORK_ASSIST does, costs a static share ~13 %.
        for (s, &dev) in region.devices.iter().enumerate() {
            let my = range.take(counts[s]);
            let base = led.next_setup;
            if my.is_empty() {
                led.completions[s] = base;
                continue;
            }
            led.chunks += 1;
            let landed = self
                .setup(&mut led, s, bytes.h2d[s], "map-in")
                .and_then(|in_done| self.compute(&led, s, my, in_done))
                .and_then(|comp_done| {
                    self.transfer(&mut led, s, bytes.d2h[s], Dir::D2H, comp_done, "map-out")
                });
            match landed {
                Ok(out_done) => led.commit(kernel, s, my, false, out_done, || ChunkDecision {
                    predicted_s: pred.as_ref().map(|p| p.per_slot[s]),
                    source: pred.as_ref().map(|p| p.source),
                    ..ChunkDecision::placed(s, dev, my, "static", (out_done - base).as_secs())
                }),
                Err(f) => {
                    led.drop_slot(s, f.at);
                    led.failed.push_back(my);
                }
            }
        }
        debug_assert!(range.is_empty(), "static plan must cover the loop");
        self.recover(kernel, plan, &mut led);
        Ok(self.finish(led, algorithm, model))
    }

    /// Work-assisted distribution (`WORK_ASSIST`): MODEL_2 initial
    /// shares plus a dynamic rescue pass. A device that drains its share
    /// adopts a quarantined device's orphaned range, or steals the
    /// aligned back half of the worst straggler's unexecuted tail,
    /// paying transfer for only the stolen span.
    ///
    /// One deterministic pass: a setup phase issues every slot's launch
    /// and map-in, a commit loop retires the pending piece with the
    /// earliest finish and lets the freed device grab new work, and a
    /// flush copies each device's results back in slot order. Kernels
    /// execute only once their flush lands.
    ///
    /// When no steal or adoption fired, each device issued the ops
    /// `run_static` would, so the schedule is MODEL_2's (trace rows in
    /// canonical order) and the copy-backs are charged as the data
    /// environment deferred them. One fault case still differs: when no
    /// compute commits at all, the dropouts and the ranges `recover`
    /// re-runs follow commit order, not slot order. When a steal or
    /// adoption fired, ownership moved under the environment's feet: the
    /// copy-backs are charged eagerly and in full, and its residency is
    /// invalidated.
    #[allow(clippy::too_many_arguments)]
    fn run_assisted(
        &mut self,
        region: &OffloadRegion,
        kernel: &mut dyn LoopKernel,
        plan: &DataPlan,
        counts: &[u64],
        model: Option<&ModelPlan>,
        dispatch: SimTime,
        algorithm: Algorithm,
        min_assist_pct: f64,
        pred: Option<Predictions>,
    ) -> Result<OffloadReport, OffloadError> {
        let intensity = kernel.intensity();
        let policy = StealPolicy::for_region(region, min_assist_pct);
        let slots = &region.devices;
        let elided = self.data_env.stats().d2h_elided_bytes;
        let bytes = self.data_env.plan(region, plan, Some(counts), slots)?;
        let deferred = self.data_env.stats().d2h_elided_bytes - elided;
        let mut st = AssistState::new(region, intensity, dispatch, self.log_decisions);

        // Phase 1: initial shares, set up like the static path's.
        let mut range = Range::new(0, region.trip_count);
        for (s, &dev) in slots.iter().enumerate() {
            let my = range.take(counts[s]);
            let base = st.led.next_setup;
            if my.is_empty() {
                // Cutoff-dropped slots never set up, so they cannot
                // assist either — they have no data on-device.
                st.led.completions[s] = base;
                continue;
            }
            st.led.chunks += 1;
            match self.setup(&mut st.led, s, bytes.h2d[s], "map-in") {
                Ok(in_done) => {
                    let pred_end = self.peek(&st.led, s, my, in_done);
                    st.pending.push(AssistPiece {
                        slot: s,
                        range: my,
                        base,
                        start: in_done,
                        pred_end,
                        donor: None,
                        requeued: false,
                    });
                }
                Err(f) => {
                    st.drop_slot(s, f.at);
                    st.orphans.push_back(Orphan { range: my, known_at: f.at, donor: dev });
                }
            }
        }
        debug_assert!(range.is_empty(), "model plan must cover the loop");

        // Phase 2: commit computes in finish order; freed devices grab.
        while let Some(idx) = next_pending(&st.pending) {
            let piece = st.pending.swap_remove(idx);
            let s = piece.slot;
            match self.compute(&st.led, s, piece.range, piece.start) {
                Ok(end) => {
                    debug_assert_eq!(end, piece.pred_end, "peek must match commit");
                    st.led.completions[s] = end;
                    st.done[s].push(DonePiece { piece, comp_end: end });
                    st.free_since[s] = Some(end);
                }
                Err(f) => {
                    st.drop_slot(s, f.at);
                    st.orphans.push_back(Orphan {
                        range: piece.range,
                        known_at: f.at,
                        donor: slots[s],
                    });
                }
            }
            self.assist_dispatch(plan, &policy, &mut st);
        }

        // Phase 3: flush results in slot order.
        for (s, &dev) in slots.iter().enumerate() {
            if st.led.quarantined(s) || st.done[s].is_empty() {
                continue;
            }
            let d2h_bytes = if st.fired {
                plan.d2h_bytes(s, st.done[s].iter().map(|d| d.piece.range.len()).sum())
            } else {
                bytes.d2h[s]
            };
            let ready = st.led.completions[s];
            match self.transfer(&mut st.led, s, d2h_bytes, Dir::D2H, ready, "map-out") {
                Ok(out_done) => {
                    for dp in std::mem::take(&mut st.done[s]) {
                        let p = dp.piece;
                        // A share is priced by the plan and realized up to
                        // its copy-back, assisted work by MODEL_2 up to
                        // its compute.
                        let decide = || {
                            let predicted_s = pred.as_ref().map(|pred| match p.donor {
                                None => pred.per_slot[s],
                                Some(_) => {
                                    let params = &self.params[dev as usize];
                                    let cost = homp_model::model2::device_cost(params, &intensity);
                                    cost.time(p.range.len() as f64)
                                }
                            });
                            let (stage, end) = match p.donor {
                                None => ("static", out_done),
                                Some(_) => ("assist", dp.comp_end),
                            };
                            let realized_s = (end - p.base).as_secs();
                            ChunkDecision {
                                predicted_s,
                                source: predicted_s.map(|_| PredictionSource::Model2),
                                donor: p.donor,
                                ..ChunkDecision::placed(s, dev, p.range, stage, realized_s)
                            }
                        };
                        st.led.commit(kernel, s, p.range, p.requeued, out_done, decide);
                    }
                }
                Err(f) => {
                    st.drop_slot(s, f.at);
                }
            }
        }
        // Orphans nobody adopted (all peers dead or drained earlier)
        // fall back to the serial requeue path.
        st.led.failed.extend(st.orphans.drain(..).map(|o| o.range));
        self.recover(kernel, plan, &mut st.led);
        if st.fired {
            self.data_env.invalidate_residency(region, deferred);
        }
        Ok(self.finish(st.led, algorithm, model))
    }

    /// Hand work to every free device, in deterministic (free-time,
    /// slot) order: orphaned ranges first (a rescue pays the requeue
    /// overhead and moves only the adopted span's bytes), else steal the
    /// aligned back half of the straggler with the latest predicted
    /// finish. Loops until no free device can act.
    fn assist_dispatch(&mut self, plan: &DataPlan, policy: &StealPolicy, st: &mut AssistState) {
        let region = st.led.region;
        let slots = &region.devices;
        loop {
            // Reuse the state's scratch buffer across rounds (and across
            // offloads via `AssistState` reuse) instead of collecting a
            // fresh Vec per round — this loop runs once per dispatch
            // round of every assisted offload.
            let mut free = std::mem::take(&mut st.free_scratch);
            free.clear();
            free.extend(st.free_since.iter().enumerate().filter_map(|(s, t)| t.map(|t| (t, s))));
            free.sort();
            let mut progressed = false;
            for &(now, s) in &free {
                if st.free_since[s].is_none() || st.led.quarantined(s) {
                    continue;
                }
                if let Some(o) = st.orphans.pop_front() {
                    let (take, rest) = assist::grab_from_orphan(o.range, policy);
                    if let Some(r) = rest {
                        st.orphans.push_front(Orphan { range: r, ..o });
                    }
                    st.fired = true;
                    st.free_since[s] = None;
                    progressed = true;
                    self.assist_setup(plan, st, s, now.max(o.known_at), take, o.donor, true);
                } else if let Some((vi, kept, stolen)) = pick_victim(&st.pending, policy, now) {
                    let victim = st.pending[vi];
                    // Benefit gate: a steal must be *predicted* to land
                    // the stolen span before the victim would finish it
                    // anyway. The thief starts cold — MODEL_2's per-
                    // device cost includes re-moving the span's bytes —
                    // so on transfer-bound kernels with small noise
                    // tails the gate (correctly) refuses to fire.
                    let params = &self.params[slots[s] as usize];
                    let thief_cost = homp_model::model2::device_cost(params, &st.led.intensity)
                        .time(stolen.len() as f64);
                    if now + SimSpan::from_secs(thief_cost) >= victim.pred_end {
                        continue;
                    }
                    st.pending[vi].range = kept;
                    st.pending[vi].pred_end = self.peek(&st.led, victim.slot, kept, victim.start);
                    st.fired = true;
                    st.free_since[s] = None;
                    progressed = true;
                    self.assist_setup(plan, st, s, now, stolen, slots[victim.slot], false);
                }
            }
            st.free_scratch = free;
            if !progressed {
                return;
            }
        }
    }

    /// Move a stolen or adopted span's bytes to assistant `s` and queue
    /// its compute; an adoption (`requeued`) first pays the requeue
    /// overhead. A fault during the rescue quarantines the assistant and
    /// re-orphans the span.
    #[allow(clippy::too_many_arguments)]
    fn assist_setup(
        &mut self,
        plan: &DataPlan,
        st: &mut AssistState,
        s: usize,
        base: SimTime,
        piece: Range,
        donor: DeviceId,
        requeued: bool,
    ) {
        st.led.chunks += 1;
        let cursor = if requeued { self.failover(&st.led, s, base, "assist-grab") } else { base };
        let in_bytes = plan.h2d_chunk_bytes(piece.len());
        let setup = self
            .transfer(&mut st.led, s, in_bytes, Dir::H2D, cursor, "assist-in")
            .and_then(|in_done| self.launch(&mut st.led, s, in_done, "assist-launch"));
        match setup {
            Ok(ready) => {
                let pred_end = self.peek(&st.led, s, piece, ready);
                st.pending.push(AssistPiece {
                    slot: s,
                    range: piece,
                    base,
                    start: ready,
                    pred_end,
                    donor: Some(donor),
                    requeued,
                });
            }
            Err(f) => {
                st.drop_slot(s, f.at);
                let dev = st.led.region.devices[s];
                st.orphans.push_back(Orphan { range: piece, known_at: f.at, donor: dev });
            }
        }
    }

    /// Multi-stage chunk scheduling with transfer/compute overlap:
    /// proxies grab chunks from the shared queue at their virtual-time
    /// availability, double-buffering one transfer ahead.
    ///
    /// When fault injection is configured, the ledger's health lifecycle
    /// runs (only here — the other paths use only its quarantine and the
    /// simpler requeue-on-dropout recovery of [`Runtime::recover`]):
    /// degraded devices get shrunken chunks (the sliced-off tail goes to
    /// a deferred lane any device can pick up), quarantined devices are
    /// probed on a doubling interval and — when the probe lands and the
    /// remaining work passes the WORK_ASSIST benefit gate — reintegrated
    /// on probation with a reduced share until a clean streak graduates
    /// them. Without a fault config none of this machinery runs, so
    /// no-fault schedules stay byte-identical.
    fn run_chunked(
        &mut self,
        region: &OffloadRegion,
        kernel: &mut dyn LoopKernel,
        plan: &DataPlan,
        policy: &dyn ChunkPolicy,
        dispatch: SimTime,
        algorithm: Algorithm,
    ) -> Result<OffloadReport, OffloadError> {
        let slots = &region.devices;
        let n = slots.len();
        // Inside a `target data` region, chunked schedules elide only the
        // *fixed* mappings (replicated / independent / scalars) — aligned
        // data streams per chunk with no stable ownership to reuse.
        let fixed = self.data_env.plan(region, plan, None, slots)?;
        let mut queue = ChunkQueue::new(region.trip_count, n);
        let mut led = Ledger::new(region, kernel.intensity(), dispatch, self.log_decisions);
        led.health_on = !self.engine.fault_plan().is_none();
        let mut prev_comp_end = vec![dispatch; n];
        let steal = StealPolicy::for_region(region, crate::sched::DEFAULT_ASSIST_PCT);
        // Per-slot recovery-probe budget and current wait (doubles after
        // each failed probe). The budget decrements per *attempt*, so a
        // device that reintegrates and faults again cannot ping-pong
        // forever.
        let mut probe_budget = vec![MAX_PROBES; n];
        let mut probe_wait = vec![SimSpan::from_micros(PROBE_INTERVAL_US); n];
        // Tails sliced off shrunken (degraded/probation) chunks; served
        // before fresh queue grabs, by any device.
        let mut deferred: VecDeque<Range> = VecDeque::new();

        // Min-heap of (next grab time, slot); BinaryHeap is a max-heap so
        // order by Reverse.
        let mut heap: BinaryHeap<std::cmp::Reverse<(SimTime, usize)>> = BinaryHeap::new();

        // Fixed transfers first (the data region elides what it already
        // holds). A device that faults out of its setup never enters the
        // chunk race.
        for s in 0..n {
            match self.setup(&mut led, s, fixed.h2d[s], "map-in-fixed") {
                Ok(ready) => {
                    led.completions[s] = ready;
                    heap.push(std::cmp::Reverse((ready, s)));
                }
                Err(f) => {
                    led.drop_slot(s, f.at);
                    if led.health_on && probe_budget[s] > 0 {
                        heap.push(std::cmp::Reverse((f.at + probe_wait[s], s)));
                    }
                }
            }
        }

        while let Some(std::cmp::Reverse((grab_at, s))) = heap.pop() {
            let dev = slots[s];

            // A quarantined slot in the heap is a recovery probe, not a
            // chunk grab: one launch, never retried, and none once every
            // slot is quarantined (the host then runs what is left).
            if led.quarantined(s) {
                if probe_budget[s] == 0 || (0..n).all(|q| led.quarantined(q)) {
                    continue;
                }
                probe_budget[s] -= 1;
                let left: u64 = queue.remaining() + deferred.iter().map(|r| r.len()).sum::<u64>();
                if left == 0 {
                    continue;
                }
                match self.engine.try_launch(dev, grab_at, "health-probe") {
                    Ok(t) => {
                        // Benefit gate (the WORK_ASSIST steal math): a
                        // comeback must have at least a minimum share's
                        // worth of work left to earn, else setup costs
                        // outweigh it and the device stays retired.
                        if left < steal.min_steal {
                            continue;
                        }
                        let tr = led.health.begin_probation(s, dev, t);
                        led.note(health_decision(&tr));
                        led.completions[s] = t;
                        heap.push(std::cmp::Reverse((t, s)));
                    }
                    Err(f) => {
                        probe_wait[s] = probe_wait[s].scale(2.0);
                        if probe_budget[s] > 0 {
                            heap.push(std::cmp::Reverse((f.at + probe_wait[s], s)));
                        }
                    }
                }
                continue;
            }

            // Deferred tails (sliced off shrunken chunks) drain before
            // fresh queue grabs.
            let (full, requeued) = match deferred.pop_front() {
                Some(r) => {
                    led.chunks += 1;
                    (r, false)
                }
                None => match queue.grab_with_origin(policy) {
                    Some(g) => g,
                    None => break,
                },
            };

            // Degraded and probation devices take shrunken shares: keep
            // a fraction of the chunk, defer the tail for anyone.
            let mult = if led.health_on { led.health.share_multiplier(s) } else { 1.0 };
            let chunk = if mult < 1.0 && !requeued && full.len() > 1 {
                let keep = ((full.len() as f64 * mult).ceil() as u64).clamp(1, full.len());
                if keep < full.len() {
                    let mut rest = full;
                    let head = rest.take(keep);
                    deferred.push_back(rest);
                    head
                } else {
                    full
                }
            } else {
                full
            };
            // Survivors pay failover bookkeeping before re-running an
            // orphaned chunk.
            let start = if requeued { self.failover(&led, s, grab_at, "requeue") } else { grab_at };
            let labels =
                if requeued { REQUEUE_LABELS } else { ["chunk-in", "chunk-launch", "chunk-out"] };
            let len = chunk.len();
            let (h2d, d2h) = (plan.h2d_chunk_bytes(len), plan.d2h_chunk_bytes(len));
            let retries_before = led.summary.transient_retries;
            match self.chunk_pipeline(&mut led, s, chunk, start, h2d, d2h, labels) {
                Ok((in_done, comp_done, out_done)) => {
                    led.commit(kernel, s, chunk, requeued, out_done, || {
                        let stage = if requeued { "requeue" } else { "chunk" };
                        ChunkDecision::placed(s, dev, chunk, stage, (out_done - grab_at).as_secs())
                    });
                    if led.health_on {
                        // A probation device that needed transient
                        // retries to land its chunk has not earned its
                        // way back: re-quarantine (the chunk itself is
                        // done and stays done).
                        let tr = if led.summary.transient_retries > retries_before
                            && led.health.state(s) == HealthState::Probation
                        {
                            led.health.observe_fault(s, dev, FaultKind::TransientDma, out_done)
                        } else {
                            let secs = (comp_done - in_done).as_secs();
                            led.health.observe_chunk(s, dev, chunk.len(), secs, out_done)
                        };
                        if let Some(tr) = tr {
                            led.note(health_decision(&tr));
                        }
                    }
                    if !led.quarantined(s) {
                        // Grab the next chunk once this transfer is in
                        // *and* the previous compute has started
                        // draining — depth-1 prefetch.
                        let next_grab = in_done.max(prev_comp_end[s]);
                        prev_comp_end[s] = comp_done;
                        heap.push(std::cmp::Reverse((next_grab, s)));
                    } else if probe_budget[s] > 0 {
                        heap.push(std::cmp::Reverse((out_done + probe_wait[s], s)));
                    }
                }
                Err(f) => {
                    // The chunk goes back for a survivor; this slot is
                    // out of the race until a recovery probe lands.
                    led.drop_slot(s, f.at);
                    queue.requeue(chunk);
                    if led.health_on && probe_budget[s] > 0 {
                        heap.push(std::cmp::Reverse((f.at + probe_wait[s], s)));
                    }
                }
            }
        }
        // Work nobody could take goes to the recovery tail. Some is
        // left only once every slot is quarantined with its probe budget
        // spent (a live slot re-enters the heap, or breaks out with both
        // queues empty), so the tail runs it on the host.
        led.failed.extend(deferred.drain(..));
        led.failed.extend(queue.drain_remaining());
        self.recover(kernel, plan, &mut led);
        led.chunks += queue.chunks_handed();

        // Final fixed out-transfers (replicated/independent `from` data,
        // and the reduction partial of a slot that ran a chunk).
        for s in 0..n {
            let b = fixed.d2h[s] - if led.counts[s] == 0 { region.reduction_bytes } else { 0 };
            if b > 0 && !led.quarantined(s) {
                let ready = led.completions[s];
                match self.transfer(&mut led, s, b, Dir::D2H, ready, "map-out-fixed") {
                    Ok(t) => led.completions[s] = t,
                    Err(f) => led.drop_slot(s, f.at),
                }
            }
        }
        Ok(self.finish(led, algorithm, None))
    }

    /// Two-stage profiling: sample, broadcast throughputs, distribute the
    /// remainder.
    #[allow(clippy::too_many_arguments)]
    fn run_profiled(
        &mut self,
        region: &OffloadRegion,
        kernel: &mut dyn LoopKernel,
        plan: &DataPlan,
        samples: &[u64],
        cutoff: Option<f64>,
        dispatch: SimTime,
        algorithm: Algorithm,
    ) -> Result<OffloadReport, OffloadError> {
        let slots = &region.devices;
        let n = slots.len();
        // Same contract as `run_chunked`: inside a data region only the
        // fixed mappings elide; the sampled/stage-2 aligned data streams.
        let fixed = self.data_env.plan(region, plan, None, slots)?;
        let mut range = Range::new(0, region.trip_count);
        let mut throughputs = vec![0.0f64; n];
        // Through stage 1 the ledger's completions are the sample ends.
        let mut led = Ledger::new(region, kernel.intensity(), dispatch, self.log_decisions);

        // ---- stage 1: sample. -------------------------------------------
        // A device that faults out of stage 1 keeps zero throughput, so
        // the stage-2 planner assigns it nothing; its sample re-runs on
        // the survivors at the end. An empty sample skips straight to the
        // fixed-transfer completion.
        for (s, &dev) in slots.iter().enumerate() {
            let my = range.take(samples[s]);
            let base = led.next_setup;
            led.chunks += u64::from(!my.is_empty());
            let setup = self.setup(&mut led, s, fixed.h2d[s], "map-in-fixed");
            let sampled = setup.and_then(|in_fixed| {
                if my.is_empty() {
                    return Ok((in_fixed, in_fixed));
                }
                let bytes = plan.h2d_chunk_bytes(my.len());
                let in_done = self.transfer(&mut led, s, bytes, Dir::H2D, in_fixed, "sample-in")?;
                let end = self.compute(&led, s, my, in_done)?;
                Ok((in_done, end))
            });
            match sampled {
                Ok((in_done, end)) => {
                    if !my.is_empty() {
                        throughputs[s] = measured_throughput(my.len(), (end - in_done).as_secs());
                        led.commit(kernel, s, my, false, end, || {
                            ChunkDecision::placed(s, dev, my, "sample", (end - base).as_secs())
                        });
                    }
                    // The sample's out-data drains with the stage-2 data;
                    // stage-1 end is the compute completion.
                    led.completions[s] = end;
                }
                Err(f) => {
                    led.drop_slot(s, f.at);
                    if !my.is_empty() {
                        led.failed.push_back(my);
                    }
                }
            }
        }

        // ---- broadcast: all proxies learn all throughputs. ---------------
        let barrier = self.engine.barrier(slots, &led.completions);

        // ---- stage 2: distribute the remainder by measured rate. ---------
        let remaining = range.len();
        let mp = throughput_plan(&throughputs, remaining, cutoff);
        for (s, &dev) in slots.iter().enumerate() {
            let my = range.take(mp.counts[s]);
            if led.quarantined(s) {
                // Possible only when every throughput is zero and the
                // planner dumps the remainder on slot 0: hand it to
                // recovery instead.
                if !my.is_empty() {
                    led.failed.push_back(my);
                }
                continue;
            }
            led.completions[s] = barrier;
            // Drain the sample's out-bytes even when stage 2 assigns
            // nothing new.
            let d2h_total = plan.d2h_chunk_bytes(led.counts[s] + my.len()) + fixed.d2h[s];
            if my.is_empty() {
                if d2h_total > 0 && led.counts[s] > 0 {
                    match self.transfer(&mut led, s, d2h_total, Dir::D2H, barrier, "map-out") {
                        Ok(t) => led.completions[s] = t,
                        Err(f) => led.drop_slot(s, f.at),
                    }
                }
                continue;
            }
            led.chunks += 1;
            let h2d = plan.h2d_chunk_bytes(my.len());
            let labels = ["stage2-in", "stage2-launch", "map-out"];
            match self.chunk_pipeline(&mut led, s, my, barrier, h2d, d2h_total, labels) {
                Ok((_, _, out_done)) => {
                    let tp = throughputs[s];
                    led.commit(kernel, s, my, false, out_done, || {
                        let realized_s = (out_done - barrier).as_secs();
                        ChunkDecision {
                            predicted_s: (tp > 0.0).then(|| my.len() as f64 / tp),
                            source: (tp > 0.0).then_some(PredictionSource::Measured),
                            ..ChunkDecision::placed(s, dev, my, "stage2", realized_s)
                        }
                    });
                }
                Err(f) => {
                    led.drop_slot(s, f.at);
                    led.failed.push_back(my);
                }
            }
        }
        debug_assert!(range.is_empty(), "profiled plan must cover the loop");
        self.recover(kernel, plan, &mut led);
        Ok(self.finish(led, algorithm, Some(&mp)))
    }

    // ------------------------------------------------------------------
    // Kernel pipelines
    // ------------------------------------------------------------------

    /// Run a [`Pipeline`] of offload stages.
    ///
    /// When **no** stage is `nowait`, every stage runs through the
    /// classic reset-at-zero offload path — byte-identical (traces,
    /// decisions, reports) to calling [`Runtime::offload`]`.run()` once
    /// per stage on the same runtime.
    ///
    /// When any stage is `nowait`, the overlapped executor runs from
    /// [`Runtime::now`] on the calendars as they stand: each stage's
    /// per-device shares are block-split into pipeline chunks
    /// ([`crate::pipeline::ChunkingPolicy`]), and a consumer chunk
    /// dispatches the moment the producer chunks covering its
    /// halo-dilated read window ([`producer_window`]) complete — the
    /// same un-reset-calendar machinery the multi-tenant
    /// `offload(…).at(t)` path uses. A non-`nowait` stage inside an
    /// otherwise overlapped pipeline contributes barrier edges: the
    /// next stage's chunks wait for *all* of its chunks.
    ///
    /// The overlapped executor uses the static BLOCK geometry for every
    /// stage (chunk-level dependencies need the chunk→device assignment
    /// up front), so the per-stage `algorithm` field is honoured only on
    /// the barrier path. Linked intermediate arrays stay device-resident
    /// between stages: a consumer chunk on the producing device pays no
    /// transfer for them, a chunk elsewhere re-imports the overlapping
    /// producer slabs at H2D cost, and `from`-mapped intermediates are
    /// flushed to the host once the pipeline drains.
    pub fn offload_pipeline(
        &mut self,
        pipeline: &Pipeline,
        kernel: &mut dyn PipelineKernel,
    ) -> Result<PipelineReport, OffloadError> {
        if pipeline.overlapped() {
            self.pipeline_overlapped(pipeline, kernel)
        } else {
            self.pipeline_barrier(pipeline, kernel)
        }
    }

    /// Degenerate all-barrier pipeline: each stage through the classic
    /// reset-at-zero path. Byte-identity with back-to-back offloads is
    /// by construction — this *is* that code path.
    fn pipeline_barrier(
        &mut self,
        pipeline: &Pipeline,
        kernel: &mut dyn PipelineKernel,
    ) -> Result<PipelineReport, OffloadError> {
        let mut stages = Vec::with_capacity(pipeline.stages.len());
        for (i, region) in pipeline.stages.iter().enumerate() {
            let mut stage_kernel = StageKernel { inner: kernel, stage: i };
            stages.push(self.offload_inner(region, &mut stage_kernel, None, None, None)?);
        }
        let barrier_sum = stages.iter().fold(SimSpan::ZERO, |acc, s| acc + s.makespan);
        // Boundary idle: from the producer's last kernel completion,
        // across the barrier, to the consumer's first kernel start. Each
        // stage trace starts at zero, so the gap on the concatenated
        // timeline is the producer's post-kernel tail plus the
        // consumer's pre-kernel head.
        let mut boundary_idle = SimSpan::ZERO;
        for s in 0..stages.len().saturating_sub(1) {
            let prod = kernel_span(&stages[s].trace, &pipeline.stages[s].name);
            let cons = kernel_span(&stages[s + 1].trace, &pipeline.stages[s + 1].name);
            if let (Some((_, prod_end)), Some((cons_start, _))) = (prod, cons) {
                let tail = stages[s].makespan.as_secs() - (prod_end - SimTime::ZERO).as_secs();
                let head = (cons_start - SimTime::ZERO).as_secs();
                boundary_idle += SimSpan::from_secs((tail + head).max(0.0));
            }
        }
        Ok(PipelineReport {
            name: pipeline.name.clone(),
            overlapped: false,
            stages,
            makespan: barrier_sum,
            completed_at: SimTime::ZERO + barrier_sum,
            barrier_sum,
            boundary_idle,
            trace: Trace::default(),
        })
    }

    /// The overlapped executor: one engine timeline, chunk-level
    /// producer→consumer edges, dispatch base at [`Runtime::now`].
    fn pipeline_overlapped(
        &mut self,
        pipeline: &Pipeline,
        kernel: &mut dyn PipelineKernel,
    ) -> Result<PipelineReport, OffloadError> {
        let n_stages = pipeline.stages.len();

        // ---- geometry: links, plans, byte rates, pipeline chunks ------
        // `links[s - 1]` connects stage s-1 (producer) to s (consumer).
        let links: Vec<Vec<StageLink>> = (1..n_stages)
            .map(|s| stage_links(&pipeline.stages[s - 1], &pipeline.stages[s]))
            .collect();
        let mut plans: Vec<DataPlan> = Vec::with_capacity(n_stages);
        let mut stage_bytes: Vec<StageBytes> = Vec::with_capacity(n_stages);
        let mut chunk_lists: Vec<Vec<(usize, Range)>> = Vec::with_capacity(n_stages);
        // `link_slabs[s - 1][k]`: bytes per producer index of link k's
        // array when the producer distributes it. A consumer chunk
        // imports at most the producer's whole iteration space of them.
        let mut link_slabs: Vec<Vec<Option<u64>>> = Vec::with_capacity(n_stages);
        for (s, region) in pipeline.stages.iter().enumerate() {
            self.check_region(region)?;
            if s > 0 {
                let prev = &pipeline.stages[s - 1];
                let slab = |l: &StageLink| -> Result<Option<u64>, PlanError> {
                    let Some(pmap) = prev.array(&l.array) else { return Ok(None) };
                    let Some(dim) = pmap.distributed_dim() else { return Ok(None) };
                    let whole = |b: &u64| b.checked_mul(prev.trip_count).is_some();
                    let bytes = pmap.slab_bytes(dim).filter(whole);
                    bytes.map(Some).ok_or_else(|| PlanError::Overflow(l.array.clone()))
                };
                link_slabs.push(links[s - 1].iter().map(slab).collect::<Result<_, _>>()?);
            }
            let counts = block::block_counts(region.trip_count, region.devices.len());
            let plan = DataPlan::new(region, region.devices.len())?;
            self.check_capacity(&region.devices, &plan, 0, Some(&counts))?;
            chunk_lists.push(stage_chunks(&counts, pipeline.chunking));
            let linked_in = s.checked_sub(1).map_or(&[][..], |p| &links[p]);
            let linked_out = links.get(s).map_or(&[][..], Vec::as_slice);
            stage_bytes.push(StageBytes::new(&plan, linked_in, linked_out));
            plans.push(plan);
        }

        // ---- edges: deps per consumer chunk ---------------------------
        let mut deps: Vec<Vec<Vec<usize>>> = Vec::with_capacity(n_stages);
        deps.push(vec![Vec::new(); chunk_lists[0].len()]);
        for s in 1..n_stages {
            let prev = &pipeline.stages[s - 1];
            let cur = &pipeline.stages[s];
            let prev_chunks = &chunk_lists[s - 1];
            let all: Vec<usize> = (0..prev_chunks.len()).collect();
            let stage_deps = chunk_lists[s]
                .iter()
                .map(|&(_, range)| {
                    // A non-nowait producer is a barrier edge; so is a
                    // FULL-partition (undistributed) read.
                    if !prev.nowait || links[s - 1].iter().any(|l| l.full) {
                        return all.clone();
                    }
                    let mut d: Vec<usize> = Vec::new();
                    for l in &links[s - 1] {
                        let w = producer_window(range, cur.trip_count, prev.trip_count, l.halo);
                        for (j, &(_, pr)) in prev_chunks.iter().enumerate() {
                            if pr.overlaps(&w) && !d.contains(&j) {
                                d.push(j);
                            }
                        }
                    }
                    d.sort_unstable();
                    d
                })
                .collect();
            deps.push(stage_deps);
        }

        // ---- execution state -----------------------------------------
        let base = self.now();

        // Dependency-satisfaction instant (compute completion: the data
        // exists on the producing device) and out-transfer completion
        // per chunk; the executing device per chunk (None = host).
        let mut done_dep: Vec<Vec<Option<SimTime>>> =
            chunk_lists.iter().map(|c| vec![None; c.len()]).collect();
        let mut done_out: Vec<Vec<Option<SimTime>>> =
            chunk_lists.iter().map(|c| vec![None; c.len()]).collect();
        let mut placed: Vec<Vec<Option<DeviceId>>> = chunk_lists
            .iter()
            .zip(&pipeline.stages)
            .map(|(c, r)| c.iter().map(|&(slot, _)| Some(r.devices[slot])).collect())
            .collect();
        let mut pending: Vec<Vec<usize>> =
            deps.iter().map(|stage| stage.iter().map(Vec::len).collect()).collect();
        // Per-stage counts, chunks, fault summary and decision log.
        let mut leds: Vec<Ledger> = pipeline
            .stages
            .iter()
            .enumerate()
            .map(|(s, r)| Ledger::new(r, kernel.intensity(s), base, self.log_decisions))
            .collect();
        let mut first_dispatch: Vec<Option<SimTime>> = vec![None; n_stages];
        let mut fixed_sent: Vec<Vec<bool>> =
            pipeline.stages.iter().map(|r| vec![false; r.devices.len()]).collect();
        let mut quarantined: Vec<bool> = vec![false; self.engine.n_devices()];
        // Last out-transfer completion per device, for the end barrier.
        let mut dev_last: Vec<SimTime> = vec![base; self.engine.n_devices()];

        // Ready min-heap keyed (instant, stage, chunk): deterministic
        // pop order, non-decreasing dispatch instants.
        let mut heap: BinaryHeap<std::cmp::Reverse<(SimTime, usize, usize)>> = BinaryHeap::new();
        for (s, stage_pending) in pending.iter().enumerate() {
            for (c, &p) in stage_pending.iter().enumerate() {
                if p == 0 {
                    heap.push(std::cmp::Reverse((base, s, c)));
                }
            }
        }

        while let Some(std::cmp::Reverse((ready, s, c))) = heap.pop() {
            let (home_slot, range) = chunk_lists[s][c];
            let region = &pipeline.stages[s];
            let rates = &stage_bytes[s];

            // Execution slot: the home slot, else the next healthy slot
            // of this stage (deterministic round-robin); host fallback
            // when the stage has no live device left.
            let exec_slot = (0..region.devices.len())
                .map(|k| (home_slot + k) % region.devices.len())
                .find(|&sl| !quarantined[region.devices[sl] as usize]);
            let Some(exec_slot) = exec_slot else {
                let mut stage_kernel = StageKernel { inner: kernel, stage: s };
                let end = Self::host_fallback(&mut stage_kernel, &mut leds[s], &[range], ready);
                placed[s][c] = None;
                // The end barrier waits for the host too, through the
                // stage's first device (quarantined, so never flushed).
                let first = region.devices[0] as usize;
                dev_last[first] = dev_last[first].max(end);
                release_dependents(
                    s,
                    c,
                    end,
                    end,
                    &deps,
                    &mut pending,
                    &mut done_dep,
                    &mut done_out,
                    &mut heap,
                );
                continue;
            };
            let dev = region.devices[exec_slot];
            first_dispatch[s] = Some(first_dispatch[s].map_or(ready, |t: SimTime| t.min(ready)));

            // H2D: per-iteration bytes of non-linked inputs, plus
            // remote-producer slab imports for linked inputs, plus the
            // slot's fixed (replicated/independent/scalar) bytes on its
            // first chunk.
            let mut h2d = (rates.h2d_per_iter * range.len() as f64).round() as u64;
            if s > 0 {
                let prev = &pipeline.stages[s - 1];
                for (l, &slab) in links[s - 1].iter().zip(&link_slabs[s - 1]) {
                    let Some(slab) = slab else { continue };
                    let window = if l.full {
                        Range::new(0, prev.trip_count)
                    } else {
                        producer_window(range, region.trip_count, prev.trip_count, l.halo)
                    };
                    for (j, &(_, pr)) in chunk_lists[s - 1].iter().enumerate() {
                        if placed[s - 1][j] != Some(dev) {
                            h2d += window.intersect(&pr).len() * slab;
                        }
                    }
                }
            }
            if !fixed_sent[s][exec_slot] {
                h2d += rates.fixed_h2d[exec_slot];
            }
            // D2H: only non-linked outputs inline; linked intermediates
            // stay resident and flush when the pipeline drains.
            let d2h = (rates.d2h_per_iter * range.len() as f64).round() as u64;

            let led = &mut leds[s];
            led.chunks += 1;
            let labels = ["pipe-in", "pipe-launch", "pipe-out"];
            match self.chunk_pipeline(led, exec_slot, range, ready, h2d, d2h, labels) {
                Ok((_, comp_done, out_done)) => {
                    let requeued = exec_slot != home_slot;
                    let mut stage_kernel = StageKernel { inner: kernel, stage: s };
                    led.commit(&mut stage_kernel, exec_slot, range, requeued, out_done, || {
                        let realized_s = (out_done - ready).as_secs();
                        ChunkDecision {
                            note: requeued.then_some("pipeline-requeue"),
                            ..ChunkDecision::placed(exec_slot, dev, range, "pipeline", realized_s)
                        }
                    });
                    fixed_sent[s][exec_slot] = true;
                    placed[s][c] = Some(dev);
                    dev_last[dev as usize] = dev_last[dev as usize].max(out_done);
                    release_dependents(
                        s,
                        c,
                        comp_done,
                        out_done,
                        &deps,
                        &mut pending,
                        &mut done_dep,
                        &mut done_out,
                        &mut heap,
                    );
                }
                Err(f) => {
                    // Quarantine the device pipeline-wide and requeue
                    // the chunk; the next pop picks a healthy slot (or
                    // the host).
                    quarantined[dev as usize] = true;
                    led.drop_slot(exec_slot, f.at);
                    heap.push(std::cmp::Reverse((f.at, s, c)));
                }
            }
        }

        // ---- flush deferred copy-backs and fixed D2H -----------------
        // Per-stage flush span (max across devices — barrier mode would
        // run them concurrently too): charged into the stage's reported
        // makespan so `barrier_sum` still accounts for the copy-backs
        // the overlapped path deferred out of the per-chunk critical
        // path.
        let mut flush_spans: Vec<SimSpan> = vec![SimSpan::ZERO; n_stages];
        for (s, (region, rates)) in pipeline.stages.iter().zip(&stage_bytes).enumerate() {
            for (slot, &dev) in region.devices.iter().enumerate() {
                if quarantined[dev as usize] || leds[s].counts[slot] == 0 {
                    continue;
                }
                let bytes = (rates.deferred_per_iter * leds[s].counts[slot] as f64).round() as u64
                    + plans[s].d2h_fixed_bytes(slot);
                if bytes > 0 {
                    let span = self.engine.pure_transfer_span(dev, bytes);
                    if span.as_secs() > flush_spans[s].as_secs() {
                        flush_spans[s] = span;
                    }
                    let end = self.engine.transfer(
                        dev,
                        bytes,
                        Dir::D2H,
                        dev_last[dev as usize],
                        "pipe-flush",
                    );
                    dev_last[dev as usize] = end;
                }
            }
        }

        // ---- end barrier, combined trace, reports --------------------
        let mut devices: Vec<DeviceId> =
            pipeline.stages.iter().flat_map(|r| r.devices.iter().copied()).collect();
        devices.sort_unstable();
        devices.dedup();
        let completions: Vec<SimTime> = devices.iter().map(|&d| dev_last[d as usize]).collect();
        let release = self.engine.barrier(&devices, &completions);
        let trace = self.engine.take_trace();

        let mut stage_reports = Vec::with_capacity(n_stages);
        for (s, (region, led)) in pipeline.stages.iter().zip(leds).enumerate() {
            let last = done_out[s].iter().flatten().copied().fold(base, SimTime::max);
            let first = first_dispatch[s].unwrap_or(base);
            stage_reports.push(OffloadReport {
                algorithm: Algorithm::Block,
                makespan: (last - first) + flush_spans[s],
                completed_at: last,
                devices: region.devices.clone(),
                counts: led.counts,
                kept_devices: region.devices.clone(),
                chunks: led.chunks,
                imbalance_pct: 0.0,
                faults: led.summary,
                flops_per_iter: led.intensity.flops_per_iter,
                decisions: led.log.unwrap_or_default(),
                trace: Trace::default(),
            });
        }
        let barrier_sum = stage_reports.iter().fold(SimSpan::ZERO, |acc, r| acc + r.makespan);
        let mut boundary_idle = SimSpan::ZERO;
        for s in 0..n_stages.saturating_sub(1) {
            let prod = kernel_span(&trace, &pipeline.stages[s].name);
            let cons = kernel_span(&trace, &pipeline.stages[s + 1].name);
            if let (Some((_, prod_end)), Some((cons_start, _))) = (prod, cons) {
                if cons_start > prod_end {
                    boundary_idle += cons_start - prod_end;
                }
            }
        }
        Ok(PipelineReport {
            name: pipeline.name.clone(),
            overlapped: true,
            stages: stage_reports,
            makespan: release - base,
            completed_at: release,
            barrier_sum,
            boundary_idle,
            trace,
        })
    }

    /// Close a single-region offload: the end barrier over every slot's
    /// completion, then the report from the ledger and the trace.
    fn finish(
        &mut self,
        led: Ledger,
        algorithm: Algorithm,
        model: Option<&ModelPlan>,
    ) -> OffloadReport {
        let slots = &led.region.devices[..];
        let release = self.engine.barrier(slots, &led.completions);
        let trace = self.engine.take_trace();
        let kept_devices = match model {
            Some(mp) => mp.kept.iter().map(|&i| slots[i]).collect(),
            None => slots.to_vec(),
        };
        OffloadReport {
            algorithm,
            makespan: release - led.base,
            completed_at: release,
            devices: slots.to_vec(),
            counts: led.counts,
            kept_devices,
            chunks: led.chunks,
            imbalance_pct: self.engine.imbalance_pct(led.base),
            faults: led.summary,
            flops_per_iter: led.intensity.flops_per_iter,
            decisions: led.log.unwrap_or_default(),
            trace,
        }
    }
}

/// The unified offload entry point, returned by
/// [`Runtime::offload`]: chain options, then [`OffloadBuilder::run`].
///
/// | call chain | semantics |
/// |---|---|
/// | `.run()` | classic offload: reset engine, map all data |
/// | `.at(t).run()` | dispatch at instant `t` on un-reset calendars |
/// | `.history(db)` | either, with shares learned from `db` |
/// | `.align(&split)` | either, on a given static split |
///
/// Either run elides transfers for data an open `target data` region
/// ([`Runtime::data_region_begin`]) already holds on-device.
#[must_use = "an OffloadBuilder does nothing until .run()"]
pub struct OffloadBuilder<'r, 'k> {
    runtime: &'r mut Runtime,
    region: &'r OffloadRegion,
    kernel: &'k mut dyn LoopKernel,
    /// Dispatch instant on the engine's un-reset calendars; `None` is
    /// the classic reset-at-zero offload.
    at: Option<SimTime>,
    /// Measured rates to split by and to learn into.
    history: Option<&'r mut HistoryDb>,
    /// A split to run on in place of the algorithm's own.
    align: Option<&'r Distribution>,
}

impl<'r> OffloadBuilder<'r, '_> {
    /// Dispatch at virtual instant `at` on the engine's calendars *as
    /// they stand* — the multi-tenant path.
    ///
    /// Unlike a plain `.run()` this does **not** reset the engine: the
    /// region's first operations become ready at `at` and queue behind
    /// whatever earlier regions already occupy each resource (every
    /// engine op starts at `max(ready, resource_free)`), so N in-flight
    /// regions genuinely share devices on the virtual clock. The
    /// report's [`OffloadReport::makespan`] is measured from `at` and
    /// [`OffloadReport::completed_at`] is the absolute end barrier.
    ///
    /// Dispatches must be issued in non-decreasing `at` order: resource
    /// calendars only move forward, so a region dispatched at an
    /// earlier instant than one already committed cannot back-fill the
    /// idle time before it. `.at(rt.now())` dispatches after everything
    /// issued so far, as a host thread's next target region does.
    ///
    /// A single dispatch at `at(SimTime::ZERO)` on a fresh (or
    /// [`Runtime::reset_with_seed`]-rewound) runtime is byte-identical
    /// to the classic offload — traces, decisions and report included.
    pub fn at(mut self, at: SimTime) -> Self {
        self.at = Some(at);
        self
    }

    /// Split by rates learned from earlier offloads and learn from this
    /// one (the Qilin-style extension, see [`crate::history`]).
    ///
    /// When `db` has measured this kernel (matched by region name) on
    /// every slot, the loop is split in proportion to the learned rates,
    /// honouring the region algorithm's CUTOFF ratio, and runs as one
    /// static share per slot; the report keeps the region's algorithm
    /// and names [`PredictionSource::History`] in its decisions.
    /// Otherwise the algorithm runs as usual. Either way the run's
    /// per-device throughput is recorded into `db`: iterations over the
    /// busiest of the device's upload, compute and download time, which
    /// does not depend on the trace level. So the second offload of a
    /// kernel is already history-driven.
    pub fn history(mut self, db: &'r mut HistoryDb) -> Self {
        self.history = Some(db);
        self
    }

    /// Run the loop as one static share per slot of `split`, such as
    /// [`Runtime::distribution`] of the loop it aligns with (Fig. 3's
    /// `ALIGN(loop1)`); the report keeps the region's algorithm. A split
    /// over another slot or iteration count than the region's, or a
    /// replicated (FULL) one, is a typed error before the engine is touched.
    pub fn align(mut self, split: &'r Distribution) -> Self {
        self.align = Some(split);
        self
    }

    /// Execute the offload.
    pub fn run(self) -> Result<OffloadReport, OffloadError> {
        let OffloadBuilder { runtime, region, kernel, at, history, align } = self;
        runtime.offload_inner(region, kernel, at, history, align)
    }
}

/// `(first_start, last_end)` over the kernel ops labelled `name`, or
/// `None` when the trace records none (e.g. [`TraceLevel::Off`]).
fn kernel_span(trace: &Trace, name: &str) -> Option<(SimTime, SimTime)> {
    let mut span: Option<(SimTime, SimTime)> = None;
    for e in trace.events() {
        if e.kind == OpKind::Kernel && trace.label(e.label) == name {
            span = Some(match span {
                Some((s, t)) => (s.min(e.start), t.max(e.end)),
                None => (e.start, e.end),
            });
        }
    }
    span
}

/// Mark pipeline chunk `(s, c)` complete and push newly unblocked
/// consumer chunks onto the ready heap, keyed by the latest
/// dependency-satisfaction instant among their producers.
#[allow(clippy::too_many_arguments)]
fn release_dependents(
    s: usize,
    c: usize,
    dep_time: SimTime,
    out_time: SimTime,
    deps: &[Vec<Vec<usize>>],
    pending: &mut [Vec<usize>],
    done_dep: &mut [Vec<Option<SimTime>>],
    done_out: &mut [Vec<Option<SimTime>>],
    heap: &mut BinaryHeap<std::cmp::Reverse<(SimTime, usize, usize)>>,
) {
    done_dep[s][c] = Some(dep_time);
    done_out[s][c] = Some(out_time);
    if s + 1 >= deps.len() {
        return;
    }
    for (j, dl) in deps[s + 1].iter().enumerate() {
        if dl.contains(&c) {
            pending[s + 1][j] -= 1;
            if pending[s + 1][j] == 0 {
                let ready = dl
                    .iter()
                    .map(|&i| done_dep[s][i].expect("dependency completed"))
                    .fold(SimTime::ZERO, SimTime::max);
                heap.push(std::cmp::Reverse((ready, s + 1, j)));
            }
        }
    }
}

/// One overlapped-pipeline stage's transfer rates, computed once per
/// run. Arrays linked to a neighbouring stage stay device-resident:
/// linked inputs arrive as producer-slab imports and linked outputs flush
/// when the pipeline drains, so neither moves with the chunk.
struct StageBytes {
    /// Loop-aligned H2D bytes per iteration, linked inputs excluded.
    h2d_per_iter: f64,
    /// Loop-aligned D2H bytes per iteration, linked outputs excluded.
    d2h_per_iter: f64,
    /// Loop-aligned D2H bytes per iteration of the linked outputs.
    deferred_per_iter: f64,
    /// Fixed (scalar + replicated + independent) H2D bytes per slot,
    /// linked inputs excluded.
    fixed_h2d: Vec<u64>,
}

impl StageBytes {
    /// Rates of a stage planned by `plan` whose `linked_in` arrays come
    /// from the previous stage and `linked_out` arrays feed the next.
    /// Sums run in `per_array` order, so byte counts are bit-stable.
    fn new(plan: &DataPlan, linked_in: &[StageLink], linked_out: &[StageLink]) -> StageBytes {
        let linked = |links: &[StageLink], a: &ArrayCost| links.iter().any(|l| l.array == a.name);
        let per_iter = |keep: &dyn Fn(&ArrayCost) -> bool| -> f64 {
            plan.per_array()
                .iter()
                .filter(|a| keep(a))
                .map(|a| match &a.kind {
                    ArrayCostKind::LoopAligned { bytes_per_iter } => *bytes_per_iter,
                    _ => 0.0,
                })
                .sum()
        };
        let fixed = |slot: usize| -> u64 {
            let inputs = plan.per_array().iter().filter(|a| a.copies_in && !linked(linked_in, a));
            plan.scalar_bytes() + inputs.map(|a| a.bytes(slot, 0)).sum::<u64>()
        };
        StageBytes {
            h2d_per_iter: per_iter(&|a| a.copies_in && !linked(linked_in, a)),
            d2h_per_iter: per_iter(&|a| a.copies_out && !linked(linked_out, a)),
            deferred_per_iter: per_iter(&|a| a.copies_out && linked(linked_out, a)),
            fixed_h2d: (0..plan.n_devices()).map(fixed).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_lang::{DistPolicy, MapDir};

    fn axpy_intensity() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        }
    }

    fn axpy_region(n: u64, devices: Vec<DeviceId>, algorithm: Algorithm) -> OffloadRegion {
        OffloadRegion::builder("axpy")
            .trip_count(n)
            .devices(devices)
            .algorithm(algorithm)
            .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
            .map_1d(
                "y",
                MapDir::ToFrom,
                n,
                8,
                DistPolicy::Align { target: "loop".into(), ratio: 1 },
            )
            .build()
    }

    /// Run axpy for real and return (report, y, expected).
    fn run_axpy(machine: Machine, algorithm: Algorithm, n: usize) -> (OffloadReport, Vec<f64>) {
        let devices: Vec<DeviceId> = (0..machine.len() as DeviceId).collect();
        let mut rt = Runtime::new(machine, 42);
        let region = axpy_region(n as u64, devices, algorithm);
        let a = 2.0f64;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let report = {
            let mut kernel = FnKernel::new(axpy_intensity(), |r: Range| {
                for i in r.start..r.end {
                    y[i as usize] += a * x[i as usize];
                }
            });
            rt.offload(&region, &mut kernel).run().unwrap()
        };
        (report, y)
    }

    fn check_axpy_result(y: &[f64]) {
        for (i, v) in y.iter().enumerate() {
            let expect = (i % 7) as f64 + 2.0 * i as f64;
            assert_eq!(*v, expect, "y[{i}]");
        }
    }

    #[test]
    fn every_algorithm_computes_correctly_and_covers_loop() {
        for alg in Algorithm::extended_suite() {
            let (report, y) = run_axpy(Machine::four_k40(), alg, 10_000);
            check_axpy_result(&y);
            assert_eq!(report.counts.iter().sum::<u64>(), 10_000, "{alg} must cover the loop");
            assert!(report.makespan.as_secs() > 0.0, "{alg}");
        }
    }

    #[test]
    fn every_algorithm_works_on_heterogeneous_machine() {
        for alg in Algorithm::paper_suite_with_cutoff(0.15) {
            let (report, y) = run_axpy(Machine::full_node(), alg, 8_000);
            check_axpy_result(&y);
            assert_eq!(report.counts.iter().sum::<u64>(), 8_000, "{alg}");
        }
    }

    #[test]
    fn block_splits_evenly_on_identical_gpus() {
        let (report, _) = run_axpy(Machine::four_k40(), Algorithm::Block, 10_000);
        assert_eq!(report.counts, vec![2500; 4]);
        assert_eq!(report.chunks, 4);
    }

    #[test]
    fn dynamic_produces_many_chunks() {
        let (report, _) =
            run_axpy(Machine::four_k40(), Algorithm::Dynamic { chunk_pct: 2.0 }, 10_000);
        assert_eq!(report.chunks, 50);
    }

    #[test]
    fn model1_gives_more_to_faster_devices() {
        let (report, _) =
            run_axpy(Machine::full_node(), Algorithm::Model1 { cutoff: None }, 100_000);
        // Device 0 is the dual-socket host; devices 1–4 are K40s. For a
        // memory-bound kernel, the GPU (288 GB/s) out-rates the host
        // (136 GB/s).
        assert!(report.counts[1] > report.counts[0]);
    }

    #[test]
    fn cutoff_drops_slow_devices_from_model_plans() {
        let (report, y) =
            run_axpy(Machine::full_node(), Algorithm::Model1 { cutoff: Some(0.15) }, 50_000);
        check_axpy_result(&y);
        assert!(
            report.kept_devices.len() < report.devices.len(),
            "some device should fall below 15% on the full node: kept {:?}",
            report.kept_devices
        );
        assert_eq!(report.counts.iter().sum::<u64>(), 50_000);
    }

    #[test]
    fn imbalance_is_small_for_block_on_identical_devices() {
        let (report, _) = run_axpy(Machine::four_k40(), Algorithm::Block, 1_000_000);
        assert!(
            report.imbalance_pct < 6.0,
            "paper reports <5% average; got {}",
            report.imbalance_pct
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (r1, _) = run_axpy(Machine::four_k40(), Algorithm::Dynamic { chunk_pct: 2.0 }, 50_000);
        let (r2, _) = run_axpy(Machine::four_k40(), Algorithm::Dynamic { chunk_pct: 2.0 }, 50_000);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.counts, r2.counts);
    }

    #[test]
    fn auto_resolves_by_heuristics() {
        let rt = Runtime::new(Machine::four_k40(), 1);
        // Data-intensive axpy → MODEL_2 on any machine.
        let resolved =
            rt.resolve_auto(Algorithm::Auto { cutoff: None }, &axpy_intensity(), &[0, 1, 2, 3]);
        assert_eq!(resolved, Algorithm::Model2 { cutoff: None });
        // Compute-intensive kernel on identical devices → BLOCK.
        let mm = KernelIntensity {
            flops_per_iter: 10_000.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        };
        assert_eq!(
            rt.resolve_auto(Algorithm::Auto { cutoff: None }, &mm, &[0, 1, 2, 3]),
            Algorithm::Block
        );
        // Same kernel on a mixed machine → MODEL_1.
        let rt2 = Runtime::new(Machine::full_node(), 1);
        assert_eq!(
            rt2.resolve_auto(Algorithm::Auto { cutoff: None }, &mm, &[0, 1, 2]),
            Algorithm::Model1 { cutoff: None }
        );
    }

    #[test]
    fn unknown_device_rejected() {
        let mut rt = Runtime::new(Machine::four_k40(), 1);
        let region = axpy_region(100, vec![0, 99], Algorithm::Block);
        let mut kernel = FnKernel::new(axpy_intensity(), |_r| {});
        assert_eq!(
            rt.offload(&region, &mut kernel).run().unwrap_err(),
            OffloadError::UnknownDevice(99)
        );
    }

    #[test]
    fn learned_offload_uses_history_after_first_run() {
        let mut rt = Runtime::new(Machine::full_node(), 19);
        let mut db = HistoryDb::new();
        let n = 100_000u64;
        let region = axpy_region(n, (0..7).collect(), Algorithm::Model1 { cutoff: None });
        let mut kernel = FnKernel::new(axpy_intensity(), |_r| {});

        // First offload: no history → MODEL_1 runs (and mispredicts for
        // a data-bound kernel); history is recorded.
        let first = rt.offload(&region, &mut kernel).history(&mut db).run().unwrap();
        assert!(db.covers("axpy", &region.devices), "history recorded for all devices");

        // Second offload: history-driven distribution should improve on
        // MODEL_1's datasheet misprediction.
        let second = rt.offload(&region, &mut kernel).history(&mut db).run().unwrap();
        assert_eq!(second.counts.iter().sum::<u64>(), n);
        assert!(
            second.makespan.as_secs() < first.makespan.as_secs(),
            "learned {} !< first {}",
            second.makespan,
            first.makespan
        );
    }

    #[test]
    fn serialized_offload_is_slower_than_parallel() {
        let n = 1_000_000u64;
        let mk = |parallel: bool| {
            let mut rt = RuntimeConfig::new().noiseless().build(Machine::four_k40());
            let mut b = OffloadRegion::builder("axpy")
                .trip_count(n)
                .devices(vec![0, 1, 2, 3])
                .algorithm(Algorithm::Block)
                .map_1d(
                    "x",
                    MapDir::To,
                    n,
                    8,
                    DistPolicy::Align { target: "loop".into(), ratio: 1 },
                );
            if !parallel {
                b = b.serialized_offload();
            }
            let region = b.build();
            let mut kernel = FnKernel::new(axpy_intensity(), |_r| {});
            rt.offload(&region, &mut kernel).run().unwrap().makespan
        };
        let par = mk(true);
        let ser = mk(false);
        assert!(ser.as_secs() > par.as_secs(), "serialized {ser} should exceed parallel {par}");
    }

    #[test]
    fn resident_data_skips_fixed_transfers() {
        let n = 10_000u64;
        let region = OffloadRegion::builder("mv")
            .trip_count(n)
            .devices(vec![0, 1, 2, 3])
            .algorithm(Algorithm::Block)
            // A large replicated array dominates the fixed transfer cost.
            .map_1d("x", MapDir::To, n * 64, 8, DistPolicy::Full)
            .map_1d(
                "y",
                MapDir::ToFrom,
                n,
                8,
                DistPolicy::Align { target: "loop".into(), ratio: 1 },
            )
            .build();
        let mut rt = RuntimeConfig::new().noiseless().build(Machine::four_k40());
        let mut kernel = FnKernel::new(axpy_intensity(), |_r| {});
        let cold = rt.offload(&region, &mut kernel).run().unwrap().makespan;
        // Inside a `target data` region the first offload uploads; the
        // second finds the data resident and moves none of it.
        rt.data_region_begin(&region);
        rt.offload(&region, &mut kernel).run().unwrap();
        let warm = rt.offload(&region, &mut kernel).run().unwrap().makespan;
        rt.data_region_end().unwrap();
        assert!(warm.as_secs() < cold.as_secs(), "warm {warm} !< cold {cold}");
    }

    #[test]
    fn profile_algorithms_run_two_stages() {
        let (report, y) = run_axpy(
            Machine::full_node(),
            Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None },
            20_000,
        );
        check_axpy_result(&y);
        // Stage 1 gives every device a sample; stage 2 redistributes.
        assert!(report.chunks > report.devices.len() as u64 - 1);
    }
}
