//! The simulation engine.
//!
//! A resource-calendar discrete-event simulator: every device owns two
//! resources — a *compute engine* and a *DMA engine* — and accelerators
//! additionally contend on a shared *bus group* (the two K40s of one K80
//! card share a PCIe slot). Submitting an operation reserves the
//! resource from `max(ready, resource free)` for the operation's
//! modelled duration and returns the completion instant. Because
//! operation durations never depend on future decisions, this computes
//! exactly the schedule an event-queue simulator would, deterministically
//! and in O(ops).
//!
//! The separation of DMA and compute engines — with *separate upload
//! and download engines* per device, since PCIe is full duplex — is
//! what lets dynamic chunking overlap data movement with computation
//! and drain output chunks while later inputs stream in (the effect
//! behind SCHED_DYNAMIC's wins on data-intensive kernels in Fig. 5);
//! the `overlap` switch exists so the ablation bench can turn it off.

use crate::device::{DeviceId, MemoryKind};
use crate::fault::{Fault, FaultKind, FaultPlan};
use crate::machine::Machine;
use crate::memory::UNIFIED_PENALTY;
use crate::noise::NoiseModel;
use crate::time::{SimSpan, SimTime};
use crate::trace::{OpKind, Trace, TraceLevel};
use homp_model::roofline::{attainable_rate, KernelIntensity};
use std::cell::RefCell;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
}

/// Lane of a direction within the flat bus calendar (H2D = 0, D2H = 1).
#[inline]
fn dir_lane(dir: Dir) -> usize {
    match dir {
        Dir::H2D => 0,
        Dir::D2H => 1,
    }
}

/// Within-device scheduling of a chunk among the device's teams
/// (`dist_schedule(teams: …)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TeamSched {
    /// Model the device as one aggregate resource (the default — the
    /// between-device figures of the paper use this).
    #[default]
    Aggregate,
    /// Static even split among teams: the chunk finishes with its
    /// slowest team.
    Block,
    /// Dynamic within-device chunking: teams grab sub-chunks, smoothing
    /// internal noise at the cost of the scheduling machinery.
    Dynamic,
}

/// A unit of kernel work: `iters` iterations of a loop with the given
/// per-iteration intensity.
#[derive(Debug, Clone, Copy)]
pub struct ChunkWork<'a> {
    /// Number of loop iterations.
    pub iters: u64,
    /// Per-iteration cost descriptor.
    pub intensity: &'a KernelIntensity,
    /// Relative cost multiplier of this chunk against the uniform
    /// intensity (1.0 = uniform). Irregular loops — the motivation for
    /// dynamic chunking in §IV-A.2 — give later/heavier chunks larger
    /// weights via [`crate::engine::ChunkWork::weighted`].
    pub weight: f64,
}

impl<'a> ChunkWork<'a> {
    /// Uniform-cost chunk.
    pub fn new(iters: u64, intensity: &'a KernelIntensity) -> Self {
        Self { iters, intensity, weight: 1.0 }
    }

    /// Scale this chunk's compute cost by `weight`.
    pub fn weighted(mut self, weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "weight must be >= 0, got {weight}");
        self.weight = weight;
        self
    }
}

/// The simulator. One instance simulates one machine; [`Engine::reset`]
/// rewinds the clock between offload regions while keeping the machine.
#[derive(Debug, Clone)]
pub struct Engine {
    machine: Machine,
    noise: NoiseModel,
    /// Whether DMA and compute may overlap (true mirrors real hardware).
    pub overlap: bool,
    compute_free: Vec<SimTime>,
    h2d_free: Vec<SimTime>,
    d2h_free: Vec<SimTime>,
    /// Flat per-(bus group, direction) calendar: slot
    /// `bus_idx[dev] * 2 + dir_lane(dir)`. Replaces a
    /// `HashMap<(u32, Dir), SimTime>` that was probed and re-inserted
    /// on every transfer — two SipHash rounds on the hottest path.
    bus_free: Vec<SimTime>,
    /// Dense bus slot per device, assigned in first-appearance order
    /// over the machine's devices at construction (machine description
    /// files may use sparse, arbitrary group ids). `u32::MAX` marks a
    /// linkless device, which never reaches the bus path.
    bus_idx: Vec<u32>,
    op_seq: Vec<u64>,
    launch_seq: Vec<u64>,
    faults: FaultPlan,
    trace: Trace,
    /// Operations submitted over the engine's lifetime (monotone
    /// telemetry; see [`Engine::ops_submitted`]).
    ops: u64,
    /// Per-device busy seconds of each op kind since the last
    /// [`Engine::clear_busy`] (see [`Engine::busy`]). Raw seconds, not
    /// `SimSpan`s: every op ends at or after its start, so adding its
    /// span needs none of `SimSpan`'s checks on the hottest path.
    busy: Vec<[f64; OpKind::N]>,
    /// Per-device end of the last non-SYNC op since the last
    /// [`Engine::clear_busy`] (see [`Engine::imbalance_pct`]).
    done: Vec<SimTime>,
    /// End of the last SYNC op since the last [`Engine::clear_busy`].
    /// Kept apart from `done` so that every other op advances one
    /// completion, not two, on the hottest path.
    sync_end: SimTime,
    /// Reusable per-team accumulator for [`TeamSched::Dynamic`]
    /// pricing — `compute_span_at` is `&self` (shared with the peek
    /// path), so the scratch lives in a `RefCell` instead of
    /// allocating a fresh `Vec` per priced chunk.
    team_scratch: RefCell<Vec<f64>>,
}

impl Engine {
    /// New engine over `machine` with the given noise model.
    pub fn new(machine: Machine, noise: NoiseModel) -> Self {
        let n = machine.len();
        // Dense bus slots: one per distinct group id, in the order the
        // devices first mention them.
        let mut groups: Vec<u32> = Vec::new();
        let bus_idx: Vec<u32> = machine
            .devices
            .iter()
            .map(|d| match d.link {
                Some(l) => match groups.iter().position(|&g| g == l.bus_group) {
                    Some(i) => i as u32,
                    None => {
                        groups.push(l.bus_group);
                        (groups.len() - 1) as u32
                    }
                },
                None => u32::MAX,
            })
            .collect();
        Self {
            machine,
            noise,
            overlap: true,
            compute_free: vec![SimTime::ZERO; n],
            h2d_free: vec![SimTime::ZERO; n],
            d2h_free: vec![SimTime::ZERO; n],
            bus_free: vec![SimTime::ZERO; groups.len() * 2],
            bus_idx,
            op_seq: vec![0; n],
            launch_seq: vec![0; n],
            faults: FaultPlan::none(),
            trace: Trace::new(),
            ops: 0,
            busy: vec![[0.0; OpKind::N]; n],
            done: vec![SimTime::ZERO; n],
            sync_end: SimTime::ZERO,
            team_scratch: RefCell::new(Vec::new()),
        }
    }

    /// Convenience: noiseless engine (exactness tests, ablations).
    pub fn noiseless(machine: Machine) -> Self {
        Self::new(machine, NoiseModel::disabled())
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.machine.len()
    }

    /// Rewind the clock and clear the trace; noise sequence numbers also
    /// restart so a reset engine replays identically.
    pub fn reset(&mut self) {
        for t in &mut self.compute_free {
            *t = SimTime::ZERO;
        }
        for t in &mut self.h2d_free {
            *t = SimTime::ZERO;
        }
        for t in &mut self.d2h_free {
            *t = SimTime::ZERO;
        }
        for t in &mut self.bus_free {
            *t = SimTime::ZERO;
        }
        for s in &mut self.op_seq {
            *s = 0;
        }
        for s in &mut self.launch_seq {
            *s = 0;
        }
        self.trace.clear();
    }

    /// [`Engine::reset`] plus a reseed of the noise model (amplitude
    /// kept): after this call the engine replays exactly as a freshly
    /// built `Engine::new(machine, NoiseModel::new(seed, amplitude))` —
    /// no machine clone, no calendar reallocation. This is what lets a
    /// multi-seed experiment loop reuse one engine.
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.reset();
        self.noise.reseed(seed);
    }

    /// Install a fault plan. Only the fault-checked `try_*` entry points
    /// consult it; the plain infallible methods (used by profiling and
    /// halo exchange) behave identically with or without a plan. A
    /// scripted dropout is at a virtual instant: [`Engine::reset`]
    /// rewinds the clock, so the device fails again at that instant after
    /// each reset (in the runtime, each plain `.run()`), while work
    /// queued on the calendars as they stand meets it once.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The installed fault plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take ownership of the trace, leaving an empty one recording at
    /// the same [`TraceLevel`] (a plain `mem::take` would silently
    /// reset a throughput run back to `Full`).
    pub fn take_trace(&mut self) -> Trace {
        let level = self.trace.level();
        std::mem::replace(&mut self.trace, Trace::with_level(level))
    }

    /// Drop the recorded events and nothing else: the calendars, the
    /// noise sequence numbers and the label table stay as they are.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Set the trace recording level (see [`TraceLevel`]). The virtual
    /// clock, noise draw order, and every returned completion instant
    /// are identical at all levels — only what lands in the trace
    /// changes.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace.set_level(level);
    }

    /// Current trace recording level.
    pub fn trace_level(&self) -> TraceLevel {
        self.trace.level()
    }

    /// Operations submitted to the engine since it was built: every
    /// transfer, kernel, launch, fault marker, backoff, failover and
    /// sync wait — exactly the events a full-level trace would hold.
    /// Unlike the trace, the counter survives [`Engine::reset`] and
    /// [`Engine::take_trace`] (it is cumulative telemetry, not replay
    /// state), so throughput harnesses can read one number across a
    /// whole multi-offload run.
    pub fn ops_submitted(&self) -> u64 {
        self.ops
    }

    /// Busy time of `kind` ops on `dev` since the last
    /// [`Engine::clear_busy`]. Every op adds its span here at every
    /// [`TraceLevel`], in submission order, so at `Full` this equals
    /// [`Metrics::from_trace`](crate::Metrics::from_trace)'s busy time
    /// over the same ops bit for bit.
    pub fn busy(&self, dev: DeviceId, kind: OpKind) -> SimSpan {
        SimSpan::from_secs(self.busy[dev as usize][kind.index()])
    }

    /// Zero every [`Engine::busy`] sum and the completions
    /// [`Engine::imbalance_pct`] reads.
    pub fn clear_busy(&mut self) {
        self.busy.fill([0.0; OpKind::N]);
        self.done.fill(SimTime::ZERO);
        self.sync_end = SimTime::ZERO;
    }

    /// The paper's load-imbalance metric over the ops since the last
    /// [`Engine::clear_busy`], measured from `base`: the mean over
    /// devices of `(last end − completion) / (last end − base)`, as a
    /// percentage, where a device's completion is the end of its last
    /// non-SYNC op and devices with none after `base` are left out.
    /// The engine keeps these completions at every [`TraceLevel`], so
    /// at `Full`, a `base` of zero and no BACKOFF ops this equals the
    /// imbalance of [`Metrics::from_trace`](crate::Metrics::from_trace)'s
    /// makespan and completions over the same ops bit for bit.
    pub fn imbalance_pct(&self, base: SimTime) -> f64 {
        let last_end = self.done.iter().copied().fold(self.sync_end, SimTime::max);
        let since = |t: &SimTime| t.since(base).as_secs();
        crate::metrics::imbalance_pct(since(&last_end), self.done.iter().map(since))
    }

    /// Count one submitted operation, add its span to the device's busy
    /// time, advance the completions [`Engine::imbalance_pct`] reads and
    /// append it to the trace (subject to the trace's recording level).
    #[inline]
    fn record_op(
        &mut self,
        dev: DeviceId,
        kind: OpKind,
        start: SimTime,
        end: SimTime,
        amount: u64,
        label: &str,
    ) {
        self.ops += 1;
        self.busy[dev as usize][kind.index()] += end.as_secs() - start.as_secs();
        if kind == OpKind::Sync {
            self.sync_end = self.sync_end.max(end);
        } else {
            self.done[dev as usize] = self.done[dev as usize].max(end);
        }
        self.trace.record(dev, kind, start, end, amount, label);
    }

    /// When the device's compute engine is next free.
    pub fn compute_free_at(&self, dev: DeviceId) -> SimTime {
        self.compute_free[dev as usize]
    }

    /// When the device's DMA engines are both next free (upload and
    /// download engines are separate — PCIe is full duplex).
    pub fn dma_free_at(&self, dev: DeviceId) -> SimTime {
        self.h2d_free[dev as usize].max(self.d2h_free[dev as usize])
    }

    #[inline]
    fn next_seq(&mut self, dev: DeviceId) -> u64 {
        let s = &mut self.op_seq[dev as usize];
        *s += 1;
        *s
    }

    /// Noiseless ground-truth duration of `work` on `dev` — the value
    /// noise perturbs, exposed for tests and the profiling module.
    #[inline]
    pub fn pure_compute_span(&self, dev: DeviceId, work: &ChunkWork<'_>) -> SimSpan {
        let d = &self.machine.devices[dev as usize];
        let rate = attainable_rate(work.intensity, d.sustained_flops(), d.sustained_bw());
        SimSpan::from_secs(work.iters as f64 * work.intensity.flops_per_iter * work.weight / rate)
    }

    /// Noiseless ground-truth duration of a `bytes`-byte transfer.
    #[inline]
    pub fn pure_transfer_span(&self, dev: DeviceId, bytes: u64) -> SimSpan {
        let d = &self.machine.devices[dev as usize];
        match (d.memory, d.link) {
            (MemoryKind::Shared, _) | (_, None) => SimSpan::ZERO,
            (MemoryKind::Discrete, Some(l)) => SimSpan::from_secs(l.hockney.time(bytes as f64)),
            (MemoryKind::Unified, Some(l)) => {
                SimSpan::from_secs(l.hockney.time(bytes as f64) * UNIFIED_PENALTY)
            }
        }
    }

    /// Submit a data transfer that may begin at `ready`. Returns the
    /// completion instant. Shared-memory devices return `ready`
    /// immediately and record nothing (mapping is free), and so does a
    /// 0-byte transfer on any device, which holds no DMA engine or bus
    /// lane. A 0-byte transfer on a linked device still takes the
    /// device's noise sequence number, so every later op on it draws
    /// the jitter it would draw after any one transfer. Never consults
    /// the fault plan; see [`Engine::try_transfer`].
    pub fn transfer(
        &mut self,
        dev: DeviceId,
        bytes: u64,
        dir: Dir,
        ready: SimTime,
        label: &str,
    ) -> SimTime {
        match self.transfer_impl(dev, bytes, dir, ready, label, false) {
            Ok(t) => t,
            Err(_) => unreachable!("faults are not checked"),
        }
    }

    /// Fault-checked variant of [`Engine::transfer`]: consults the
    /// installed [`FaultPlan`] for transient DMA errors and device
    /// dropout. On a fault, the time burned by the failed attempt is
    /// charged to the device's engines, a FAULT event is recorded, and
    /// the returned [`Fault`] carries the detection instant.
    pub fn try_transfer(
        &mut self,
        dev: DeviceId,
        bytes: u64,
        dir: Dir,
        ready: SimTime,
        label: &str,
    ) -> Result<SimTime, Fault> {
        self.transfer_impl(dev, bytes, dir, ready, label, true)
    }

    /// Release the transfer resources a (possibly failed) transfer held
    /// until `end`. `bus_slot` is the flat calendar slot computed by
    /// [`Engine::transfer_impl`].
    #[inline]
    fn commit_transfer(&mut self, dev: DeviceId, dir: Dir, bus_slot: usize, end: SimTime) {
        match dir {
            Dir::H2D => self.h2d_free[dev as usize] = end,
            Dir::D2H => self.d2h_free[dev as usize] = end,
        }
        if !self.overlap {
            self.h2d_free[dev as usize] = self.h2d_free[dev as usize].max(end);
            self.d2h_free[dev as usize] = self.d2h_free[dev as usize].max(end);
        }
        self.bus_free[bus_slot] = end;
        if !self.overlap {
            self.compute_free[dev as usize] = self.compute_free[dev as usize].max(end);
        }
    }

    fn transfer_impl(
        &mut self,
        dev: DeviceId,
        bytes: u64,
        dir: Dir,
        ready: SimTime,
        label: &str,
        check_faults: bool,
    ) -> Result<SimTime, Fault> {
        let span = self.pure_transfer_span(dev, bytes);
        if span == SimSpan::ZERO {
            return Ok(ready);
        }
        let seq = self.next_seq(dev);
        if bytes == 0 {
            // Nothing to move: nothing to record, hold or fault-check.
            return Ok(ready);
        }
        let jitter = self.noise.factor(dev, seq);
        let mut span = span.scale(jitter);

        // A nonzero span implies a linked device (shared/linkless
        // devices short-circuit above), so the slot is always dense.
        let bi = self.bus_idx[dev as usize];
        debug_assert_ne!(bi, u32::MAX, "non-shared device has a link");
        let bus_slot = bi as usize * 2 + dir_lane(dir);
        let bus_free = self.bus_free[bus_slot];
        let engine_free = match dir {
            Dir::H2D => self.h2d_free[dev as usize],
            Dir::D2H => self.d2h_free[dev as usize],
        };
        let mut start = ready.max(engine_free).max(bus_free);
        if !self.overlap {
            // Ablation mode: the device cannot move data while computing,
            // and uses a single half-duplex DMA engine.
            start = start
                .max(self.compute_free[dev as usize])
                .max(self.h2d_free[dev as usize])
                .max(self.d2h_free[dev as usize]);
        }
        if check_faults {
            // Degraded mode: stretch the transfer and leave a zero-length
            // marker so the slowdown is visible in the trace.
            let stretch = self.faults.slowdown_factor(dev, start);
            if stretch != 1.0 {
                span = span.scale(stretch);
                self.record_op(dev, OpKind::Fault, start, start, 0, &format!("{label} [slowdown]"));
            }
        }
        let end = start + span;
        if check_faults {
            if let Some(tf) = self.faults.dropout_at(dev, start, end) {
                if tf == start {
                    // The device is already gone; the proxy discovers it
                    // the moment it tries to submit.
                    self.record_op(
                        dev,
                        OpKind::Fault,
                        start,
                        start,
                        0,
                        &format!("{label} [dropout]"),
                    );
                    return Err(Fault { device: dev, kind: FaultKind::Dropout, at: start });
                }
                // The transfer dies mid-flight; bus and engine are
                // held until the failure instant.
                self.commit_transfer(dev, dir, bus_slot, tf);
                self.record_op(dev, OpKind::Fault, start, tf, bytes, &format!("{label} [dropout]"));
                return Err(Fault { device: dev, kind: FaultKind::Dropout, at: tf });
            }
            if self.faults.dma_fault_at(dev, seq, start) {
                let latency = self
                    .faults
                    .device(dev)
                    .map(|p| SimSpan::from_secs(p.dma_error_latency))
                    .unwrap_or(SimSpan::ZERO);
                let fail_end = start + latency;
                self.commit_transfer(dev, dir, bus_slot, fail_end);
                self.record_op(
                    dev,
                    OpKind::Fault,
                    start,
                    fail_end,
                    bytes,
                    &format!("{label} [dma-error]"),
                );
                return Err(Fault { device: dev, kind: FaultKind::TransientDma, at: fail_end });
            }
        }
        self.commit_transfer(dev, dir, bus_slot, end);
        let kind = match dir {
            Dir::H2D => OpKind::H2D,
            Dir::D2H => OpKind::D2H,
        };
        self.record_op(dev, kind, start, end, bytes, label);
        Ok(end)
    }

    /// Submit kernel work that may begin at `ready` (typically the
    /// completion of its input transfer). Returns the completion instant.
    pub fn compute(
        &mut self,
        dev: DeviceId,
        work: &ChunkWork<'_>,
        ready: SimTime,
        label: &str,
    ) -> SimTime {
        let sched = TeamSched::Aggregate;
        match self.compute_teams_impl(dev, work, ready, label, sched, false) {
            Ok(t) => t,
            Err(_) => unreachable!("faults are not checked"),
        }
    }

    /// Fault-checked [`Engine::compute`] that also models the
    /// *within-device* distribution among the device's teams — the
    /// `dist_schedule(teams: …)` level of the paper's extension. Each
    /// team draws its own noise, so static team distribution exposes the
    /// device's internal imbalance (the chunk finishes when its slowest
    /// team does), while dynamic team scheduling smooths it. Consults the
    /// installed [`FaultPlan`] for device dropout (kernels on a dead
    /// device fail at the dropout instant).
    pub fn try_compute_teams(
        &mut self,
        dev: DeviceId,
        work: &ChunkWork<'_>,
        ready: SimTime,
        label: &str,
        sched: TeamSched,
    ) -> Result<SimTime, Fault> {
        self.compute_teams_impl(dev, work, ready, label, sched, true)
    }

    fn compute_teams_impl(
        &mut self,
        dev: DeviceId,
        work: &ChunkWork<'_>,
        ready: SimTime,
        label: &str,
        sched: TeamSched,
        check_faults: bool,
    ) -> Result<SimTime, Fault> {
        if work.iters == 0 {
            return Ok(ready);
        }
        let seq = self.next_seq(dev);
        let mut span = self.compute_span_at(dev, work, seq, sched);
        let start = ready.max(self.compute_free[dev as usize]);
        if check_faults {
            let stretch = self.faults.slowdown_factor(dev, start);
            if stretch != 1.0 {
                span = span.scale(stretch);
                self.record_op(dev, OpKind::Fault, start, start, 0, &format!("{label} [slowdown]"));
            }
        }
        let end = start + span;
        if check_faults {
            if let Some(fault) = self.dropout_check(dev, start, end, work.iters, label) {
                return Err(fault);
            }
        }
        self.compute_free[dev as usize] = end;
        if !self.overlap {
            self.h2d_free[dev as usize] = self.h2d_free[dev as usize].max(end);
            self.d2h_free[dev as usize] = self.d2h_free[dev as usize].max(end);
        }
        self.record_op(dev, OpKind::Kernel, start, end, work.iters, label);
        Ok(end)
    }

    /// The noisy duration the compute op with sequence number `seq`
    /// gets on `dev` — the pricing shared by the committing path and
    /// [`Engine::peek_compute_end`].
    fn compute_span_at(
        &self,
        dev: DeviceId,
        work: &ChunkWork<'_>,
        seq: u64,
        sched: TeamSched,
    ) -> SimSpan {
        match sched {
            TeamSched::Aggregate => {
                let jitter = self.noise.factor(dev, seq);
                self.pure_compute_span(dev, work).scale(jitter)
            }
            TeamSched::Block => {
                // Even split over teams; per-team rate = aggregate/teams;
                // the chunk completes when the slowest team does.
                let teams = self.machine.devices[dev as usize].teams.max(1) as u64;
                let pure = self.pure_compute_span(dev, work).as_secs();
                let per_iter = pure / work.iters as f64 * teams as f64;
                let base = work.iters / teams;
                let rem = work.iters % teams;
                let mut worst: f64 = 0.0;
                for t in 0..teams {
                    let iters_t = base + u64::from(t < rem);
                    let jitter = self.noise.factor(dev, seq.wrapping_mul(1031).wrapping_add(t));
                    worst = worst.max(iters_t as f64 * per_iter * jitter);
                }
                SimSpan::from_secs(worst)
            }
            TeamSched::Dynamic => {
                // Greedy within-device chunk queue: 8 sub-chunks per team,
                // each grabbed by the least-loaded team.
                let teams = self.machine.devices[dev as usize].teams.max(1) as u64;
                let pure = self.pure_compute_span(dev, work).as_secs();
                let per_iter = pure / work.iters as f64 * teams as f64;
                let subchunks = teams * 8;
                let mut team_free = self.team_scratch.borrow_mut();
                team_free.clear();
                team_free.resize(teams as usize, 0.0);
                let base = work.iters / subchunks;
                let rem = work.iters % subchunks;
                for c in 0..subchunks {
                    let iters_c = base + u64::from(c < rem);
                    if iters_c == 0 {
                        continue;
                    }
                    let jitter = self.noise.factor(dev, seq.wrapping_mul(2053).wrapping_add(c));
                    let (slot, _) = team_free
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .expect("at least one team");
                    team_free[slot] += iters_c as f64 * per_iter * jitter;
                }
                let worst = team_free.iter().fold(0.0f64, |a, &b| a.max(b));
                SimSpan::from_secs(worst)
            }
        }
    }

    /// Price `dev`'s *next* compute op without committing anything:
    /// the completion instant [`Engine::try_compute_teams`] would
    /// return for the same arguments right now — same noise draw
    /// (the next op consumes sequence number `op_seq + 1` either
    /// way), same team schedule, same calendar state. Faults are not
    /// consulted: this is the proxy's *prediction*, used by the
    /// work-assisting scheduler to decide steals before it commits.
    /// Exact as long as no other op commits on `dev` in between.
    pub fn peek_compute_end(
        &self,
        dev: DeviceId,
        work: &ChunkWork<'_>,
        ready: SimTime,
        sched: TeamSched,
    ) -> SimTime {
        if work.iters == 0 {
            return ready;
        }
        let seq = self.op_seq[dev as usize] + 1;
        let span = self.compute_span_at(dev, work, seq, sched);
        let start = ready.max(self.compute_free[dev as usize]);
        // Mirror the committing path's degraded-mode stretch so the
        // assist scheduler's predictions stay exact under slowdown
        // windows (factor is 1.0 without a plan).
        start + span.scale(self.faults.slowdown_factor(dev, start))
    }

    /// Dropout check shared by compute and launch: an operation that
    /// would start during the scripted outage fails at submission; one
    /// that straddles the dropout holds the compute engine until the
    /// failure instant and fails there. Operations starting at or after
    /// a scripted recovery succeed again.
    fn dropout_check(
        &mut self,
        dev: DeviceId,
        start: SimTime,
        end: SimTime,
        amount: u64,
        label: &str,
    ) -> Option<Fault> {
        let tf = self.faults.dropout_at(dev, start, end)?;
        if tf == start {
            self.record_op(dev, OpKind::Fault, start, start, 0, &format!("{label} [dropout]"));
            return Some(Fault { device: dev, kind: FaultKind::Dropout, at: start });
        }
        self.compute_free[dev as usize] = tf;
        self.record_op(dev, OpKind::Fault, start, tf, amount, &format!("{label} [dropout]"));
        Some(Fault { device: dev, kind: FaultKind::Dropout, at: tf })
    }

    /// Pay the device's per-offload launch/bookkeeping overhead starting
    /// no earlier than `ready`. Recorded as INIT. Consults the installed
    /// [`FaultPlan`] for launch timeouts and device dropout: a timed-out
    /// launch holds the compute engine until the watchdog fires, then
    /// fails.
    pub fn try_launch(
        &mut self,
        dev: DeviceId,
        ready: SimTime,
        label: &str,
    ) -> Result<SimTime, Fault> {
        let d = &self.machine.devices[dev as usize];
        let span = SimSpan::from_secs(d.launch_overhead);
        let start = ready.max(self.compute_free[dev as usize]);
        let end = start + span;
        // Launches draw from their own sequence counter (not the noise
        // sequence), so installing a plan never perturbs jitter draws.
        let lseq = {
            let s = &mut self.launch_seq[dev as usize];
            *s += 1;
            *s
        };
        if let Some(fault) = self.dropout_check(dev, start, end, 0, label) {
            return Err(fault);
        }
        if self.faults.launch_fault_at(dev, lseq, start) {
            let latency = self
                .faults
                .device(dev)
                .map(|p| SimSpan::from_secs(p.timeout_latency))
                .unwrap_or(SimSpan::ZERO);
            let fail_end = start + latency;
            self.compute_free[dev as usize] = fail_end;
            self.record_op(
                dev,
                OpKind::Fault,
                start,
                fail_end,
                0,
                &format!("{label} [launch-timeout]"),
            );
            return Err(Fault { device: dev, kind: FaultKind::LaunchTimeout, at: fail_end });
        }
        self.compute_free[dev as usize] = end;
        self.record_op(dev, OpKind::Init, start, end, 0, label);
        Ok(end)
    }

    /// Record a retry backoff on `dev`'s proxy: no device resource is
    /// held (the proxy simply waits), a BACKOFF event is traced, and
    /// the instant the retry may begin is returned.
    pub fn record_backoff(
        &mut self,
        dev: DeviceId,
        from: SimTime,
        span: SimSpan,
        label: &str,
    ) -> SimTime {
        let end = from + span;
        self.record_op(dev, OpKind::Backoff, from, end, 0, label);
        end
    }

    /// Record failover bookkeeping on a surviving device picking up
    /// re-queued work: charges the compute engine like a launch and
    /// records a FAILOVER event.
    pub fn record_failover(
        &mut self,
        dev: DeviceId,
        from: SimTime,
        span: SimSpan,
        label: &str,
    ) -> SimTime {
        let start = from.max(self.compute_free[dev as usize]);
        let end = start + span;
        self.compute_free[dev as usize] = end;
        self.record_op(dev, OpKind::Failover, start, end, 0, label);
        end
    }

    /// Barrier across devices: every device waits until the last one's
    /// `completion`. Records a SYNC event per waiting device and returns
    /// the barrier release time. `completions[i]` is the completion time
    /// of `devices[i]`.
    pub fn barrier(&mut self, devices: &[DeviceId], completions: &[SimTime]) -> SimTime {
        assert_eq!(devices.len(), completions.len());
        let release = completions.iter().copied().max().unwrap_or(SimTime::ZERO);
        for (&d, &c) in devices.iter().zip(completions) {
            if release > c {
                self.record_op(d, OpKind::Sync, c, release, 0, "barrier");
            }
            self.compute_free[d as usize] = self.compute_free[d as usize].max(release);
            self.h2d_free[d as usize] = self.h2d_free[d as usize].max(release);
            self.d2h_free[d as usize] = self.d2h_free[d as usize].max(release);
        }
        release
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::metrics::Metrics;

    /// Busy seconds of `kind` ops on `dev` in the engine's trace.
    fn traced_busy(e: &Engine, dev: usize, kind: OpKind) -> f64 {
        Metrics::from_trace(e.trace(), e.n_devices()).devices[dev].busy_s[kind.index()]
    }

    /// Fault-checked compute with the teams aggregated.
    fn try_compute(
        e: &mut Engine,
        dev: DeviceId,
        work: &ChunkWork<'_>,
        ready: SimTime,
        label: &str,
    ) -> Result<SimTime, Fault> {
        e.try_compute_teams(dev, work, ready, label, TeamSched::Aggregate)
    }

    fn axpy_intensity() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        }
    }

    #[test]
    fn transfer_then_compute_serializes_per_chunk() {
        let mut e = Engine::noiseless(Machine::four_k40());
        let k = axpy_intensity();
        let t1 = e.transfer(0, 1_000_000, Dir::H2D, SimTime::ZERO, "x");
        let t2 = e.compute(0, &ChunkWork::new(100_000, &k), t1, "axpy");
        assert!(t2 > t1);
        assert!(t1 > SimTime::ZERO);
    }

    #[test]
    fn host_transfers_are_free() {
        let mut e = Engine::noiseless(Machine::two_cpus_two_mics());
        let t = e.transfer(0, 1 << 30, Dir::H2D, SimTime::from_secs(1.0), "x");
        assert_eq!(t, SimTime::from_secs(1.0));
        assert!(e.trace().is_empty());
    }

    /// A 0-byte transfer to a K40 moves nothing: it returns `ready`,
    /// records no event and holds neither DMA engine nor the bus lane,
    /// but it takes a sequence number, so the next transfer draws the
    /// jitter it would draw after any one transfer.
    #[test]
    fn empty_transfers_take_a_sequence_number_and_nothing_else() {
        let noisy = || Engine::new(Machine::four_k40(), NoiseModel::new(42, 0.05));
        let at = SimTime::from_secs(1.0);
        let mut e = noisy();
        assert_eq!(e.try_transfer(1, 0, Dir::H2D, at, "empty"), Ok(at));
        assert!(e.trace().is_empty());
        assert_eq!(e.ops_submitted(), 0);
        assert_eq!((e.h2d_free[1], e.d2h_free[1]), (SimTime::ZERO, SimTime::ZERO));
        assert!(e.bus_free.iter().all(|&t| t == SimTime::ZERO), "no bus lane held");
        assert_eq!(e.op_seq[1], 1);

        // The next transfer's span: after the empty one, after a real
        // transfer in the other direction, and with no transfer before.
        let next = |e: &mut Engine| e.transfer(1, 1 << 20, Dir::H2D, at, "x") - at;
        let mut after_one = noisy();
        after_one.transfer(1, 8, Dir::D2H, SimTime::ZERO, "one");
        let mut first = noisy();
        let span = next(&mut e);
        assert_eq!(span, next(&mut after_one));
        assert_ne!(span, next(&mut first), "the draw depends on the sequence number");
    }

    #[test]
    fn dma_overlaps_compute_when_enabled() {
        let mut e = Engine::noiseless(Machine::four_k40());
        let k = axpy_intensity();
        // Start a long compute, then a transfer for the *next* chunk: it
        // should start immediately, not after the compute.
        let c_end = e.compute(0, &ChunkWork::new(20_000_000, &k), SimTime::ZERO, "k0");
        let x_end = e.transfer(0, 4_000_000, Dir::H2D, SimTime::ZERO, "x1");
        assert!(x_end < c_end, "transfer {x_end} should finish inside compute {c_end}");
    }

    #[test]
    fn no_overlap_mode_serializes() {
        let mut e = Engine::noiseless(Machine::four_k40());
        e.overlap = false;
        let k = axpy_intensity();
        let c_end = e.compute(0, &ChunkWork::new(10_000_000, &k), SimTime::ZERO, "k0");
        let x_end = e.transfer(0, 8_000_000, Dir::H2D, SimTime::ZERO, "x1");
        assert!(x_end > c_end);
    }

    #[test]
    fn bus_group_contention_serializes_cards() {
        // Build a K80-like card explicitly: two K40s on one bus group.
        let m = Machine::new(
            "k80-shared",
            vec![
                crate::device::nvidia_k40(0, 0),
                crate::device::nvidia_k40(1, 0),
                crate::device::nvidia_k40(2, 1),
            ],
        );
        let mut e = Engine::noiseless(m);
        let a = e.transfer(0, 12_000_000, Dir::H2D, SimTime::ZERO, "a");
        let b = e.transfer(1, 12_000_000, Dir::H2D, SimTime::ZERO, "b");
        let c = e.transfer(2, 12_000_000, Dir::H2D, SimTime::ZERO, "c");
        assert!(b > a, "same-card transfer must wait");
        assert!((c.as_secs() - a.as_secs()).abs() < 1e-12, "other card is independent");
    }

    #[test]
    fn compute_respects_device_speed() {
        let e = Engine::noiseless(Machine::two_cpus_two_mics());
        let k = KernelIntensity {
            flops_per_iter: 1000.0,
            mem_elems_per_iter: 1.0,
            data_elems_per_iter: 1.0,
            elem_bytes: 8.0,
        };
        let w = ChunkWork::new(1_000_000, &k);
        let cpu = e.pure_compute_span(0, &w);
        let mic = e.pure_compute_span(2, &w);
        // MIC sustains similar flops to one CPU socket at 0.45 eff of
        // 1.21 TF ≈ 545 GF vs CPU 530 GF — close; just check positive.
        assert!(cpu.as_secs() > 0.0 && mic.as_secs() > 0.0);
    }

    #[test]
    fn determinism_across_resets() {
        let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(7, 0.03));
        let k = axpy_intensity();
        let run = |e: &mut Engine| {
            e.reset();
            let mut last = SimTime::ZERO;
            for i in 0..10 {
                let t = e.transfer(0, 1 << 20, Dir::H2D, last, "x");
                last = e.compute(0, &ChunkWork::new(10_000, &k), t, &format!("c{i}"));
            }
            last
        };
        let a = run(&mut e);
        let b = run(&mut e);
        assert_eq!(a, b);
    }

    #[test]
    fn barrier_records_sync_and_aligns() {
        let mut e = Engine::noiseless(Machine::four_k40());
        let k = axpy_intensity();
        let c0 = e.compute(0, &ChunkWork::new(1_000_000, &k), SimTime::ZERO, "k");
        let c1 = e.compute(1, &ChunkWork::new(2_000_000, &k), SimTime::ZERO, "k");
        let rel = e.barrier(&[0, 1], &[c0, c1]);
        assert_eq!(rel, c1);
        assert_eq!(e.compute_free_at(0), rel);
        assert!(traced_busy(&e, 0, OpKind::Sync) > 0.0);
        assert_eq!(traced_busy(&e, 1, OpKind::Sync), 0.0);
    }

    #[test]
    fn zero_iterations_cost_nothing() {
        let mut e = Engine::noiseless(Machine::four_k40());
        let k = axpy_intensity();
        let t = e.compute(0, &ChunkWork::new(0, &k), SimTime::ZERO, "k");
        assert_eq!(t, SimTime::ZERO);
        assert!(e.trace().is_empty());
    }

    #[test]
    fn launch_overhead_is_paid_once_per_call() {
        let mut e = Engine::noiseless(Machine::four_k40());
        let t1 = e.try_launch(0, SimTime::ZERO, "offload").unwrap();
        assert!((t1.as_secs() - 10e-6).abs() < 1e-12);
        let t2 = e.try_launch(0, SimTime::ZERO, "offload").unwrap();
        assert!((t2.as_secs() - 20e-6).abs() < 1e-12, "serialized on compute engine");
    }

    #[test]
    fn try_ops_without_plan_match_infallible_ops() {
        let k = axpy_intensity();
        let run = |fallible: bool| {
            let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(3, 0.05));
            let mut last = SimTime::ZERO;
            for _ in 0..6 {
                last = e.try_launch(0, last, "l").unwrap();
                if fallible {
                    last = e.try_transfer(0, 1 << 20, Dir::H2D, last, "x").unwrap();
                    last = try_compute(&mut e, 0, &ChunkWork::new(10_000, &k), last, "c").unwrap();
                } else {
                    last = e.transfer(0, 1 << 20, Dir::H2D, last, "x");
                    last = e.compute(0, &ChunkWork::new(10_000, &k), last, "c");
                }
            }
            (last, e.take_trace().to_csv())
        };
        assert_eq!(run(false), run(true), "no plan: try_* must be byte-identical");
    }

    #[test]
    fn infallible_ops_ignore_installed_plan() {
        let k = axpy_intensity();
        let run = |with_plan: bool| {
            let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(3, 0.05));
            if with_plan {
                e.set_fault_plan(
                    crate::fault::FaultPlan::new(1)
                        .with_dropout_at(0, 0.0)
                        .with_transient_dma(0, 1.0),
                );
            }
            let t = e.transfer(0, 1 << 20, Dir::H2D, SimTime::ZERO, "x");
            let c = e.compute(0, &ChunkWork::new(10_000, &k), t, "c");
            (c, e.take_trace().to_csv())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn dropout_truncates_inflight_op_and_fails_later_ones() {
        let k = axpy_intensity();
        let mut e = Engine::noiseless(Machine::four_k40());
        // Find when an unfaulted compute would end, then drop the device
        // mid-kernel.
        let probe = e.pure_compute_span(0, &ChunkWork::new(10_000_000, &k)).as_secs();
        let tf = probe / 2.0;
        e.set_fault_plan(crate::fault::FaultPlan::new(0).with_dropout_at(0, tf));
        let err = try_compute(&mut e, 0, &ChunkWork::new(10_000_000, &k), SimTime::ZERO, "c")
            .unwrap_err();
        assert_eq!(err.kind, crate::fault::FaultKind::Dropout);
        assert!((err.at.as_secs() - tf).abs() < 1e-12, "fails at the dropout instant");
        // Any later submission fails immediately at its start.
        let err2 = e.try_launch(0, err.at, "l").unwrap_err();
        assert_eq!(err2.kind, crate::fault::FaultKind::Dropout);
        assert!(err2.at >= err.at);
        // Other devices are unaffected.
        assert!(try_compute(&mut e, 1, &ChunkWork::new(1_000, &k), SimTime::ZERO, "c").is_ok());
        // The fault shows up in the trace.
        assert!(traced_busy(&e, 0, OpKind::Fault) > 0.0);
    }

    #[test]
    fn transient_dma_burns_latency_and_is_retriable() {
        let mut e = Engine::noiseless(Machine::four_k40());
        let mut plan =
            crate::fault::DeviceFaultPlan { transient_dma_rate: 1.0, ..Default::default() };
        plan.dma_error_latency = 123e-6;
        e.set_fault_plan(crate::fault::FaultPlan::new(0).with_device(0, plan));
        let err = e.try_transfer(0, 1 << 20, Dir::H2D, SimTime::ZERO, "x").unwrap_err();
        assert_eq!(err.kind, crate::fault::FaultKind::TransientDma);
        assert!((err.at.as_secs() - 123e-6).abs() < 1e-12);
        // The failed attempt held the upload engine until the error.
        assert!((traced_busy(&e, 0, OpKind::Fault) - 123e-6).abs() < 1e-12);
    }

    #[test]
    fn backoff_and_failover_are_traced() {
        let mut e = Engine::noiseless(Machine::four_k40());
        let t1 = e.record_backoff(0, SimTime::from_secs(1.0), SimSpan::from_micros(100.0), "b");
        assert!((t1.as_secs() - 1.0001).abs() < 1e-12);
        // Backoff holds nothing: the compute engine is still free at 0.
        assert_eq!(e.compute_free_at(0), SimTime::ZERO);
        let t2 = e.record_failover(0, SimTime::ZERO, SimSpan::from_micros(20.0), "f");
        assert_eq!(e.compute_free_at(0), t2);
        assert!(traced_busy(&e, 0, OpKind::Backoff) > 0.0);
        assert!(traced_busy(&e, 0, OpKind::Failover) > 0.0);
    }

    #[test]
    fn slowdown_window_stretches_ops_and_marks_the_trace() {
        let k = axpy_intensity();
        let mut e = Engine::noiseless(Machine::four_k40());
        let base = e.pure_compute_span(0, &ChunkWork::new(1_000_000, &k)).as_secs();
        // Window covers the whole run with factor 2.5.
        e.set_fault_plan(crate::fault::FaultPlan::new(0).with_slowdown(0, 2.5, 0.0, 1e9));
        let work = ChunkWork::new(1_000_000, &k);
        let end = try_compute(&mut e, 0, &work, SimTime::ZERO, "c").unwrap();
        assert!((end.as_secs() - base * 2.5).abs() < 1e-12, "compute stretched by factor");
        let slow_marks = e.trace().events().iter().filter(|ev| ev.kind == OpKind::Fault).count();
        assert_eq!(slow_marks, 1, "one zero-length slowdown marker");

        // A transfer inside the window stretches too.
        let mut e2 = Engine::noiseless(Machine::four_k40());
        let plain = e2.try_transfer(0, 1 << 20, Dir::H2D, SimTime::ZERO, "x").unwrap();
        let mut e3 = Engine::noiseless(Machine::four_k40());
        e3.set_fault_plan(crate::fault::FaultPlan::new(0).with_slowdown(0, 2.0, 0.0, 1e9));
        let slow = e3.try_transfer(0, 1 << 20, Dir::H2D, SimTime::ZERO, "x").unwrap();
        assert!((slow.as_secs() - plain.as_secs() * 2.0).abs() < 1e-12);
    }

    #[test]
    fn ops_outside_the_slowdown_window_are_untouched() {
        let k = axpy_intensity();
        let run = |with_plan: bool| {
            let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(3, 0.05));
            if with_plan {
                // Window far in the future: nothing here reaches it.
                e.set_fault_plan(crate::fault::FaultPlan::new(1).with_slowdown(0, 4.0, 1e6, 2e6));
            }
            let t = e.try_transfer(0, 1 << 20, Dir::H2D, SimTime::ZERO, "x").unwrap();
            let c = try_compute(&mut e, 0, &ChunkWork::new(10_000, &k), t, "c").unwrap();
            (c, e.take_trace().to_csv())
        };
        assert_eq!(run(false), run(true), "outside the window runs are byte-identical");
    }

    #[test]
    fn peek_matches_commit_under_a_slowdown_plan() {
        let k = axpy_intensity();
        let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(7, 0.05));
        e.set_fault_plan(crate::fault::FaultPlan::new(0).with_slowdown(0, 3.0, 0.0, 1e9));
        let warm = try_compute(&mut e, 0, &ChunkWork::new(10_000, &k), SimTime::ZERO, "w").unwrap();
        let work = ChunkWork::new(123_456, &k);
        let peeked = e.peek_compute_end(0, &work, warm, TeamSched::Aggregate);
        let committed = try_compute(&mut e, 0, &work, warm, "real").unwrap();
        assert_eq!(peeked, committed, "peek must price the stretch identically");
    }

    #[test]
    fn recovery_lets_submissions_succeed_after_the_outage() {
        let k = axpy_intensity();
        let mut e = Engine::noiseless(Machine::four_k40());
        e.set_fault_plan(
            crate::fault::FaultPlan::new(0).with_dropout_at(0, 1e-3).with_recovery_at(0, 2e-3),
        );
        // Mid-outage submission fails at its start.
        let err = e.try_launch(0, SimTime::from_secs(1.5e-3), "l").unwrap_err();
        assert_eq!(err.kind, crate::fault::FaultKind::Dropout);
        // Post-recovery submission succeeds.
        let work = ChunkWork::new(10_000, &k);
        let ok = try_compute(&mut e, 0, &work, SimTime::from_secs(2e-3), "c");
        assert!(ok.is_ok(), "device answers again after recover_at");
    }

    #[test]
    fn flaky_window_faults_inside_and_stays_clean_outside() {
        let mut e = Engine::noiseless(Machine::four_k40());
        e.set_fault_plan(crate::fault::FaultPlan::new(0).with_flaky_window(0, 0.0, 1e9, 1.0, 0.0));
        let err = e.try_transfer(0, 1 << 20, Dir::H2D, SimTime::ZERO, "x").unwrap_err();
        assert_eq!(err.kind, crate::fault::FaultKind::TransientDma);
        // A window that never covers the run injects nothing.
        let mut e2 = Engine::noiseless(Machine::four_k40());
        e2.set_fault_plan(crate::fault::FaultPlan::new(0).with_flaky_window(0, 1e6, 2e6, 1.0, 1.0));
        assert!(e2.try_transfer(0, 1 << 20, Dir::H2D, SimTime::ZERO, "x").is_ok());
        assert!(e2.try_launch(0, SimTime::ZERO, "l").is_ok());
    }

    #[test]
    fn trace_level_never_perturbs_the_clock() {
        let k = axpy_intensity();
        let run = |level: TraceLevel| {
            let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(3, 0.05));
            e.set_trace_level(level);
            let mut last = SimTime::ZERO;
            for _ in 0..10 {
                let t = e.transfer(0, 1 << 20, Dir::H2D, last, "x");
                last = e.compute(0, &ChunkWork::new(10_000, &k), t, "c");
            }
            (last, e.ops_submitted(), e.trace().len())
        };
        let (t_full, ops_full, ev_full) = run(TraceLevel::Full);
        let (t_off, ops_off, ev_off) = run(TraceLevel::Off);
        assert_eq!(t_full, t_off, "Off must not shift the clock");
        assert_eq!(ops_full, ops_off, "ops counter is level-independent");
        assert_eq!(ev_full, 20);
        assert_eq!(ev_off, 0, "Off records nothing");
        assert_eq!(ops_full, ev_full as u64, "at Full, ops == trace length");
    }

    #[test]
    fn busy_sums_equal_the_full_trace_metrics_at_every_level() {
        let k = axpy_intensity();
        let run = |level: TraceLevel| {
            let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(3, 0.05));
            e.set_trace_level(level);
            let mut last = SimTime::ZERO;
            for _ in 0..10 {
                let t = e.transfer(1, 1 << 20, Dir::H2D, last, "x");
                last = e.compute(1, &ChunkWork::new(10_000, &k), t, "c");
                last = e.transfer(1, 1 << 19, Dir::D2H, last, "y");
            }
            e
        };
        let mut full = run(TraceLevel::Full);
        let off = run(TraceLevel::Off);
        for kind in OpKind::ALL {
            let want = traced_busy(&full, 1, kind);
            assert_eq!(full.busy(1, kind).as_secs(), want, "{kind}");
            assert_eq!(off.busy(1, kind).as_secs(), want, "{kind} at Off");
        }
        full.clear_busy();
        assert_eq!(full.busy(1, OpKind::Kernel), SimSpan::ZERO);
    }

    #[test]
    fn imbalance_equals_the_full_trace_metrics_at_every_level() {
        let k = axpy_intensity();
        let run = |level: TraceLevel| {
            let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(3, 0.05));
            e.set_trace_level(level);
            let mut ends = Vec::new();
            for d in 0..3 {
                let t = e.transfer(d, (1 + u64::from(d)) << 20, Dir::H2D, SimTime::ZERO, "x");
                let c = e.compute(d, &ChunkWork::new(10_000, &k), t, "c");
                ends.push(e.transfer(d, 1 << 19, Dir::D2H, c, "y"));
            }
            e.barrier(&[0, 1, 2], &ends);
            e
        };
        let full = run(TraceLevel::Full);
        let off = run(TraceLevel::Off);
        let m = Metrics::from_trace(full.trace(), full.n_devices());
        let completions = m.devices.iter().map(|d| d.completion_s);
        let want = crate::metrics::imbalance_pct(m.makespan_s, completions);
        assert!(want > 0.0, "the devices finish apart");
        assert_eq!(full.imbalance_pct(SimTime::ZERO), want);
        assert_eq!(off.imbalance_pct(SimTime::ZERO), want, "Off keeps the completions");
        let mut cleared = full;
        cleared.clear_busy();
        assert_eq!(cleared.imbalance_pct(SimTime::ZERO), 0.0, "nothing since the clear");
    }

    #[test]
    fn ops_counter_is_cumulative_and_take_trace_keeps_level() {
        let k = axpy_intensity();
        let mut e = Engine::noiseless(Machine::four_k40());
        e.set_trace_level(TraceLevel::Off);
        let t = e.transfer(0, 1 << 20, Dir::H2D, SimTime::ZERO, "x");
        e.compute(0, &ChunkWork::new(10, &k), t, "c");
        assert_eq!(e.ops_submitted(), 2);
        assert!(e.trace().is_empty(), "Off: nothing recorded");
        e.reset();
        assert_eq!(e.ops_submitted(), 2, "reset keeps the telemetry counter");
        let taken = e.take_trace();
        assert_eq!(taken.level(), TraceLevel::Off);
        assert_eq!(e.trace_level(), TraceLevel::Off, "take_trace preserves the level");
        assert_eq!(e.ops_submitted(), 2, "take_trace keeps the telemetry counter");
    }

    #[test]
    fn unified_memory_pays_penalty() {
        let mut m = Machine::four_k40();
        m.devices[0].memory = MemoryKind::Unified;
        let e = Engine::noiseless(m);
        let plain = e.pure_transfer_span(1, 1 << 20);
        let unified = e.pure_transfer_span(0, 1 << 20);
        assert!(unified.as_secs() > plain.as_secs() * 10.0);
    }
}

#[cfg(test)]
mod team_tests {
    use super::*;
    use crate::machine::Machine;
    use crate::noise::NoiseModel;

    fn work_intensity() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 100.0,
            mem_elems_per_iter: 1.0,
            data_elems_per_iter: 0.0,
            elem_bytes: 8.0,
        }
    }

    #[test]
    fn noiseless_team_scheds_agree_with_aggregate() {
        // Without noise and with iters divisible by teams, all three
        // team policies produce identical spans.
        let k = work_intensity();
        let teams = Machine::four_k40().devices[0].teams as u64;
        let iters = teams * 8 * 1000;
        let mut spans = Vec::new();
        for sched in [TeamSched::Aggregate, TeamSched::Block, TeamSched::Dynamic] {
            let mut e = Engine::noiseless(Machine::four_k40());
            let work = ChunkWork::new(iters, &k);
            let end = e.try_compute_teams(0, &work, SimTime::ZERO, "t", sched).unwrap();
            spans.push(end.as_secs());
        }
        assert!((spans[0] - spans[1]).abs() < 1e-15, "block {spans:?}");
        assert!((spans[0] - spans[2]).abs() < 1e-12, "dynamic {spans:?}");
    }

    #[test]
    fn noisy_team_block_is_slowest_and_dynamic_recovers() {
        // With per-team noise, static team distribution waits for the
        // slowest team (max of many draws), aggregate draws once, and
        // dynamic smooths toward the mean.
        let k = work_intensity();
        let iters = 1_000_000u64;
        let run = |sched: TeamSched, seed: u64| {
            let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(seed, 0.06));
            let work = ChunkWork::new(iters, &k);
            e.try_compute_teams(0, &work, SimTime::ZERO, "t", sched).unwrap().as_secs()
        };
        let mean = |sched: TeamSched| (0..20).map(|s| run(sched, s)).sum::<f64>() / 20.0;
        let agg = mean(TeamSched::Aggregate);
        let block = mean(TeamSched::Block);
        let dynamic = mean(TeamSched::Dynamic);
        assert!(block > agg, "block {block} should exceed aggregate {agg} on average");
        assert!(dynamic < block, "dynamic {dynamic} should beat block {block}");
    }

    #[test]
    fn peek_compute_end_matches_the_subsequent_commit() {
        // The peek is the committing path minus the commit: after some
        // history on the device (so op_seq is non-trivial), peeking and
        // then committing the same op must agree to the bit, for every
        // team schedule and a noisy model.
        let k = work_intensity();
        for sched in [TeamSched::Aggregate, TeamSched::Block, TeamSched::Dynamic] {
            let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(7, 0.05));
            // History: a launch, a transfer and a compute shift the
            // sequence counters and the calendar.
            let t0 = e.try_launch(0, SimTime::ZERO, "warm").unwrap();
            let t1 = e.transfer(0, 1 << 20, Dir::H2D, t0, "warm-in");
            let t2 = e.compute(0, &ChunkWork::new(10_000, &k), t1, "warm");
            let work = ChunkWork::new(123_456, &k);
            let peeked = e.peek_compute_end(0, &work, t2, sched);
            let committed = e.try_compute_teams(0, &work, t2, "real", sched).unwrap();
            assert_eq!(peeked, committed, "{sched:?}");
        }
    }

    #[test]
    fn peek_compute_end_does_not_perturb_the_engine() {
        let k = work_intensity();
        let mut a = Engine::new(Machine::four_k40(), NoiseModel::new(3, 0.05));
        let mut b = a.clone();
        // Peek many times on one engine, never on the other.
        for i in 0..5 {
            let _ = a.peek_compute_end(
                0,
                &ChunkWork::new(1000 + i, &k),
                SimTime::ZERO,
                TeamSched::Aggregate,
            );
        }
        let ea = a.compute(0, &ChunkWork::new(5_000, &k), SimTime::ZERO, "x");
        let eb = b.compute(0, &ChunkWork::new(5_000, &k), SimTime::ZERO, "x");
        assert_eq!(ea, eb, "peeking must be free of side effects");
    }

    #[test]
    fn team_remainder_handled() {
        // iters not divisible by teams: the extra-iteration teams bound
        // the span, but everything still completes.
        let k = work_intensity();
        let mut e = Engine::noiseless(Machine::four_k40());
        let work = ChunkWork::new(7, &k);
        let end = e.try_compute_teams(0, &work, SimTime::ZERO, "t", TeamSched::Block).unwrap();
        assert!(end.as_secs() > 0.0);
        // 7 iterations over 15 teams: worst team has 1 iteration at
        // per-team rate = aggregate/15.
        let pure = e.pure_compute_span(0, &ChunkWork::new(7, &k)).as_secs();
        let expect = pure / 7.0 * 15.0;
        assert!((end.as_secs() - expect).abs() < 1e-15);
    }
}
