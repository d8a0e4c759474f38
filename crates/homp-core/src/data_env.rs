//! Persistent device-data environment — the `target data` mechanism.
//!
//! The paper's runtime (§V-C) maps arrays per offload: an iterative
//! application like Fig. 3's Jacobi pays the full H2D/D2H cost every
//! sweep even though the operands are already sitting in device memory.
//! OpenMP solves this with structured `target data` regions and explicit
//! `target update` motion; this module is that mechanism for HOMP.
//!
//! A [`DataEnv`] is a reference-counted residency table keyed by array
//! symbol, carried by the runtime *between* offloads. Each entry records
//! which span of the array every device currently holds:
//!
//! * **transfer elision** — when an offload maps an array that is
//!   already resident with a compatible partition, the bytes are elided
//!   (counted in [`TransferStats`], never moved);
//! * **minimal redistribution** — when the split changes between
//!   offloads (e.g. BLOCK → MODEL_1), only the rows a device *gains*
//!   are transferred, priced by interval overlap with its previous
//!   ownership;
//! * **dirty tracking** — `tofrom`/`from` maps inside a region defer
//!   their copy-back: the entry is marked dirty and flushed once, at
//!   region close or at an explicit `target update from`;
//! * **persistent allocation** — entries hold allocations in the
//!   environment's own per-device [`MemorySpace`]s that outlive
//!   individual offloads and are released at region close (OOM surfaces
//!   before any engine operation runs).
//!
//! One planner, `DataEnv::plan`, serves every offload path, and one
//! unit rule holds in all of them: a loop-aligned array's residency is
//! tracked in rows, a replicated or independently distributed array's
//! in bytes, and an offload that maps an array in the other unit drops
//! what the old unit recorded. A byte hold sits where the device's block
//! starts in the array (0 for a replicated one), so a block that changes
//! owner moves; a partial byte hold moves only the difference, counted as
//! redistribution. A device that a static offload gives no block of an
//! array keeps no hold of it and no allocation for it.
//!
//! Chunk-scheduled offloads (`SCHED_DYNAMIC` / `SCHED_GUIDED` and the
//! profiling algorithms' stage 2) stream loop-aligned data per chunk
//! with no stable per-device ownership, so inside a region they elide
//! only the *fixed* mappings (replicated / independently distributed
//! arrays and scalar broadcasts) and invalidate any aligned residency
//! they touch — a conservative, documented semantic.
//!
//! Everything here is bookkeeping over byte counts: decisions are made
//! before engine operations are issued, so the simulation stays
//! deterministic (all tables are ordered maps — iteration order never
//! depends on hash seeds).

use crate::map::{ArrayCostKind, DataPlan};
use crate::offload::OffloadRegion;
use crate::runtime::OffloadError;
use homp_sim::{AllocId, DeviceId, MemorySpace, TransferStats};
use std::collections::{BTreeMap, BTreeSet};

/// A half-open span of resident data on one device: row units for
/// loop-aligned arrays, byte units otherwise (from the first byte of
/// the device's block, 0 for a replicated array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owned {
    start: u64,
    len: u64,
}

impl Owned {
    fn end(&self) -> u64 {
        self.start + self.len
    }

    fn overlap(&self, other: Owned) -> u64 {
        let lo = self.start.max(other.start);
        self.end().min(other.end()).saturating_sub(lo)
    }

    /// The smallest span covering both.
    fn hull(&self, other: Owned) -> Owned {
        let start = self.start.min(other.start);
        Owned { start, len: self.end().max(other.end()) - start }
    }
}

/// Residency record for one mapped array.
#[derive(Debug, Clone)]
struct Entry {
    /// Nested `target data` regions declaring this array.
    refcount: u32,
    /// Whether the declaring region copies the array back at close
    /// (`from` / `tofrom` in the region's map clause).
    copies_out: bool,
    /// Written on-device since the last copy-back.
    dirty: bool,
    /// `Some(bytes_per_row)` when residency is tracked in row units
    /// (loop-aligned); `None` for byte-unit (replicated/independent)
    /// residency.
    row_bytes: Option<f64>,
    /// Per-device resident span.
    resident: BTreeMap<DeviceId, Owned>,
    /// Per-device persistent allocation handle and its size in bytes.
    allocs: BTreeMap<DeviceId, (AllocId, u64)>,
}

impl Entry {
    /// Bytes in `units` of the entry's residency unit.
    fn bytes(&self, units: u64) -> u64 {
        match self.row_bytes {
            Some(bpr) => (units as f64 * bpr).round() as u64,
            None => units,
        }
    }

    fn resident_bytes(&self, dev: DeviceId) -> u64 {
        self.resident.get(&dev).map_or(0, |o| self.bytes(o.len))
    }
}

/// Per-slot transfer bytes of one offload: the plain [`DataPlan`]
/// numbers, residency-adjusted when a `target data` region covers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotBytes {
    /// H2D bytes per slot, after elision.
    pub h2d: Vec<u64>,
    /// D2H bytes per slot, deferred copy-backs already removed.
    pub d2h: Vec<u64>,
}

/// The persistent device-data environment. Owned by the runtime; one
/// per simulated machine.
#[derive(Debug, Clone, Default)]
pub struct DataEnv {
    entries: BTreeMap<String, Entry>,
    /// Array names declared by each open region, innermost last.
    open_stack: Vec<Vec<String>>,
    /// Offload region names whose scalar broadcast already happened
    /// inside the current outermost region.
    scalars_sent: BTreeSet<String>,
    stats: TransferStats,
    /// Per-device memory spaces backing the entries' persistent
    /// allocations, indexed by device ID.
    mem: Vec<MemorySpace>,
}

impl DataEnv {
    /// An empty environment over devices with the given memory
    /// `capacities` in bytes, indexed by device ID.
    pub(crate) fn new(capacities: impl IntoIterator<Item = u64>) -> DataEnv {
        let mem = capacities.into_iter().map(MemorySpace::new).collect();
        DataEnv { mem, ..DataEnv::default() }
    }

    /// Whether any `target data` region is open.
    pub fn active(&self) -> bool {
        !self.open_stack.is_empty()
    }

    /// Cumulative transfer accounting since the environment was created.
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }

    /// Whether `name` is mapped by an open region.
    pub fn is_mapped(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// The memory space backing device `dev`'s persistent allocations.
    pub fn memory(&self, dev: DeviceId) -> Option<&MemorySpace> {
        self.mem.get(dev as usize)
    }

    /// Bytes the open regions keep allocated on device `dev` for arrays
    /// `plan` does not map: memory an offload of `plan` cannot use.
    pub(crate) fn held_except(&self, dev: DeviceId, plan: &DataPlan) -> u64 {
        let unmapped = |name: &String| plan.per_array().iter().all(|c| c.name != *name);
        self.entries
            .iter()
            .filter(|&(name, _)| unmapped(name))
            .filter_map(|(_, e)| e.allocs.get(&dev).map(|&(_, bytes)| bytes))
            .sum()
    }

    /// Drop every entry, allocation and counter — used when the runtime
    /// is rewound to a fresh seed. The memory spaces keep their
    /// capacities.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.open_stack.clear();
        self.scalars_sent.clear();
        self.stats = TransferStats::default();
        for space in &mut self.mem {
            *space = MemorySpace::new(space.capacity());
        }
    }

    /// Open a data region: register (or re-reference) every array the
    /// region maps. Transfers are lazy — nothing moves until the first
    /// offload materializes a split — so opening costs nothing on the
    /// virtual clock.
    pub fn open(&mut self, region: &OffloadRegion) {
        let mut names = Vec::with_capacity(region.arrays.len());
        for a in &region.arrays {
            let e = self.entries.entry(a.name.clone()).or_insert_with(|| Entry {
                refcount: 0,
                copies_out: false,
                dirty: false,
                row_bytes: None,
                resident: BTreeMap::new(),
                allocs: BTreeMap::new(),
            });
            e.refcount += 1;
            e.copies_out |= a.copies_out();
            names.push(a.name.clone());
        }
        self.open_stack.push(names);
    }

    /// Close the innermost region. Returns the dirty copy-backs the
    /// caller must simulate, `(device, bytes)` in deterministic order,
    /// and releases the region's allocations.
    ///
    /// Errs with [`OffloadError::NoOpenDataRegion`] when nothing is
    /// open.
    pub fn close(&mut self) -> Result<Vec<(DeviceId, u64)>, OffloadError> {
        let names = self.open_stack.pop().ok_or(OffloadError::NoOpenDataRegion)?;
        let mut flush = Vec::new();
        for name in names {
            let Some(e) = self.entries.get_mut(&name) else { continue };
            e.refcount -= 1;
            if e.refcount > 0 {
                continue;
            }
            if e.dirty && e.copies_out {
                for &dev in e.resident.keys() {
                    let b = e.resident_bytes(dev);
                    if b > 0 {
                        flush.push((dev, b));
                        self.stats.d2h_bytes += b;
                    }
                }
            }
            for (&dev, &(id, _)) in &e.allocs {
                if let Some(space) = self.mem.get_mut(dev as usize) {
                    let _ = space.free(id);
                }
            }
            self.entries.remove(&name);
        }
        if self.open_stack.is_empty() {
            self.scalars_sent.clear();
        }
        flush.sort();
        Ok(flush)
    }

    /// Forced host→device refresh (`target update to`): re-upload every
    /// named array's resident span. Returns `(device, bytes)` transfers.
    pub fn update_to(&mut self, names: &[&str]) -> Result<Vec<(DeviceId, u64)>, OffloadError> {
        if !self.active() {
            return Err(OffloadError::NoOpenDataRegion);
        }
        let mut out = Vec::new();
        for &name in names {
            let e = self
                .entries
                .get_mut(name)
                .ok_or_else(|| OffloadError::UnmappedArray(name.to_string()))?;
            for &dev in e.resident.keys() {
                let b = e.resident_bytes(dev);
                if b > 0 {
                    out.push((dev, b));
                    self.stats.h2d_bytes += b;
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Forced device→host copy-back (`target update from`): transfer
    /// every named array's resident span and clear its dirty bit.
    pub fn update_from(&mut self, names: &[&str]) -> Result<Vec<(DeviceId, u64)>, OffloadError> {
        if !self.active() {
            return Err(OffloadError::NoOpenDataRegion);
        }
        let mut out = Vec::new();
        for &name in names {
            let e = self
                .entries
                .get_mut(name)
                .ok_or_else(|| OffloadError::UnmappedArray(name.to_string()))?;
            for &dev in e.resident.keys() {
                let b = e.resident_bytes(dev);
                if b > 0 {
                    out.push((dev, b));
                    self.stats.d2h_bytes += b;
                }
            }
            e.dirty = false;
        }
        out.sort();
        Ok(out)
    }

    /// Forget the recorded residency of `region`'s arrays without
    /// releasing their allocations, clear their dirty bits, and count
    /// the `deferred` copy-back bytes `DataEnv::plan` recorded for
    /// this offload as moved instead of elided.
    ///
    /// The work-assisting scheduler calls this after a run in which a
    /// steal or adoption fired: final per-device ownership then differs
    /// from the static split `plan` recorded (stolen tails
    /// computed — and copied back — on the thief, not the planned
    /// owner), so the next offload must not elide transfers against the
    /// stale intervals. Such a run charges its copy-backs eagerly
    /// instead of deferring them to region close: nothing is left dirty,
    /// and the deferred bytes went over the bus.
    pub(crate) fn invalidate_residency(&mut self, region: &OffloadRegion, deferred: u64) {
        self.stats.d2h_elided_bytes -= deferred;
        self.stats.d2h_bytes += deferred;
        for a in &region.arrays {
            if let Some(e) = self.entries.get_mut(&a.name) {
                e.resident.clear();
                e.dirty = false;
            }
        }
    }

    /// Per-slot transfer bytes of one offload on `slots`. `shares` is a
    /// static split, `shares[s]` contiguous iterations on `slots[s]` in
    /// slot order; `None` means loop-aligned data streams per chunk, so
    /// only the fixed mappings (scalars, replicated and independent
    /// arrays, reduction partials) count here. When no open region
    /// covers any of the offload's arrays these are the plain plan
    /// numbers and nothing is recorded. A region never elides or defers
    /// the reduction partials, and [`TransferStats`] leaves them out.
    ///
    /// Inside a region, residency tables and [`TransferStats`] advance
    /// and device allocations are created or resized (an allocation
    /// failure surfaces as [`OffloadError::OutOfDeviceMemory`] before
    /// any engine operation runs). Given shares, each slot owns its
    /// loop-aligned rows, and a device given no block of an array drops
    /// its hold and allocation; streamed, those rows are dropped, and
    /// the dirty bit of an array that copies out is cleared, because its
    /// chunks copy it back.
    pub(crate) fn plan(
        &mut self,
        region: &OffloadRegion,
        plan: &DataPlan,
        shares: Option<&[u64]>,
        slots: &[DeviceId],
    ) -> Result<SlotBytes, OffloadError> {
        let n = slots.len();
        let iters = |s: usize| shares.map_or(0, |c| c[s]);
        if !self.covers(plan) {
            return Ok(SlotBytes {
                h2d: (0..n).map(|s| plan.h2d_bytes(s, iters(s))).collect(),
                d2h: (0..n).map(|s| plan.d2h_bytes(s, iters(s))).collect(),
            });
        }
        let mut h2d = vec![0u64; n];
        // Reduction partials are results, not resident data: they come
        // back after every offload.
        let mut d2h = vec![region.reduction_bytes; n];
        self.charge_scalars(region, plan, &mut h2d);

        for cost in plan.per_array() {
            let Some(e) = self.entries.get_mut(&cost.name) else {
                // Not under any region: plain per-offload mapping.
                for s in 0..n {
                    let b = cost.bytes(s, iters(s));
                    if cost.copies_in {
                        h2d[s] += b;
                    }
                    if cost.copies_out {
                        d2h[s] += b;
                    }
                }
                continue;
            };
            let row_bytes = match cost.kind {
                ArrayCostKind::LoopAligned { bytes_per_iter } => Some(bytes_per_iter),
                _ => None,
            };
            if row_bytes.is_some() && shares.is_none() {
                // Streamed per chunk; the per-chunk transfers are the
                // caller's business. Stale ownership would otherwise
                // claim rows this offload scatters arbitrarily.
                e.resident.clear();
                if cost.copies_out {
                    e.dirty = false;
                }
                continue;
            }
            // A unit switch drops what the old unit recorded.
            if e.row_bytes.is_some() != row_bytes.is_some() {
                e.resident.clear();
            }
            e.row_bytes = row_bytes;
            let mut next = 0;
            for (s, &dev) in slots.iter().enumerate() {
                // Rows: the slot's contiguous share of the iterations.
                // Bytes: the whole array when replicated, else the slot's
                // block, which starts where the previous slot's ends.
                let want = match (&cost.kind, row_bytes) {
                    (ArrayCostKind::Replicated, _) => Owned { start: 0, len: cost.total_bytes },
                    (_, Some(_)) => Owned { start: next, len: iters(s) },
                    (_, None) => Owned { start: next, len: cost.bytes(s, 0) },
                };
                next = want.end();
                if want.len == 0 {
                    e.resident.remove(&dev);
                    continue;
                }
                let owned = e.resident.get(&dev).copied();
                let keep = owned.map_or(0, |o| o.overlap(want));
                if cost.copies_in {
                    let miss = e.bytes(want.len - keep);
                    self.stats.h2d_elided_bytes += e.bytes(keep);
                    self.stats.h2d_bytes += miss;
                    if keep > 0 && miss > 0 {
                        // Partial hold: only the difference moved.
                        self.stats.redistributed_bytes += miss;
                    }
                    h2d[s] += miss;
                }
                if cost.copies_out {
                    // Deferred to region close / `update from`.
                    self.stats.d2h_elided_bytes += e.bytes(want.len);
                    e.dirty = true;
                }
                // Rows follow the share. A byte hold grows over a block it
                // overlaps and moves to a disjoint one.
                let held = match owned {
                    Some(o) if row_bytes.is_none() && keep > 0 => o.hull(want),
                    _ => want,
                };
                e.resident.insert(dev, held);
                let footprint = e.bytes(held.len);
                ensure_alloc(e, dev, footprint, &mut self.mem)?;
            }
            // A device this offload gives no block of the array, left
            // out or given none above, keeps no hold and no allocation.
            e.resident.retain(|dev, _| slots.contains(dev));
            let resident = &e.resident;
            e.allocs.retain(|dev, &mut (id, _)| {
                let kept = resident.contains_key(dev);
                if !kept {
                    if let Some(space) = self.mem.get_mut(*dev as usize) {
                        let _ = space.free(id);
                    }
                }
                kept
            });
        }
        Ok(SlotBytes { h2d, d2h })
    }

    /// The share of `plan`'s loop-aligned bytes per iteration, a
    /// `tofrom` array's counted both ways, that no open region holds: 1
    /// with no region open, 0 when the open regions map every
    /// loop-aligned array. A held array's rows cross the bus only where
    /// an offload first places them, and its copy-back waits for the
    /// region close. Replicated and independent arrays are fixed bytes
    /// and do not count; a plan without loop-aligned bytes reads 1.
    pub(crate) fn unheld_share(&self, plan: &DataPlan) -> f64 {
        let (mut all, mut unheld) = (0.0, 0.0);
        for cost in plan.per_array() {
            let ArrayCostKind::LoopAligned { bytes_per_iter } = cost.kind else { continue };
            let b =
                bytes_per_iter * f64::from(u8::from(cost.copies_in) + u8::from(cost.copies_out));
            all += b;
            if !self.entries.contains_key(&cost.name) {
                unheld += b;
            }
        }
        if all > 0.0 {
            unheld / all
        } else {
            1.0
        }
    }

    /// Whether an open region registers at least one of the plan's
    /// arrays.
    fn covers(&self, plan: &DataPlan) -> bool {
        self.active() && plan.per_array().iter().any(|c| self.entries.contains_key(&c.name))
    }

    /// Scalar broadcast: charged once per offload region name while a
    /// data region is open, elided on repeats (the loop bounds and
    /// coefficients of an iterative sweep do not change between
    /// offloads).
    fn charge_scalars(&mut self, region: &OffloadRegion, plan: &DataPlan, h2d: &mut [u64]) {
        let b = plan.scalar_bytes();
        if b == 0 {
            return;
        }
        if self.scalars_sent.contains(&region.name) {
            self.stats.h2d_elided_bytes += b * h2d.len() as u64;
        } else {
            for v in h2d.iter_mut() {
                *v += b;
            }
            self.stats.h2d_bytes += b * h2d.len() as u64;
            self.scalars_sent.insert(region.name.clone());
        }
    }
}

/// Create or resize the entry's persistent allocation on `dev`.
fn ensure_alloc(
    e: &mut Entry,
    dev: DeviceId,
    bytes: u64,
    mem: &mut [MemorySpace],
) -> Result<(), OffloadError> {
    let Some(space) = mem.get_mut(dev as usize) else { return Ok(()) };
    let oom = |space: &MemorySpace| OffloadError::OutOfDeviceMemory {
        device: dev,
        required: bytes,
        capacity: space.capacity(),
    };
    let id = match e.allocs.get(&dev) {
        Some(&(id, _)) => space.realloc(id, bytes).map(|()| id),
        None => space.alloc(bytes),
    };
    e.allocs.insert(dev, (id.map_err(|_| oom(space))?, bytes));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Algorithm;
    use homp_lang::{DistPolicy, MapDir};

    fn region(n: u64) -> OffloadRegion {
        OffloadRegion::builder("axpy")
            .trip_count(n)
            .devices(vec![0, 1])
            .algorithm(Algorithm::Block)
            .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
            .map_1d(
                "y",
                MapDir::ToFrom,
                n,
                8,
                DistPolicy::Align { target: "loop".into(), ratio: 1 },
            )
            .scalars(16)
            .build()
    }

    fn env() -> DataEnv {
        DataEnv::new([1 << 30, 1 << 30])
    }

    fn in_use(env: &DataEnv, dev: DeviceId) -> u64 {
        env.memory(dev).unwrap().in_use()
    }

    #[test]
    fn inactive_env_stays_out_of_the_way() {
        let r = region(100);
        let plan = DataPlan::new(&r, 2).unwrap();
        let mut env = env();
        let out = env.plan(&r, &plan, Some(&[50, 50]), &[0, 1]).unwrap();
        assert_eq!(out.h2d, vec![plan.h2d_bytes(0, 50), plan.h2d_bytes(1, 50)]);
        assert_eq!(out.d2h, vec![plan.d2h_bytes(0, 50), plan.d2h_bytes(1, 50)]);
        let fixed = env.plan(&r, &plan, None, &[0, 1]).unwrap();
        assert_eq!(fixed.h2d, vec![plan.h2d_fixed_bytes(0), plan.h2d_fixed_bytes(1)]);
        assert_eq!(fixed.d2h, vec![plan.d2h_fixed_bytes(0), plan.d2h_fixed_bytes(1)]);
        assert_eq!(env.stats(), &TransferStats::default());
        assert_eq!(in_use(&env, 0), 0, "no region, no persistent allocation");
    }

    #[test]
    fn first_offload_charges_plan_bytes_then_elides() {
        let r = region(100);
        let plan = DataPlan::new(&r, 2).unwrap();
        let mut env = env();
        env.open(&r);
        let first = env.plan(&r, &plan, Some(&[50, 50]), &[0, 1]).unwrap();
        // Cold region: H2D equals the plain plan minus nothing; D2H is
        // fully deferred.
        for s in 0..2 {
            assert_eq!(first.h2d[s], plan.h2d_bytes(s, 50));
            assert_eq!(first.d2h[s], 0);
        }
        // Allocations persist between offloads.
        assert!(in_use(&env, 0) > 0);
        let warm = env.plan(&r, &plan, Some(&[50, 50]), &[0, 1]).unwrap();
        assert_eq!(warm.h2d, vec![0, 0], "everything resident → fully elided");
        assert_eq!(warm.d2h, vec![0, 0]);
        let stats = *env.stats();
        assert_eq!(stats.h2d_elided_bytes, plan.h2d_bytes(0, 50) + plan.h2d_bytes(1, 50));
        assert_eq!(stats.redistributed_bytes, 0);
        // Closing flushes dirty y (tofrom) once: 50 rows × 8 B per slot.
        let flush = env.close().unwrap();
        assert_eq!(flush, vec![(0, 400), (1, 400)]);
        assert_eq!(in_use(&env, 0), 0, "close releases the region's allocations");
    }

    #[test]
    fn repartition_moves_only_the_delta() {
        let r = region(100);
        let plan = DataPlan::new(&r, 2).unwrap();
        let mut env = env();
        env.open(&r);
        env.plan(&r, &plan, Some(&[50, 50]), &[0, 1]).unwrap();
        // Split shifts 50/50 → 70/30: device 0 gains rows [50,70), device
        // 1 keeps [70,100) of its old [50,100).
        let re = env.plan(&r, &plan, Some(&[70, 30]), &[0, 1]).unwrap();
        // x (to) + y (tofrom): 16 B/row inbound. Device 0 gains 20 rows.
        assert_eq!(re.h2d, vec![20 * 16, 0]);
        assert_eq!(env.stats().redistributed_bytes, 20 * 16);
        // Allocation resized, not leaked.
        assert_eq!(env.memory(0).unwrap().live_allocations(), 2);
    }

    #[test]
    fn update_to_and_from_move_resident_spans() {
        let r = region(100);
        let plan = DataPlan::new(&r, 2).unwrap();
        let mut env = env();
        env.open(&r);
        env.plan(&r, &plan, Some(&[50, 50]), &[0, 1]).unwrap();
        let up = env.update_to(&["x"]).unwrap();
        assert_eq!(up, vec![(0, 400), (1, 400)]);
        let down = env.update_from(&["y"]).unwrap();
        assert_eq!(down, vec![(0, 400), (1, 400)]);
        // `update from` cleaned the dirty bit: nothing flushes at close
        // until another offload writes y again.
        let flush = env.close().unwrap();
        assert!(flush.is_empty());
        assert!(matches!(env.update_to(&["x"]), Err(OffloadError::NoOpenDataRegion)));
    }

    #[test]
    fn unknown_array_in_update_is_an_error() {
        let r = region(10);
        let mut env = env();
        env.open(&r);
        assert!(matches!(
            env.update_to(&["nope"]),
            Err(OffloadError::UnmappedArray(n)) if n == "nope"
        ));
    }

    #[test]
    fn clear_resets_the_memory_spaces() {
        let r = region(100);
        let plan = DataPlan::new(&r, 2).unwrap();
        let mut env = DataEnv::new([1 << 20, 1 << 30]);
        env.open(&r);
        env.plan(&r, &plan, Some(&[50, 50]), &[0, 1]).unwrap();
        assert!(in_use(&env, 0) > 0);
        env.clear();
        assert!(!env.active());
        assert_eq!(in_use(&env, 0), 0, "allocations of a region left open are dropped");
        assert_eq!(env.memory(0).unwrap().capacity(), 1 << 20);
    }

    #[test]
    fn alloc_failure_surfaces_as_oom() {
        let r = region(100);
        let plan = DataPlan::new(&r, 2).unwrap();
        // Device 0 can hold barely anything.
        let mut env = DataEnv::new([64, 1 << 30]);
        env.open(&r);
        let err = env.plan(&r, &plan, Some(&[50, 50]), &[0, 1]).unwrap_err();
        assert!(matches!(err, OffloadError::OutOfDeviceMemory { device: 0, .. }));
    }

    #[test]
    fn chunked_fixed_mappings_elide_but_aligned_streams() {
        let n = 100u64;
        let r = OffloadRegion::builder("mv")
            .trip_count(n)
            .devices(vec![0, 1])
            .map_1d("c", MapDir::To, 64, 8, DistPolicy::Full)
            .map_1d(
                "y",
                MapDir::ToFrom,
                n,
                8,
                DistPolicy::Align { target: "loop".into(), ratio: 1 },
            )
            .build();
        let plan = DataPlan::new(&r, 2).unwrap();
        let mut env = env();
        env.open(&r);
        let cold = env.plan(&r, &plan, None, &[0, 1]).unwrap();
        assert_eq!(cold.h2d, vec![512, 512], "replicated c moves once per device");
        let warm = env.plan(&r, &plan, None, &[0, 1]).unwrap();
        assert_eq!(warm.h2d, vec![0, 0], "c resident → elided");
        // y streamed per chunk: no ownership recorded.
        let static_after = env.plan(&r, &plan, Some(&[50, 50]), &[0, 1]).unwrap();
        assert_eq!(static_after.h2d, vec![400, 400], "y must be re-uploaded");
    }

    /// axpy moves 24 B per iteration: `x` (`to`) 8 B in, `y` (`tofrom`)
    /// 8 B in and 8 B out. The share no open region holds is what a
    /// region mapping some of them leaves; a replicated table `c` is
    /// fixed bytes and counts for nothing.
    #[test]
    fn unheld_share_counts_the_loop_aligned_bytes_no_region_maps() {
        let aligned = || DistPolicy::Align { target: "loop".into(), ratio: 1 };
        let r = OffloadRegion::builder("axpy")
            .trip_count(100)
            .devices(vec![0, 1])
            .map_1d("x", MapDir::To, 100, 8, aligned())
            .map_1d("y", MapDir::ToFrom, 100, 8, aligned())
            .map_1d("c", MapDir::To, 64, 8, DistPolicy::Full)
            .build();
        let plan = DataPlan::new(&r, 2).unwrap();
        let share = |maps: &[&str]| {
            let mut env = env();
            if !maps.is_empty() {
                let mut scope = r.clone();
                scope.arrays.retain(|a| maps.contains(&a.name.as_str()));
                env.open(&scope);
            }
            env.unheld_share(&plan)
        };
        assert_eq!(share(&[]), 1.0, "no region open");
        assert_eq!(share(&["x"]), 2.0 / 3.0);
        assert_eq!(share(&["y"]), 1.0 / 3.0);
        assert_eq!(share(&["x", "y"]), 0.0);
        assert_eq!(share(&["c"]), 1.0, "a replicated array is fixed bytes");
    }
}
