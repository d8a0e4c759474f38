//! Data-movement planning: how many bytes each device's mapping costs.
//!
//! Challenge 2 of Section III-B: "automatically schedule loop
//! distribution and data movement (copy or share) so only the necessary
//! data will be copied to the accelerators for the computation assigned
//! to each device." The [`DataPlan`] classifies every mapped array as
//!
//! * **replicated** — all dimensions FULL: the whole array goes to every
//!   device once (fixed bytes);
//! * **loop-aligned** — its distributed dimension resolves (through the
//!   alignment graph) to the same root as the loop: bytes scale with the
//!   device's iteration count, and chunked schedulers pay them per
//!   chunk;
//! * **independently distributed** — a BLOCK root of its own: fixed
//!   per-device bytes from its own distribution.
//!
//! Scalars are broadcast (fixed H2D bytes), and each device copies its
//! reduction partials back (fixed D2H bytes). Halo widths are collected
//! for [`crate::halo`] to price exchanges.

use crate::align::{AlignError, AlignGraph};
use crate::dist::Distribution;
use crate::offload::{ArrayMap, OffloadRegion};
use homp_lang::DistPolicy;

/// Error building a [`DataPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// An array distributes more than one dimension.
    MultipleDistributedDims(String),
    /// An array uses the AUTO policy, which Table I restricts to loops.
    AutoOnArray(String),
    /// Alignment-graph failure.
    Align(AlignError),
    /// A loop-aligned array's distributed extent is inconsistent with
    /// the trip count and the chain ratios.
    ExtentMismatch {
        /// Array name.
        array: String,
        /// Extent of its distributed dimension.
        extent: u64,
        /// What the alignment implies it should be.
        expected: u64,
    },
    /// A byte count of the array (whole, per slab or summed into a
    /// slot) or its aligned extent times the ALIGN ratio exceeds `u64`.
    Overflow(String),
}

impl From<AlignError> for PlanError {
    fn from(e: AlignError) -> Self {
        PlanError::Align(e)
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MultipleDistributedDims(a) => {
                write!(f, "array `{a}` distributes more than one dimension")
            }
            PlanError::AutoOnArray(a) => {
                write!(f, "array `{a}` uses AUTO, which only applies to loop distribution")
            }
            PlanError::Align(e) => write!(f, "{e}"),
            PlanError::ExtentMismatch { array, extent, expected } => write!(
                f,
                "array `{array}` distributed extent {extent} does not match aligned loop ({expected})"
            ),
            PlanError::Overflow(a) => write!(f, "array `{a}` is too large: its sizes overflow u64"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Halo requirement of one array, for exchange pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloPlan {
    /// Array name.
    pub array: String,
    /// Ghost width in the distributed dimension.
    pub width: u64,
    /// Bytes per index of the distributed dimension.
    pub slab_bytes: u64,
}

/// How one mapped array's bytes attach to devices.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayCostKind {
    /// Whole array on every device (all dimensions FULL).
    Replicated,
    /// Bytes scale with the owning device's iteration count (the array's
    /// distributed dimension resolves to the loop's alignment root).
    LoopAligned {
        /// Bytes per loop iteration.
        bytes_per_iter: f64,
    },
    /// Fixed per-slot bytes from the array's own distribution.
    Independent {
        /// Bytes per slot, in slot order.
        per_slot: Vec<u64>,
    },
}

/// Per-array byte attribution — what [`DataPlan`]'s aggregate counters
/// are made of, retained so a residency-aware runtime (the `target
/// data` environment) can elide or redistribute transfers array by
/// array instead of all-or-nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayCost {
    /// Array name (the residency key).
    pub name: String,
    /// How bytes attach to devices.
    pub kind: ArrayCostKind,
    /// Whether the map copies host→device (`to` / `tofrom`).
    pub copies_in: bool,
    /// Whether the map copies device→host (`from` / `tofrom`).
    pub copies_out: bool,
    /// Whole-array bytes.
    pub total_bytes: u64,
}

impl ArrayCost {
    /// Bytes of the array on slot `s` running `iters` iterations: the
    /// whole array when replicated, the slot's block when independent,
    /// and `round(iters × bytes_per_iter)` when loop-aligned.
    pub fn bytes(&self, s: usize, iters: u64) -> u64 {
        match &self.kind {
            ArrayCostKind::Replicated => self.total_bytes,
            ArrayCostKind::LoopAligned { bytes_per_iter } => {
                (iters as f64 * bytes_per_iter).round() as u64
            }
            ArrayCostKind::Independent { per_slot } => per_slot[s],
        }
    }
}

/// Byte-accounting plan for one offload region on `n_devices` devices.
#[derive(Debug, Clone)]
pub struct DataPlan {
    n_devices: usize,
    h2d_fixed: Vec<u64>,
    d2h_fixed: Vec<u64>,
    alloc_fixed: Vec<u64>,
    h2d_per_iter: f64,
    d2h_per_iter: f64,
    alloc_per_iter: f64,
    halos: Vec<HaloPlan>,
    scalar_bytes: u64,
    per_array: Vec<ArrayCost>,
}

impl DataPlan {
    /// Build the plan for `region` over `n_devices` participating
    /// devices.
    pub fn new(region: &OffloadRegion, n_devices: usize) -> Result<DataPlan, PlanError> {
        // ---- alignment graph -------------------------------------------
        let mut graph = AlignGraph::new();
        match &region.loop_align {
            Some((target, ratio)) => graph.add_aligned(&region.loop_label, target, *ratio)?,
            None => graph.add(&region.loop_label, &DistPolicy::Auto)?,
        }
        for a in &region.arrays {
            let policy = match a.distributed_dim() {
                Some(d) => {
                    // Reject a second distributed dimension.
                    if a.partition
                        .iter()
                        .enumerate()
                        .any(|(i, p)| i != d && !matches!(p, DistPolicy::Full))
                    {
                        return Err(PlanError::MultipleDistributedDims(a.name.clone()));
                    }
                    &a.partition[d]
                }
                None => &DistPolicy::Full,
            };
            if matches!(policy, DistPolicy::Auto) {
                return Err(PlanError::AutoOnArray(a.name.clone()));
            }
            graph.add(&a.name, policy)?;
        }

        let (loop_root, loop_ratio, _) = graph.resolve_root(&region.loop_label)?;

        let mut plan = DataPlan {
            n_devices,
            h2d_fixed: vec![region.scalar_bytes; n_devices],
            d2h_fixed: vec![region.reduction_bytes; n_devices],
            alloc_fixed: vec![region.scalar_bytes; n_devices],
            h2d_per_iter: 0.0,
            d2h_per_iter: 0.0,
            alloc_per_iter: 0.0,
            halos: Vec::new(),
            scalar_bytes: region.scalar_bytes,
            per_array: Vec::with_capacity(region.arrays.len()),
        };

        for a in &region.arrays {
            let overflow = || PlanError::Overflow(a.name.clone());
            let total_bytes = a.total_bytes().ok_or_else(overflow)?;
            let kind = match a.distributed_dim() {
                None => {
                    // Replicated: whole array to every device.
                    for s in 0..n_devices {
                        plan.add_fixed(s, a, total_bytes).ok_or_else(overflow)?;
                    }
                    ArrayCostKind::Replicated
                }
                Some(d) => {
                    let slab = a.slab_bytes(d).ok_or_else(overflow)?;
                    // Collect halo requirements on the distributed dimension.
                    if let Some(w) = a.halo[d] {
                        let array = a.name.clone();
                        plan.halos.push(HaloPlan { array, width: w, slab_bytes: slab });
                    }
                    let (root, ratio, root_policy) = graph.resolve_root(&a.name)?;
                    if root == loop_root {
                        // Loop-aligned: bytes per loop iteration.
                        // extent * loop_ratio must equal trip * ratio.
                        let extent = a.dims[d];
                        let aligned = region.trip_count.checked_mul(ratio).ok_or_else(overflow)?;
                        if extent.checked_mul(loop_ratio).ok_or_else(overflow)? != aligned {
                            return Err(PlanError::ExtentMismatch {
                                array: a.name.clone(),
                                extent,
                                expected: aligned / loop_ratio.max(1),
                            });
                        }
                        let per_iter = slab as f64 * ratio as f64 / loop_ratio as f64;
                        if a.copies_in() {
                            plan.h2d_per_iter += per_iter;
                        }
                        if a.copies_out() {
                            plan.d2h_per_iter += per_iter;
                        }
                        plan.alloc_per_iter += per_iter;
                        ArrayCostKind::LoopAligned { bytes_per_iter: per_iter }
                    } else {
                        // Independent root: concrete distribution now.
                        let dist = match root_policy {
                            DistPolicy::Block => Distribution::block(a.dims[d], n_devices),
                            DistPolicy::Full => Distribution::full(a.dims[d], n_devices),
                            other => {
                                // AUTO rejected above; ALIGN cannot be a
                                // root by construction.
                                unreachable!("non-concrete root policy {other:?}")
                            }
                        };
                        let mut per_slot = Vec::with_capacity(n_devices);
                        for s in 0..n_devices {
                            // At most extent × slab = `total_bytes`: no overflow.
                            let b = dist.range(s).len() * slab;
                            plan.add_fixed(s, a, b).ok_or_else(overflow)?;
                            per_slot.push(b);
                        }
                        ArrayCostKind::Independent { per_slot }
                    }
                }
            };
            plan.per_array.push(ArrayCost {
                name: a.name.clone(),
                kind,
                copies_in: a.copies_in(),
                copies_out: a.copies_out(),
                total_bytes,
            });
        }
        Ok(plan)
    }

    /// Add `bytes` of array `a` to slot `s`'s fixed counters; `None`
    /// when a counter would overflow `u64`.
    fn add_fixed(&mut self, s: usize, a: &ArrayMap, bytes: u64) -> Option<()> {
        let add = |counter: &mut u64| {
            *counter = counter.checked_add(bytes)?;
            Some(())
        };
        if a.copies_in() {
            add(&mut self.h2d_fixed[s])?;
        }
        if a.copies_out() {
            add(&mut self.d2h_fixed[s])?;
        }
        add(&mut self.alloc_fixed[s])
    }

    /// Number of device slots the plan covers.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Host→device bytes for slot `s` executing `iters` iterations
    /// (fixed part + aligned part).
    pub fn h2d_bytes(&self, s: usize, iters: u64) -> u64 {
        self.h2d_fixed[s] + (self.h2d_per_iter * iters as f64).round() as u64
    }

    /// Device→host bytes for slot `s` after `iters` iterations.
    pub fn d2h_bytes(&self, s: usize, iters: u64) -> u64 {
        self.d2h_fixed[s] + (self.d2h_per_iter * iters as f64).round() as u64
    }

    /// Device-memory footprint for slot `s` holding `iters` iterations'
    /// worth of aligned data plus its fixed mappings.
    pub fn alloc_bytes(&self, s: usize, iters: u64) -> u64 {
        self.alloc_fixed[s] + (self.alloc_per_iter * iters as f64).round() as u64
    }

    /// H2D bytes of *one chunk* of `iters` aligned iterations (no fixed
    /// part — that is paid once per device).
    pub fn h2d_chunk_bytes(&self, iters: u64) -> u64 {
        (self.h2d_per_iter * iters as f64).round() as u64
    }

    /// D2H bytes of one chunk.
    pub fn d2h_chunk_bytes(&self, iters: u64) -> u64 {
        (self.d2h_per_iter * iters as f64).round() as u64
    }

    /// Fixed H2D bytes of slot `s` (replicated + independent arrays +
    /// scalars).
    pub fn h2d_fixed_bytes(&self, s: usize) -> u64 {
        self.h2d_fixed[s]
    }

    /// Fixed D2H bytes of slot `s` (independent arrays + replicated
    /// ones + reduction partials).
    pub fn d2h_fixed_bytes(&self, s: usize) -> u64 {
        self.d2h_fixed[s]
    }

    /// Aligned H2D bytes per iteration.
    pub fn h2d_per_iter(&self) -> f64 {
        self.h2d_per_iter
    }

    /// Aligned D2H bytes per iteration.
    pub fn d2h_per_iter(&self) -> f64 {
        self.d2h_per_iter
    }

    /// Halo requirements (distributed-dimension ghost regions).
    pub fn halos(&self) -> &[HaloPlan] {
        &self.halos
    }

    /// Broadcast scalar bytes (part of every slot's fixed H2D/alloc).
    pub fn scalar_bytes(&self) -> u64 {
        self.scalar_bytes
    }

    /// Per-array attribution of the aggregate counters, in region map
    /// order.
    pub fn per_array(&self) -> &[ArrayCost] {
        &self.per_array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::OffloadRegion;
    use crate::sched::Algorithm;
    use homp_lang::MapDir;

    /// axpy_homp_v2: loop AUTO, x and y ALIGN(loop).
    fn axpy_v2(n: u64) -> OffloadRegion {
        OffloadRegion::builder("axpy")
            .trip_count(n)
            .devices(vec![0, 1, 2, 3])
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

    #[test]
    fn axpy_aligned_bytes_scale_with_iterations() {
        let plan = DataPlan::new(&axpy_v2(1000), 4).unwrap();
        // x (to) + y (tofrom) both 8 B/iter inbound; y 8 B/iter outbound.
        assert_eq!(plan.h2d_per_iter(), 16.0);
        assert_eq!(plan.d2h_per_iter(), 8.0);
        assert_eq!(plan.h2d_bytes(0, 250), 16 + 250 * 16);
        assert_eq!(plan.d2h_bytes(0, 250), 250 * 8);
        assert_eq!(plan.h2d_chunk_bytes(20), 320);
    }

    #[test]
    fn axpy_v1_loop_aligns_with_block_array() {
        // v1: x,y BLOCK; loop ALIGN(x). y becomes an independent BLOCK
        // root with fixed per-device bytes.
        let n = 1000u64;
        let r = OffloadRegion::builder("axpy")
            .trip_count(n)
            .devices(vec![0, 1, 2, 3])
            .map_1d("x", MapDir::To, n, 8, DistPolicy::Block)
            .map_1d("y", MapDir::ToFrom, n, 8, DistPolicy::Block)
            .align_loop_with("x", 1)
            .build();
        let plan = DataPlan::new(&r, 4).unwrap();
        // x is the loop's root → aligned (per-iter); y independent BLOCK.
        assert_eq!(plan.h2d_per_iter(), 8.0, "only x is loop-aligned");
        assert_eq!(plan.h2d_fixed_bytes(0), 250 * 8);
        assert_eq!(plan.d2h_fixed_bytes(0), 250 * 8);
        // Totals across devices equal whole arrays.
        let total_h2d: u64 = (0..4).map(|s| plan.h2d_bytes(s, 250)).sum();
        assert_eq!(total_h2d, 2 * n * 8);
    }

    #[test]
    fn replicated_array_costs_full_bytes_per_device() {
        let r = OffloadRegion::builder("mv")
            .trip_count(100)
            .devices(vec![0, 1])
            .map_1d("x", MapDir::To, 100, 8, DistPolicy::Full)
            .map_1d(
                "y",
                MapDir::From,
                100,
                8,
                DistPolicy::Align { target: "loop".into(), ratio: 1 },
            )
            .build();
        let plan = DataPlan::new(&r, 2).unwrap();
        assert_eq!(plan.h2d_fixed_bytes(0), 800);
        assert_eq!(plan.h2d_fixed_bytes(1), 800);
        assert_eq!(plan.d2h_per_iter(), 8.0);
        assert_eq!(plan.d2h_fixed_bytes(0), 0);
    }

    #[test]
    fn jacobi_style_2d_with_halo() {
        let (n, m) = (64u64, 32u64);
        let r = OffloadRegion::builder("jacobi")
            .loop_label("loop1")
            .trip_count(n)
            .devices(vec![0, 1, 2, 3])
            .map_2d(
                "f",
                MapDir::To,
                n,
                m,
                8,
                DistPolicy::Align { target: "loop1".into(), ratio: 1 },
                DistPolicy::Full,
                None,
            )
            .map_2d(
                "u",
                MapDir::ToFrom,
                n,
                m,
                8,
                DistPolicy::Align { target: "loop1".into(), ratio: 1 },
                DistPolicy::Full,
                None,
            )
            .map_2d(
                "uold",
                MapDir::Alloc,
                n,
                m,
                8,
                DistPolicy::Align { target: "loop1".into(), ratio: 1 },
                DistPolicy::Full,
                Some(1),
            )
            .build();
        let plan = DataPlan::new(&r, 4).unwrap();
        let row = m * 8;
        assert_eq!(plan.h2d_per_iter(), 2.0 * row as f64, "f + u rows in");
        assert_eq!(plan.d2h_per_iter(), row as f64, "u rows out");
        // alloc'd uold contributes to footprint but not to transfers.
        assert_eq!(plan.alloc_bytes(0, 16) - plan.alloc_bytes(0, 0), 16 * 3 * row);
        assert_eq!(plan.halos(), &[HaloPlan { array: "uold".into(), width: 1, slab_bytes: row }]);
    }

    #[test]
    fn extent_mismatch_detected() {
        let r = OffloadRegion::builder("bad")
            .trip_count(100)
            .devices(vec![0])
            .map_1d("x", MapDir::To, 50, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
            .build();
        match DataPlan::new(&r, 1) {
            Err(PlanError::ExtentMismatch { array, extent, expected }) => {
                assert_eq!(array, "x");
                assert_eq!(extent, 50);
                assert_eq!(expected, 100);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn align_ratio_scales_bytes() {
        // Each loop iteration covers 2 array elements (ratio 2).
        let r = OffloadRegion::builder("strided")
            .trip_count(100)
            .devices(vec![0])
            .map_1d("x", MapDir::To, 200, 8, DistPolicy::Align { target: "loop".into(), ratio: 2 })
            .build();
        let plan = DataPlan::new(&r, 1).unwrap();
        assert_eq!(plan.h2d_per_iter(), 16.0);
    }

    #[test]
    fn auto_on_array_rejected() {
        let r = OffloadRegion::builder("bad")
            .trip_count(10)
            .devices(vec![0])
            .map_1d("x", MapDir::To, 10, 8, DistPolicy::Auto)
            .build();
        match DataPlan::new(&r, 1) {
            Err(PlanError::AutoOnArray(a)) => assert_eq!(a, "x"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn two_distributed_dims_rejected() {
        let r = OffloadRegion::builder("bad")
            .trip_count(10)
            .devices(vec![0])
            .map_2d("u", MapDir::To, 10, 10, 8, DistPolicy::Block, DistPolicy::Block, None)
            .build();
        match DataPlan::new(&r, 1) {
            Err(PlanError::MultipleDistributedDims(a)) => assert_eq!(a, "u"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn per_array_attribution_sums_to_aggregates() {
        let n = 1000u64;
        let r = OffloadRegion::builder("mixed")
            .trip_count(n)
            .devices(vec![0, 1, 2, 3])
            .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
            .map_1d(
                "y",
                MapDir::ToFrom,
                n,
                8,
                DistPolicy::Align { target: "loop".into(), ratio: 1 },
            )
            .map_1d("c", MapDir::To, 64, 8, DistPolicy::Full)
            .scalars(24)
            .build();
        let plan = DataPlan::new(&r, 4).unwrap();
        assert_eq!(plan.scalar_bytes(), 24);
        let costs = plan.per_array();
        assert_eq!(costs.len(), 3);
        // Rebuild slot 1's fixed H2D from parts: scalars + replicated c.
        let mut fixed = plan.scalar_bytes();
        let mut per_iter = 0.0;
        for c in costs {
            match &c.kind {
                ArrayCostKind::Replicated => {
                    if c.copies_in {
                        fixed += c.total_bytes;
                    }
                }
                ArrayCostKind::LoopAligned { bytes_per_iter } => {
                    if c.copies_in {
                        per_iter += bytes_per_iter;
                    }
                }
                ArrayCostKind::Independent { per_slot } => {
                    if c.copies_in {
                        fixed += per_slot[1];
                    }
                }
            }
        }
        assert_eq!(fixed, plan.h2d_fixed_bytes(1));
        assert_eq!(per_iter, plan.h2d_per_iter());
    }

    /// Every size `DataPlan::new` derives is checked: whole-array and
    /// slab bytes, extent × ratio on both sides of the alignment check,
    /// and each slot's fixed sums.
    #[test]
    fn sizes_that_overflow_u64_are_typed_errors() {
        use DistPolicy::{Block, Full};
        let aligned = |ratio| DistPolicy::Align { target: "loop".into(), ratio };
        let plan = |b: crate::offload::OffloadRegionBuilder, trip: u64| {
            let mut r = b.devices(vec![0, 1]).trip_count(1).build();
            r.trip_count = trip;
            DataPlan::new(&r, 2).map(|_| ())
        };
        let overflow = |a: &str| Err(PlanError::Overflow(a.into()));
        let big = 1u64 << 32;
        // Whole array: 2^32 × 2^32 × 8 bytes, loop-aligned and replicated.
        let matrix = |rows, cols, policy| {
            OffloadRegion::builder("t").map_2d("A", MapDir::To, rows, cols, 8, policy, Full, None)
        };
        assert_eq!(plan(matrix(big, big, aligned(1)), big), overflow("A"));
        assert_eq!(plan(matrix(big, big, Full), 10), overflow("A"));
        // Slab: an empty first dimension, 2^62 × 8 bytes per index.
        assert_eq!(plan(matrix(0, 1 << 62, Block), 10), overflow("A"));
        // trip × ratio and extent × loop ratio.
        let b = OffloadRegion::builder("t").map_1d("x", MapDir::To, 1 << 62, 1, aligned(8));
        assert_eq!(plan(b, 1 << 62), overflow("x"));
        let b = OffloadRegion::builder("t")
            .map_1d("x", MapDir::To, 1 << 62, 1, Block)
            .align_loop_with("x", 8);
        assert_eq!(plan(b, 1 << 62), overflow("x"));
        // A slot's sums: two 2^63-byte replicated arrays, and scalars
        // plus one.
        let b = OffloadRegion::builder("t").map_1d("a", MapDir::To, 1 << 60, 8, Full).map_1d(
            "b",
            MapDir::Alloc,
            1 << 60,
            8,
            Full,
        );
        assert_eq!(plan(b, 10), overflow("b"));
        let b = OffloadRegion::builder("t").map_1d("a", MapDir::From, 1 << 60, 8, Full);
        assert_eq!(plan(b.scalars(1 << 63), 10), overflow("a"));
        // The same sizes one bit smaller plan.
        let b = OffloadRegion::builder("t").map_1d("a", MapDir::To, 1 << 59, 8, Full).map_1d(
            "b",
            MapDir::Alloc,
            1 << 59,
            8,
            Full,
        );
        assert_eq!(plan(b, 10), Ok(()));
    }

    #[test]
    fn scalars_broadcast_to_every_device() {
        let plan = DataPlan::new(&axpy_v2(1000), 4).unwrap();
        for s in 0..4 {
            assert_eq!(plan.h2d_bytes(s, 0), 16);
        }
    }
}
