//! Offload region descriptors.
//!
//! An [`OffloadRegion`] is the lowered, concrete form of a HOMP
//! directive pair (the `parallel target … map(…)` data directive plus
//! the `parallel for distribute dist_schedule(…)` loop directive): every
//! expression evaluated, every policy resolved to a concrete enum. The
//! paper's compiler produces the equivalent `homp_offloading_info`
//! object; here a builder API constructs it directly, and
//! [`mod@crate::compile`] lowers parsed directives into it.

use crate::sched::Algorithm;
use homp_lang::{DistPolicy, MapDir};
use homp_sim::{DeviceId, TeamSched};

/// One mapped array, fully concrete.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayMap {
    /// Source-level variable name; doubles as the alignment-graph node
    /// name.
    pub name: String,
    /// Mapping direction.
    pub dir: MapDir,
    /// Extent of each dimension, outermost first.
    pub dims: Vec<u64>,
    /// Element size in bytes (8 for the paper's `REAL`).
    pub elem_bytes: u64,
    /// Per-dimension distribution policy (must match `dims` length).
    pub partition: Vec<DistPolicy>,
    /// Per-dimension halo widths.
    pub halo: Vec<Option<u64>>,
}

impl ArrayMap {
    /// Total bytes of the whole array; `None` when the count exceeds
    /// `u64`.
    pub fn total_bytes(&self) -> Option<u64> {
        checked_bytes(self.elem_bytes, &self.dims, None)
    }

    /// Index of the (single) non-FULL dimension, if any. HOMP allows one
    /// distributed dimension per array in this implementation.
    pub fn distributed_dim(&self) -> Option<usize> {
        self.partition.iter().position(|p| !matches!(p, DistPolicy::Full))
    }

    /// Bytes per index of dimension `dim` (the "row" size): the product
    /// of all other dimensions times the element size; `None` when it
    /// exceeds `u64`.
    pub fn slab_bytes(&self, dim: usize) -> Option<u64> {
        checked_bytes(self.elem_bytes, &self.dims, Some(dim))
    }

    /// Whether the mapping copies data host→device before the region.
    pub fn copies_in(&self) -> bool {
        matches!(self.dir, MapDir::To | MapDir::ToFrom)
    }

    /// Whether the mapping copies data device→host after the region.
    pub fn copies_out(&self) -> bool {
        matches!(self.dir, MapDir::From | MapDir::ToFrom)
    }
}

/// `elem_bytes` times every extent in `dims` but `skip`, exactly: a zero
/// factor anywhere makes it zero, however large the others.
fn checked_bytes(elem_bytes: u64, dims: &[u64], skip: Option<usize>) -> Option<u64> {
    let mut factors = dims.iter().enumerate().filter(|&(i, _)| Some(i) != skip).map(|(_, &d)| d);
    if elem_bytes == 0 || factors.clone().any(|d| d == 0) {
        return Some(0);
    }
    factors.try_fold(elem_bytes, u64::checked_mul)
}

/// A lowered offload region.
#[derive(Debug, Clone)]
pub struct OffloadRegion {
    /// Kernel name, used for trace labels.
    pub name: String,
    /// Label of the distributed loop (the `ALIGN` target name).
    pub loop_label: String,
    /// Outer-loop trip count — the space the distribution divides.
    pub trip_count: u64,
    /// Distribution algorithm for the loop.
    pub algorithm: Algorithm,
    /// Devices participating (before CUTOFF).
    pub devices: Vec<DeviceId>,
    /// Mapped arrays.
    pub arrays: Vec<ArrayMap>,
    /// Whether offloading to the targets happens concurrently
    /// (`parallel target`) or serialized (plain multi-device `target`).
    pub parallel_offload: bool,
    /// Loop-level `ALIGN` target when the schedule is
    /// `dist_schedule(target:[ALIGN(x)])` — the loop copies array `x`'s
    /// distribution instead of running an algorithm.
    pub loop_align: Option<(String, u64)>,
    /// Bytes of scalar firstprivate data broadcast per device (`a`, `n`).
    pub scalar_bytes: u64,
    /// Bytes of the `reduction(...)` variables: each device that runs
    /// iterations copies its partial result back.
    pub reduction_bytes: u64,
    /// Within-device team scheduling (`dist_schedule(teams: …)`).
    pub team_sched: TeamSched,
    /// Optional relative cost of iteration `i` (1.0 = uniform). Models
    /// irregular loops, the motivation for dynamic chunking (§IV-A.2);
    /// the mean over `[0, trip)` should be ≈1 so intensity stays
    /// calibrated.
    pub cost_profile: Option<fn(u64) -> f64>,
    /// `nowait`: in a [`crate::pipeline::Pipeline`] the stage does not
    /// end at a barrier — downstream stages may consume its chunks as
    /// they complete. Ignored by the classic single-region entry points.
    pub nowait: bool,
    /// Explicit `depend(in: …)` array names. When non-empty they
    /// override the map-direction inference (`to`/`tofrom`) used to
    /// compute inter-stage pipeline edges.
    pub depends_in: Vec<String>,
    /// Explicit `depend(out: …)` array names. When non-empty they
    /// override the map-direction inference (`from`/`tofrom`).
    pub depends_out: Vec<String>,
}

impl OffloadRegion {
    /// Start building a region.
    pub fn builder(name: impl Into<String>) -> OffloadRegionBuilder {
        OffloadRegionBuilder {
            region: OffloadRegion {
                name: name.into(),
                loop_label: "loop".into(),
                trip_count: 0,
                algorithm: Algorithm::Block,
                devices: Vec::new(),
                arrays: Vec::new(),
                parallel_offload: true,
                loop_align: None,
                scalar_bytes: 0,
                reduction_bytes: 0,
                team_sched: TeamSched::Aggregate,
                cost_profile: None,
                nowait: false,
                depends_in: Vec::new(),
                depends_out: Vec::new(),
            },
        }
    }

    /// Find a mapped array by name.
    pub fn array(&self, name: &str) -> Option<&ArrayMap> {
        self.arrays.iter().find(|a| a.name == name)
    }
}

/// Builder for [`OffloadRegion`].
#[derive(Debug, Clone)]
pub struct OffloadRegionBuilder {
    region: OffloadRegion,
}

impl OffloadRegionBuilder {
    /// Set the loop label used as ALIGN target (default `"loop"`).
    pub fn loop_label(mut self, label: impl Into<String>) -> Self {
        self.region.loop_label = label.into();
        self
    }

    /// Set the outer-loop trip count.
    pub fn trip_count(mut self, n: u64) -> Self {
        self.region.trip_count = n;
        self
    }

    /// Set the distribution algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.region.algorithm = a;
        self
    }

    /// Align the loop with a mapped array's distribution
    /// (`dist_schedule(target:[ALIGN(x)])`).
    pub fn align_loop_with(mut self, array: impl Into<String>, ratio: u64) -> Self {
        self.region.loop_align = Some((array.into(), ratio));
        self
    }

    /// Set the participating devices.
    pub fn devices(mut self, d: Vec<DeviceId>) -> Self {
        self.region.devices = d;
        self
    }

    /// Serialized (non-concurrent) offloading to the targets.
    pub fn serialized_offload(mut self) -> Self {
        self.region.parallel_offload = false;
        self
    }

    /// Add a 1-D mapped array.
    pub fn map_1d(
        self,
        name: impl Into<String>,
        dir: MapDir,
        len: u64,
        elem_bytes: u64,
        policy: DistPolicy,
    ) -> Self {
        self.map_array(ArrayMap {
            name: name.into(),
            dir,
            dims: vec![len],
            elem_bytes,
            partition: vec![policy],
            halo: vec![None],
        })
    }

    /// Add a 2-D mapped array with per-dimension policies.
    #[allow(clippy::too_many_arguments)]
    pub fn map_2d(
        self,
        name: impl Into<String>,
        dir: MapDir,
        rows: u64,
        cols: u64,
        elem_bytes: u64,
        row_policy: DistPolicy,
        col_policy: DistPolicy,
        halo_rows: Option<u64>,
    ) -> Self {
        self.map_array(ArrayMap {
            name: name.into(),
            dir,
            dims: vec![rows, cols],
            elem_bytes,
            partition: vec![row_policy, col_policy],
            halo: vec![halo_rows, None],
        })
    }

    /// Add a fully-specified array map.
    pub fn map_array(mut self, a: ArrayMap) -> Self {
        assert_eq!(a.dims.len(), a.partition.len(), "one policy per dimension");
        assert_eq!(a.dims.len(), a.halo.len(), "one halo entry per dimension");
        self.region.arrays.push(a);
        self
    }

    /// Account scalar (firstprivate) bytes broadcast to each device.
    pub fn scalars(mut self, bytes: u64) -> Self {
        self.region.scalar_bytes = bytes;
        self
    }

    /// Account reduction-variable bytes each device copies back
    /// (`reduction(+:error)`).
    pub fn reduction(mut self, bytes: u64) -> Self {
        self.region.reduction_bytes = bytes;
        self
    }

    /// Set the within-device team scheduling policy
    /// (`dist_schedule(teams: …)`).
    pub fn team_sched(mut self, t: TeamSched) -> Self {
        self.region.team_sched = t;
        self
    }

    /// Give iterations non-uniform cost (see
    /// [`OffloadRegion::cost_profile`]).
    pub fn cost_profile(mut self, f: fn(u64) -> f64) -> Self {
        self.region.cost_profile = Some(f);
        self
    }

    /// Mark the region `nowait` (see [`OffloadRegion::nowait`]).
    pub fn nowait(mut self) -> Self {
        self.region.nowait = true;
        self
    }

    /// Name an explicit `depend(in: …)` array (may be called repeatedly).
    pub fn depend_in(mut self, name: impl Into<String>) -> Self {
        self.region.depends_in.push(name.into());
        self
    }

    /// Name an explicit `depend(out: …)` array (may be called repeatedly).
    pub fn depend_out(mut self, name: impl Into<String>) -> Self {
        self.region.depends_out.push(name.into());
        self
    }

    /// Finish. A region without devices or iterations builds: the
    /// runtime refuses the first with [`crate::OffloadError::NoDevices`]
    /// and runs the second as an empty loop.
    pub fn build(self) -> OffloadRegion {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_axpy_v1() {
        let r = OffloadRegion::builder("axpy")
            .trip_count(1000)
            .devices(vec![0, 1, 2, 3])
            .map_1d("x", MapDir::To, 1000, 8, DistPolicy::Block)
            .map_1d("y", MapDir::ToFrom, 1000, 8, DistPolicy::Block)
            .align_loop_with("x", 1)
            .scalars(16)
            .build();
        assert_eq!(r.arrays.len(), 2);
        assert_eq!(r.array("y").unwrap().dir, MapDir::ToFrom);
        assert_eq!(r.loop_align, Some(("x".into(), 1)));
        assert!(r.parallel_offload);
    }

    #[test]
    fn array_map_geometry() {
        let a = ArrayMap {
            name: "u".into(),
            dir: MapDir::ToFrom,
            dims: vec![100, 50],
            elem_bytes: 8,
            partition: vec![DistPolicy::Block, DistPolicy::Full],
            halo: vec![Some(1), None],
        };
        assert_eq!(a.total_bytes(), Some(100 * 50 * 8));
        assert_eq!(a.distributed_dim(), Some(0));
        assert_eq!(a.slab_bytes(0), Some(50 * 8));
        assert_eq!(a.slab_bytes(1), Some(100 * 8));
        assert!(a.copies_in());
        assert!(a.copies_out());
    }

    #[test]
    fn byte_counts_past_u64_are_none() {
        let a = |dims: Vec<u64>, elem_bytes| ArrayMap {
            name: "a".into(),
            dir: MapDir::To,
            partition: vec![DistPolicy::Full; dims.len()],
            halo: vec![None; dims.len()],
            dims,
            elem_bytes,
        };
        let square = a(vec![1 << 32, 1 << 32], 8);
        assert_eq!(square.total_bytes(), None);
        assert_eq!(square.slab_bytes(1), Some(1 << 35));
        assert_eq!(a(vec![1 << 32, 1 << 32], 1).total_bytes(), None);
        assert_eq!(a(vec![1 << 31, 1 << 32], 1).total_bytes(), Some(1 << 63));
        // A zero factor makes the exact product zero, however large the
        // others.
        let empty = a(vec![1 << 40, 1 << 40, 0], 8);
        assert_eq!(empty.total_bytes(), Some(0));
        assert_eq!(empty.slab_bytes(2), None);
        assert_eq!(a(vec![1 << 40, 1 << 40], 0).total_bytes(), Some(0));
    }

    #[test]
    fn fully_replicated_array_has_no_distributed_dim() {
        let a = ArrayMap {
            name: "f".into(),
            dir: MapDir::To,
            dims: vec![10, 10],
            elem_bytes: 8,
            partition: vec![DistPolicy::Full, DistPolicy::Full],
            halo: vec![None, None],
        };
        assert_eq!(a.distributed_dim(), None);
    }
}
