//! Kernel pipelines: chains of offload stages with chunk-level
//! producer→consumer dependencies.
//!
//! HOMP's schedulers already overlap DMA and compute *within* one
//! offload, but the classic entry points end every region at a barrier,
//! so multi-kernel workloads (Jacobi's sweep → residual, stencil → sum)
//! serialize at region boundaries. A [`Pipeline`] removes that barrier:
//! each stage is an ordinary [`OffloadRegion`] whose maps (or explicit
//! `depend(in:…)`/`depend(out:…)` lists) declare the data it reads and
//! writes, and the runtime computes chunk-level edges from the existing
//! partition geometry — a consumer chunk dispatches the moment the
//! producer chunks covering its (halo-dilated) read window complete,
//! on the engine's un-reset calendars, as the multi-tenant serve layer
//! dispatches onto them.
//!
//! Degenerate case: a pipeline in which **no** stage is `nowait` runs
//! each stage through the classic reset-at-zero offload path and is
//! byte-identical (traces included) to back-to-back
//! [`Runtime::offload`](crate::Runtime::offload) calls.
//!
//! ```
//! use homp_core::{Algorithm, FnPipelineKernel, OffloadRegion, Pipeline, Runtime};
//! use homp_lang::{DistPolicy, MapDir};
//! use homp_sim::Machine;
//!
//! let n = 40_000u64;
//! let devices: Vec<u32> = vec![0, 1, 2, 3];
//! let sweep = OffloadRegion::builder("sweep")
//!     .trip_count(n)
//!     .devices(devices.clone())
//!     .algorithm(Algorithm::Block)
//!     .map_1d("u", MapDir::To, n, 8, DistPolicy::Block)
//!     .map_1d("unew", MapDir::ToFrom, n, 8, DistPolicy::Block)
//!     .build();
//! let resid = OffloadRegion::builder("resid")
//!     .trip_count(n)
//!     .devices(devices)
//!     .algorithm(Algorithm::Block)
//!     .map_1d("unew", MapDir::To, n, 8, DistPolicy::Block)
//!     .map_1d("r", MapDir::From, n, 8, DistPolicy::Block)
//!     .build();
//! let pipe = Pipeline::builder("jacobi-step")
//!     .then(sweep)
//!     .nowait()
//!     .then(resid)
//!     .build();
//! let mut kernel = FnPipelineKernel::new(
//!     vec![homp_kernels_intensity(), homp_kernels_intensity()],
//!     |_stage, _range| {},
//! );
//! # use homp_model::KernelIntensity;
//! # fn homp_kernels_intensity() -> KernelIntensity {
//! #     KernelIntensity { flops_per_iter: 4.0, mem_elems_per_iter: 3.0,
//! #                       data_elems_per_iter: 2.0, elem_bytes: 8.0 }
//! # }
//! let mut rt = Runtime::new(Machine::four_k40(), 42);
//! let report = rt.offload_pipeline(&pipe, &mut kernel).unwrap();
//! assert!(report.overlapped);
//! assert_eq!(report.stages.len(), 2);
//! ```

use crate::offload::OffloadRegion;
use crate::region::Range;
use crate::runtime::{LoopKernel, OffloadReport};
use homp_model::KernelIntensity;
use homp_sim::{SimSpan, SimTime, Trace};

/// How each stage's per-device share is divided into pipeline chunks —
/// the granularity at which completion events flow to the next stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkingPolicy {
    /// One chunk per participating device (coarsest: a consumer chunk
    /// waits for whole producer device-shares).
    PerDevice,
    /// Each device's share is block-split into `k` chunks, so
    /// downstream stages start after `1/k` of a producer share lands.
    PerDeviceChunks(u32),
}

impl ChunkingPolicy {
    /// Number of chunks a single device share is split into.
    pub fn chunks_per_device(&self) -> u32 {
        match *self {
            ChunkingPolicy::PerDevice => 1,
            ChunkingPolicy::PerDeviceChunks(k) => k.max(1),
        }
    }
}

/// An ordered chain of offload stages with inter-stage chunk
/// dependencies. Build with [`Pipeline::builder`]; run with
/// [`Runtime::offload_pipeline`](crate::Runtime::offload_pipeline).
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Pipeline name, used for trace labels.
    pub name: String,
    /// The stages, in execution order. Each stage's
    /// [`OffloadRegion::nowait`] flag says whether the *next* stage may
    /// consume its chunks before the stage completes.
    pub stages: Vec<OffloadRegion>,
    /// Chunk granularity for the overlapped executor.
    pub chunking: ChunkingPolicy,
}

impl Pipeline {
    /// Start building a pipeline.
    pub fn builder(name: impl Into<String>) -> PipelineBuilder {
        PipelineBuilder {
            name: name.into(),
            stages: Vec::new(),
            chunking: ChunkingPolicy::PerDeviceChunks(4),
        }
    }

    /// Whether any stage is `nowait` — i.e. the overlapped executor
    /// (rather than the barrier-per-stage classic path) will run it.
    pub fn overlapped(&self) -> bool {
        self.stages.iter().any(|s| s.nowait)
    }
}

/// Builder for [`Pipeline`] — the same vocabulary as the offload
/// builder: `.then(region)` appends a stage, `.nowait()` /
/// `.depend(…)` annotate the stage just appended.
#[derive(Debug, Clone)]
#[must_use = "a PipelineBuilder does nothing until .build()"]
pub struct PipelineBuilder {
    name: String,
    stages: Vec<OffloadRegion>,
    chunking: ChunkingPolicy,
}

impl PipelineBuilder {
    /// Append a stage. The region may already carry `nowait`/`depend`
    /// annotations (e.g. lowered from directives by
    /// [`compile`](crate::compile())).
    pub fn then(mut self, region: OffloadRegion) -> Self {
        self.stages.push(region);
        self
    }

    /// Mark the last appended stage `nowait`: the next stage's chunks
    /// launch as soon as the producer chunks they read complete.
    ///
    /// # Panics
    /// Panics when no stage has been appended yet.
    pub fn nowait(mut self) -> Self {
        self.stages.last_mut().expect("nowait() needs a stage — call then() first").nowait = true;
        self
    }

    /// Give the last appended stage explicit dependency lists,
    /// overriding map-direction inference: `ins` are the arrays the
    /// stage reads, `outs` the arrays it writes.
    ///
    /// # Panics
    /// Panics when no stage has been appended yet.
    pub fn depend(mut self, ins: &[&str], outs: &[&str]) -> Self {
        let stage = self.stages.last_mut().expect("depend() needs a stage — call then() first");
        stage.depends_in.extend(ins.iter().map(|s| s.to_string()));
        stage.depends_out.extend(outs.iter().map(|s| s.to_string()));
        self
    }

    /// Set the chunk granularity (default: 4 chunks per device).
    pub fn chunking(mut self, c: ChunkingPolicy) -> Self {
        self.chunking = c;
        self
    }

    /// Finish.
    ///
    /// # Panics
    /// Panics on an empty pipeline.
    pub fn build(self) -> Pipeline {
        assert!(!self.stages.is_empty(), "pipeline needs at least one stage");
        Pipeline { name: self.name, stages: self.stages, chunking: self.chunking }
    }
}

/// A multi-stage kernel: one object dispatched by stage index, so a
/// single `&mut` can execute every stage even when stages share
/// intermediate arrays (two per-stage closures could not both borrow
/// the shared array mutably).
pub trait PipelineKernel {
    /// Arithmetic intensity of stage `stage`.
    fn intensity(&self, stage: usize) -> KernelIntensity;
    /// Execute iterations `range` of stage `stage`. Called only after
    /// the simulated operations succeeded — exactly once per iteration
    /// per stage, faults or not.
    fn execute(&mut self, stage: usize, range: Range);
}

/// A [`PipelineKernel`] from per-stage intensities and one closure
/// receiving `(stage, range)`.
pub struct FnPipelineKernel<F: FnMut(usize, Range)> {
    intensities: Vec<KernelIntensity>,
    f: F,
}

impl<F: FnMut(usize, Range)> FnPipelineKernel<F> {
    /// One intensity per stage; `f(stage, range)` does the arithmetic.
    pub fn new(intensities: Vec<KernelIntensity>, f: F) -> Self {
        FnPipelineKernel { intensities, f }
    }
}

impl<F: FnMut(usize, Range)> PipelineKernel for FnPipelineKernel<F> {
    fn intensity(&self, stage: usize) -> KernelIntensity {
        self.intensities[stage]
    }

    fn execute(&mut self, stage: usize, range: Range) {
        (self.f)(stage, range)
    }
}

/// Adapter presenting one stage of a [`PipelineKernel`] as a classic
/// [`LoopKernel`] — the barrier-mode executor and the host-fallback
/// path both run stages through this.
pub(crate) struct StageKernel<'a> {
    pub inner: &'a mut dyn PipelineKernel,
    pub stage: usize,
}

impl LoopKernel for StageKernel<'_> {
    fn intensity(&self) -> KernelIntensity {
        self.inner.intensity(self.stage)
    }

    fn execute(&mut self, range: Range) {
        self.inner.execute(self.stage, range)
    }
}

/// One array linking a producer stage to the consumer stage after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLink {
    /// Array name (present in the producer's writes and the consumer's
    /// reads).
    pub array: String,
    /// Halo width on the distributed dimension (max of both maps'
    /// declared widths): a consumer chunk's read window is dilated by
    /// this before intersecting producer chunks.
    pub halo: u64,
    /// The consumer reads the array undistributed (FULL partition, or
    /// named in `depend(in:…)` without a map): every producer chunk is
    /// a dependency.
    pub full: bool,
}

/// Compute the arrays linking `prev` (producer) to `next` (consumer):
/// the intersection of `prev`'s writes and `next`'s reads. Writes
/// default to `from`/`tofrom` maps, reads to `to`/`tofrom` maps; a
/// non-empty `depend(out:…)` / `depend(in:…)` list overrides the
/// respective side (so an `alloc`-mapped intermediate can still carry a
/// dependency).
pub fn stage_links(prev: &OffloadRegion, next: &OffloadRegion) -> Vec<StageLink> {
    let writes: Vec<&str> = if prev.depends_out.is_empty() {
        prev.arrays.iter().filter(|a| a.copies_out()).map(|a| a.name.as_str()).collect()
    } else {
        prev.depends_out.iter().map(String::as_str).collect()
    };
    let reads: Vec<&str> = if next.depends_in.is_empty() {
        next.arrays.iter().filter(|a| a.copies_in()).map(|a| a.name.as_str()).collect()
    } else {
        next.depends_in.iter().map(String::as_str).collect()
    };
    let mut links = Vec::new();
    for name in writes {
        if !reads.contains(&name) || links.iter().any(|l: &StageLink| l.array == name) {
            continue;
        }
        let cmap = next.array(name);
        let pmap = prev.array(name);
        let full = cmap.is_none_or(|m| m.distributed_dim().is_none());
        let halo_of = |m: Option<&crate::offload::ArrayMap>| {
            m.and_then(|m| m.distributed_dim().and_then(|d| m.halo.get(d).copied().flatten()))
                .unwrap_or(0)
        };
        links.push(StageLink {
            array: name.to_string(),
            halo: halo_of(pmap).max(halo_of(cmap)),
            full,
        });
    }
    links
}

/// Map a consumer chunk's iteration range into the producer stage's
/// iteration space and dilate it by the link halo: the window of
/// producer iterations the chunk reads. Trip counts may differ (the
/// ranges scale proportionally, the ALIGN-ratio-1 case); the result is
/// clamped to `[0, producer_trip)`.
pub fn producer_window(chunk: Range, consumer_trip: u64, producer_trip: u64, halo: u64) -> Range {
    if consumer_trip == 0 || chunk.is_empty() {
        return Range::EMPTY;
    }
    let scale = |i: u64, round_up: bool| -> u64 {
        let prod = i as u128 * producer_trip as u128;
        let div = consumer_trip as u128;
        let q = if round_up { prod.div_ceil(div) } else { prod / div };
        q.min(producer_trip as u128) as u64
    };
    let scaled = Range::new(scale(chunk.start, false), scale(chunk.end, true));
    scaled.dilate(halo, producer_trip)
}

/// Block-split per-slot iteration counts into pipeline chunks:
/// `(slot, range)` pairs in slot-major order, each slot's contiguous
/// share divided into `policy.chunks_per_device()` near-equal pieces
/// (empty pieces are dropped).
pub fn stage_chunks(counts: &[u64], policy: ChunkingPolicy) -> Vec<(usize, Range)> {
    let k = policy.chunks_per_device() as u64;
    let mut chunks = Vec::new();
    let mut offset = 0u64;
    for (slot, &count) in counts.iter().enumerate() {
        let mut cursor = offset;
        for j in 0..k {
            let len = count / k + u64::from(j < count % k);
            if len > 0 {
                chunks.push((slot, Range::new(cursor, cursor + len)));
                cursor += len;
            }
        }
        offset += count;
    }
    chunks
}

/// Result of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Pipeline name.
    pub name: String,
    /// Whether the overlapped executor ran (any stage `nowait`);
    /// `false` means the barrier-per-stage classic path ran each stage.
    pub overlapped: bool,
    /// Per-stage reports. In barrier mode these are the classic
    /// offload reports, traces included; in overlapped mode each
    /// carries its stage's counts, decisions and fault summary while
    /// the combined trace lives in [`PipelineReport::trace`].
    pub stages: Vec<OffloadReport>,
    /// End-to-end virtual time of the whole pipeline.
    pub makespan: SimSpan,
    /// Absolute virtual instant the last stage completed.
    pub completed_at: SimTime,
    /// Sum of the per-stage makespans — what the same stages cost run
    /// back-to-back with barriers. `makespan` < `barrier_sum` is the
    /// measured inter-stage overlap.
    pub barrier_sum: SimSpan,
    /// Total idle gap at stage boundaries: for each adjacent pair, the
    /// time from the producer's last kernel completion to the
    /// consumer's first kernel start (clamped at zero). Shrinks toward
    /// zero as chunk-level overlap kicks in.
    pub boundary_idle: SimSpan,
    /// Combined operation trace. Empty in barrier mode (each stage
    /// report carries its own trace).
    pub trace: Trace,
}

impl PipelineReport {
    /// End-to-end pipeline time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.makespan.as_millis()
    }

    /// Virtual time saved vs running the stages back-to-back with
    /// barriers (zero when nothing overlapped).
    pub fn overlap(&self) -> SimSpan {
        SimSpan::from_secs((self.barrier_sum.as_secs() - self.makespan.as_secs()).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use homp_lang::{DistPolicy, MapDir};

    fn region(name: &str, n: u64, maps: &[(&str, MapDir)]) -> OffloadRegion {
        let mut b = OffloadRegion::builder(name)
            .trip_count(n)
            .devices(vec![0, 1])
            .algorithm(Algorithm::Block);
        for (arr, dir) in maps {
            b = b.map_1d(*arr, *dir, n, 8, DistPolicy::Block);
        }
        b.build()
    }

    #[test]
    fn links_from_map_directions() {
        let a = region("a", 100, &[("x", MapDir::To), ("y", MapDir::ToFrom)]);
        let b = region("b", 100, &[("y", MapDir::To), ("z", MapDir::From)]);
        let links = stage_links(&a, &b);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].array, "y");
        assert!(!links[0].full);
        assert_eq!(links[0].halo, 0);
    }

    #[test]
    fn depend_lists_override_map_inference() {
        // `scratch` is alloc-mapped (copies neither way) on both sides:
        // invisible to map inference, explicit through depend lists.
        let mut a = region("a", 100, &[("scratch", MapDir::Alloc)]);
        a.depends_out = vec!["scratch".into()];
        let mut b = region("b", 100, &[("scratch", MapDir::Alloc), ("out", MapDir::From)]);
        b.depends_in = vec!["scratch".into()];
        let links = stage_links(&a, &b);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].array, "scratch");
    }

    #[test]
    fn full_partition_read_depends_on_everything() {
        let a = region("a", 100, &[("y", MapDir::From)]);
        let mut b = OffloadRegion::builder("b")
            .trip_count(100)
            .devices(vec![0, 1])
            .map_1d("y", MapDir::To, 100, 8, DistPolicy::Full)
            .build();
        b.depends_in.clear();
        let links = stage_links(&a, &b);
        assert_eq!(links.len(), 1);
        assert!(links[0].full);
    }

    #[test]
    fn halo_width_comes_from_either_side() {
        let mut a = region("a", 100, &[("u", MapDir::From)]);
        a.arrays[0].halo = vec![Some(2)];
        let b = region("b", 100, &[("u", MapDir::To)]);
        let links = stage_links(&a, &b);
        assert_eq!(links[0].halo, 2);
    }

    #[test]
    fn producer_window_scales_and_dilates() {
        // Same trip counts: identity plus halo dilation.
        assert_eq!(producer_window(Range::new(10, 20), 100, 100, 0), Range::new(10, 20));
        assert_eq!(producer_window(Range::new(10, 20), 100, 100, 1), Range::new(9, 21));
        // Clamped at the ends.
        assert_eq!(producer_window(Range::new(0, 5), 100, 100, 3), Range::new(0, 8));
        // 2:1 trip ratio.
        assert_eq!(producer_window(Range::new(10, 20), 100, 200, 0), Range::new(20, 40));
        assert_eq!(producer_window(Range::new(10, 20), 200, 100, 0), Range::new(5, 10));
        // Rounding covers partial producer iterations.
        assert_eq!(producer_window(Range::new(1, 2), 3, 10, 0), Range::new(3, 7));
    }

    #[test]
    fn stage_chunks_partition_each_share() {
        let chunks = stage_chunks(&[10, 7, 0], ChunkingPolicy::PerDeviceChunks(3));
        let total: u64 = chunks.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 17);
        // Slot-major, contiguous, no empties.
        assert_eq!(chunks[0], (0, Range::new(0, 4)));
        assert_eq!(chunks[1], (0, Range::new(4, 7)));
        assert_eq!(chunks[2], (0, Range::new(7, 10)));
        assert_eq!(chunks[3], (1, Range::new(10, 13)));
        assert!(chunks.iter().all(|(_, r)| !r.is_empty()));
        let per_dev = stage_chunks(&[10, 7], ChunkingPolicy::PerDevice);
        assert_eq!(per_dev.len(), 2);
        assert_eq!(per_dev[1], (1, Range::new(10, 17)));
    }

    #[test]
    fn builder_vocabulary() {
        let a = region("a", 100, &[("y", MapDir::From)]);
        let b = region("b", 100, &[("y", MapDir::To)]);
        let p = Pipeline::builder("p")
            .then(a)
            .nowait()
            .depend(&[], &["y"])
            .then(b)
            .depend(&["y"], &[])
            .chunking(ChunkingPolicy::PerDevice)
            .build();
        assert!(p.overlapped());
        assert!(p.stages[0].nowait);
        assert_eq!(p.stages[0].depends_out, ["y"]);
        assert_eq!(p.stages[1].depends_in, ["y"]);
        assert!(!p.stages[1].nowait);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let _ = Pipeline::builder("p").build();
    }
}
