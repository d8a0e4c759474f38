//! The HOMP runtime core — the paper's primary contribution.
//!
//! HOMP ("Hybrid OpenMP", Yan et al., IPPS 2017) automates the
//! distribution of a parallel loop *and the data it touches* across all
//! computational devices of a heterogeneous node. This crate implements
//! the runtime half of the system on top of the `homp-sim` substrate:
//!
//! * [`region`] / [`dist`] — iteration ranges and the FULL/BLOCK/AUTO
//!   distributions of Table I;
//! * [`align`] — the ALIGN policy: binding array subregions to loop
//!   chunks through an alignment graph with root re-linking;
//! * [`map`] — data-movement planning (copy only what each device
//!   needs);
//! * [`sched`] — the seven loop-distribution algorithms of Table II plus
//!   CUTOFF device selection;
//! * [`runtime`] — the per-device proxy execution model of Fig. 4 over
//!   the deterministic simulator, with real kernel computation;
//! * [`reduction`] / [`halo`] — cross-device reductions and ghost-region
//!   exchange (the Fig. 3 Jacobi features);
//! * [`report`] — the observability layer: per-chunk scheduler decision
//!   log, prediction-error statistics, and rendered run reports;
//! * [`mod@compile`] / [`api`] — lowering parsed HOMP directives into
//!   offload regions, and the three-call facade.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod align;
pub mod api;
pub mod compile;
pub mod data_env;
pub mod dist;
pub mod halo;
pub mod history;
pub mod map;
pub mod offload;
pub mod pipeline;
pub mod reduction;
pub mod region;
pub mod report;
pub mod runtime;
pub mod sched;
pub mod testing;

pub use api::{DataRegion, Homp, HompError};
pub use compile::{
    compile, compile_data_region, compile_update, CompileError, CompileOptions, KernelDescriptor,
    KernelInfo, UpdateSpec,
};
pub use data_env::DataEnv;
pub use dist::Distribution;
pub use history::{AffineFit, HistoryDb};
pub use map::{DataPlan, PlanError};
pub use offload::{ArrayMap, OffloadRegion, OffloadRegionBuilder};
pub use pipeline::{
    ChunkingPolicy, FnPipelineKernel, Pipeline, PipelineBuilder, PipelineKernel, PipelineReport,
    StageLink,
};
pub use region::Range;
pub use report::{ChunkDecision, PredictionSource, PredictionStats, RunReport};
pub use runtime::{
    DataRegionReport, FaultConfig, FaultSummary, FnKernel, LoopKernel, OffloadBuilder,
    OffloadError, OffloadReport, Runtime, RuntimeConfig, UpdateReport,
};
pub use sched::health::{HealthState, HealthTracker, HealthTransition};
pub use sched::Algorithm;
