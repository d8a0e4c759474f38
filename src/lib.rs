//! # HOMP — automated distribution of parallel loops and data across
//! heterogeneous devices
//!
//! A Rust reproduction of *"HOMP: Automated Distribution of Parallel
//! Loops and Data in Highly Parallel Accelerator-Based Systems"*
//! (Yan, Liu, Cameron, Umar — IPPS 2017), including every substrate the
//! paper depends on:
//!
//! * [`sim`] — a deterministic discrete-event simulator of the
//!   evaluation machine (Xeon E5-2699v3 sockets, NVIDIA K40s, Xeon Phi
//!   7120Ps) with Hockney links, full-duplex DMA, memory spaces, and
//!   reproducible noise;
//! * [`lang`] — the HOMP directive language (extended `device`, `map …
//!   partition … halo`, `dist_schedule(target: …)`) with lexer, parser
//!   and device-specifier resolution;
//! * [`core`] — the runtime: distribution and alignment engines, data
//!   movement planning, the seven loop-distribution algorithms of
//!   Table II, CUTOFF device selection, reductions and halo exchange;
//! * [`model`] — the analytical models (roofline, Hockney, MODEL_1,
//!   MODEL_2, heuristics);
//! * [`kernels`] — the six evaluation kernels plus the Fig. 3 Jacobi
//!   app, with real arithmetic and Table IV cost descriptors;
//! * [`serve`] — a multi-tenant offload service over one machine:
//!   admission queue, FIFO/weighted-fair policies, Poisson traffic
//!   generation, and per-tenant latency/utilization accounting.
//!
//! ## Quickstart
//!
//! ```
//! use homp::prelude::*;
//!
//! // A heterogeneous node: host + 4 GPUs + 2 MICs.
//! let mut homp = Homp::new(Machine::full_node());
//!
//! // The paper's axpy_homp_v2: arrays align with the loop, AUTO policy.
//! let mut env = Env::new();
//! env.insert("n".into(), 100_000);
//! let region = homp.compile_source(
//!     &[
//!         "#pragma omp parallel target device(*) \
//!          map(tofrom: y[0:n] partition([ALIGN(loop)])) \
//!          map(to: x[0:n] partition([ALIGN(loop)]), a, n)",
//!         "#pragma omp parallel for distribute dist_schedule(target:[AUTO])",
//!     ],
//!     &env,
//!     CompileOptions::for_loop("axpy", 100_000),
//! ).unwrap();
//!
//! // Real data, really computed — distribution decided by the runtime.
//! let a = 2.0f64;
//! let x = vec![1.0f64; 100_000];
//! let mut y = vec![0.0f64; 100_000];
//! let report = {
//!     let mut kernel = FnKernel::new(
//!         homp_kernels::axpy::intensity(),
//!         |r: Range| for i in r.start..r.end {
//!             y[i as usize] += a * x[i as usize];
//!         });
//!     homp.offload(&region, &mut kernel).run().unwrap()
//! };
//! assert!(y.iter().all(|&v| v == 2.0));
//! println!("{} finished in {:.3} ms across {} devices",
//!          region.name, report.time_ms(), report.devices.len());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use homp_core as core;
pub use homp_kernels as kernels;
pub use homp_lang as lang;
pub use homp_model as model;
pub use homp_serve as serve;
pub use homp_sim as sim;

/// The items most programs need.
pub mod prelude {
    pub use homp_core::{
        Algorithm, ChunkDecision, ChunkingPolicy, CompileError, CompileOptions, DataRegion,
        DataRegionReport, FaultConfig, FnKernel, FnPipelineKernel, Homp, HompError,
        KernelDescriptor, KernelInfo, LoopKernel, OffloadBuilder, OffloadError, OffloadRegion,
        OffloadReport, Pipeline, PipelineBuilder, PipelineKernel, PipelineReport, Range, RunReport,
        Runtime, RuntimeConfig, UpdateReport,
    };
    pub use homp_kernels::{KernelSpec, PhantomKernel};
    pub use homp_lang::{parse_directive, Env, ParseError};
    pub use homp_model::KernelIntensity;
    pub use homp_serve::{
        RequestOutcome, ServePolicy, ServeReport, ServeRequest, Server, TenantId, TenantStats,
    };
    pub use homp_sim::{FaultPlan, Machine, Metrics, SimSpan, SimTime, TransferStats};
}
