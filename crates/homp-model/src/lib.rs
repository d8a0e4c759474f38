//! Analytical performance models used by the HOMP runtime.
//!
//! This crate is pure math with no dependency on the simulator or the
//! runtime: everything here consumes plain numbers (rates, byte counts,
//! latencies) and produces plain numbers (predicted times, iteration
//! shares). It implements, from Section IV of the paper:
//!
//! * [`hockney`] — the Hockney "α–β" model of a communication link
//!   (latency + bandwidth), used to price data movement to and from a
//!   device (IV-B.2).
//! * [`roofline`] — the roofline model: a kernel's attainable rate on a
//!   device is bounded by either peak compute or memory bandwidth, and the
//!   `MemComp` / `DataComp` intensity ratios of Table IV.
//! * [`model1`] — `MODEL_1_AUTO`: distribution considering only compute
//!   capability (Equations 1–3), solved both in closed form and as the
//!   (M+1)-variable linear system the paper describes.
//! * [`model2`] — `MODEL_2_AUTO`: distribution considering both compute
//!   and data-movement cost (Equation 4–5).
//! * [`linsolve`] — a small dense Gaussian-elimination solver backing the
//!   linear-system formulations.
//! * [`apportion`] — largest-remainder apportionment turning fractional
//!   shares into integer iteration counts that sum exactly to `N`.
//! * [`cutoff`] — the CUTOFF device-selection heuristic (IV-E).
//! * [`heuristics`] — the algorithm-selection rules of §VI-D.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod apportion;
pub mod cutoff;
pub mod heuristics;
pub mod hockney;
pub mod linsolve;
pub mod model1;
pub mod model2;
pub mod roofline;

pub use apportion::largest_remainder;
pub use cutoff::{apply_cutoff, CutoffOutcome};
pub use heuristics::{select_algorithm, AlgorithmChoice, KernelClass};
pub use hockney::Hockney;
pub use model1::{model1_shares, model1_system};
pub use model2::{eq5_factors, model2_shares, DeviceCost, Eq5Factors};
pub use roofline::{attainable_rate, KernelIntensity};

/// A device as seen by the analytical models: the handful of machine
/// constants the paper's runtime obtains from microbenchmark profiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Sustained peak floating-point rate, FLOP/s (`Perf_dev` in Table III).
    pub perf_flops: f64,
    /// Local memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Link to host memory, `None` for the host itself (shared memory, no
    /// transfer cost — "CPU execution is handled using OpenMP, so no real
    /// data movement happens").
    pub link: Option<Hockney>,
    /// Fixed overhead per offload transaction (kernel launch, runtime
    /// bookkeeping), seconds.
    pub launch_overhead: f64,
}

impl DeviceParams {
    /// A host-like device: shared memory, negligible launch cost.
    pub fn host(perf_flops: f64, mem_bw: f64) -> Self {
        Self { perf_flops, mem_bw, link: None, launch_overhead: 1e-6 }
    }

    /// An accelerator behind a link.
    pub fn accelerator(perf_flops: f64, mem_bw: f64, link: Hockney, launch_overhead: f64) -> Self {
        Self { perf_flops, mem_bw, link: Some(link), launch_overhead }
    }
}
