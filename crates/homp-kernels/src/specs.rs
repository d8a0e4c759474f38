//! The benchmark suite registry: the six kernels at their paper sizes
//! (Table V labels: axpy-10M, matvec-48k, matmul-6144, stencil2d-256,
//! sum-300M, bm2d-256), with everything the harness needs to run one —
//! label, trip count, intensity, region builder.

use crate::{axpy, block_matching, matmul, matvec, stencil, sum};
use homp_core::{Algorithm, KernelDescriptor, OffloadRegion};
use homp_model::KernelIntensity;
use homp_sim::DeviceId;

/// One benchmark kernel at a concrete problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSpec {
    /// `y += a·x` over `n` elements.
    Axpy(u64),
    /// `y = A·x`, `n×n`.
    MatVec(u64),
    /// `C = A·B`, `n×n`.
    MatMul(u64),
    /// 13-point stencil on an `n×n` grid.
    Stencil2d(u64),
    /// Reduction over `n` elements.
    Sum(u64),
    /// Block matching on an `n×n` frame.
    BlockMatching(u64),
}

impl KernelSpec {
    /// The paper's evaluation suite at its Table V sizes.
    pub fn paper_suite() -> Vec<KernelSpec> {
        vec![
            KernelSpec::Axpy(10_000_000),
            KernelSpec::MatVec(48_000),
            KernelSpec::MatMul(6_144),
            KernelSpec::Stencil2d(256),
            KernelSpec::Sum(300_000_000),
            KernelSpec::BlockMatching(256),
        ]
    }

    /// Short label in the paper's style (`matmul-6144`).
    pub fn label(&self) -> String {
        match self {
            KernelSpec::Axpy(n) => format!("axpy-{}", human(*n)),
            KernelSpec::MatVec(n) => format!("matvec-{}", human(*n)),
            KernelSpec::MatMul(n) => format!("matmul-{n}"),
            KernelSpec::Stencil2d(n) => format!("stencil2d-{n}"),
            KernelSpec::Sum(n) => format!("sum-{}", human(*n)),
            KernelSpec::BlockMatching(n) => format!("bm2d-{n}"),
        }
    }

    /// The distributed (outer) loop's trip count.
    pub fn trip_count(&self) -> u64 {
        match self {
            KernelSpec::Axpy(n) | KernelSpec::Sum(n) => *n,
            KernelSpec::MatVec(n) | KernelSpec::MatMul(n) | KernelSpec::Stencil2d(n) => *n,
            KernelSpec::BlockMatching(n) => block_matching::trip_count(*n),
        }
    }

    /// Per-outer-iteration intensity.
    pub fn intensity(&self) -> KernelIntensity {
        match self {
            KernelSpec::Axpy(_) => axpy::intensity(),
            KernelSpec::MatVec(n) => matvec::intensity(*n),
            KernelSpec::MatMul(n) => matmul::intensity(*n),
            KernelSpec::Stencil2d(n) => stencil::intensity(*n),
            KernelSpec::Sum(_) => sum::intensity(),
            KernelSpec::BlockMatching(n) => block_matching::intensity(*n),
        }
    }

    /// Offload region for this kernel on `devices` under `algorithm`.
    pub fn region(&self, devices: Vec<DeviceId>, algorithm: Algorithm) -> OffloadRegion {
        match self {
            KernelSpec::Axpy(n) => axpy::region(*n, devices, algorithm),
            KernelSpec::MatVec(n) => matvec::region(*n, devices, algorithm),
            KernelSpec::MatMul(n) => matmul::region(*n, devices, algorithm),
            KernelSpec::Stencil2d(n) => stencil::region(*n, devices, algorithm),
            KernelSpec::Sum(n) => sum::region(*n, devices, algorithm),
            KernelSpec::BlockMatching(n) => block_matching::region(*n, devices, algorithm),
        }
    }

    /// Same kernel scaled to a test-friendly size (real-math tests).
    pub fn test_size(&self) -> KernelSpec {
        match self {
            KernelSpec::Axpy(_) => KernelSpec::Axpy(10_000),
            KernelSpec::MatVec(_) => KernelSpec::MatVec(128),
            KernelSpec::MatMul(_) => KernelSpec::MatMul(96),
            KernelSpec::Stencil2d(_) => KernelSpec::Stencil2d(64),
            KernelSpec::Sum(_) => KernelSpec::Sum(50_000),
            KernelSpec::BlockMatching(_) => KernelSpec::BlockMatching(64),
        }
    }
}

/// Every benchmark kernel can seed the compiler's cost model directly:
/// `CompileOptions::for_kernel(&spec)` picks up label, trip count and
/// intensity without the caller restating any of them.
impl KernelDescriptor for KernelSpec {
    fn label(&self) -> String {
        KernelSpec::label(self)
    }

    fn trip_count(&self) -> u64 {
        KernelSpec::trip_count(self)
    }

    fn intensity(&self) -> KernelIntensity {
        KernelSpec::intensity(self)
    }
}

fn human(n: u64) -> String {
    if n.is_multiple_of(1_000_000) && n >= 1_000_000 {
        format!("{}M", n / 1_000_000)
    } else if n.is_multiple_of(1_000) && n >= 1_000 {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phantom::PhantomKernel;
    use homp_core::Runtime;
    use homp_sim::Machine;

    #[test]
    fn labels_match_table_v() {
        let labels: Vec<String> = KernelSpec::paper_suite().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["axpy-10M", "matvec-48k", "matmul-6144", "stencil2d-256", "sum-300M", "bm2d-256"]
        );
    }

    #[test]
    fn every_spec_offloads_at_paper_size() {
        let mut rt = Runtime::new(Machine::four_k40(), 3);
        for spec in KernelSpec::paper_suite() {
            let region = spec.region(vec![0, 1, 2, 3], Algorithm::Block);
            let mut phantom = PhantomKernel::new(spec.intensity());
            let report = rt.offload(&region, &mut phantom).run().unwrap();
            assert_eq!(phantom.executed(), spec.trip_count(), "{}", spec.label());
            assert!(report.time_ms() > 0.0, "{}", spec.label());
        }
    }

    #[test]
    fn trip_counts() {
        assert_eq!(KernelSpec::Axpy(10_000_000).trip_count(), 10_000_000);
        assert_eq!(KernelSpec::MatMul(6_144).trip_count(), 6_144);
        assert_eq!(KernelSpec::BlockMatching(256).trip_count(), 16);
    }

    #[test]
    fn specs_drive_compile_options() {
        let spec = KernelSpec::MatMul(6_144);
        let opts = homp_core::CompileOptions::for_kernel(&spec);
        let carried = opts.intensity().expect("spec intensity carried");
        assert_eq!(carried.flops_per_iter, spec.intensity().flops_per_iter);
    }

    #[test]
    fn test_sizes_are_small() {
        for s in KernelSpec::paper_suite() {
            assert!(s.test_size().trip_count() <= 50_000);
        }
    }
}
