//! SUM: a reduction over a vector — data-intensive with cross-device
//! reduction (Table IV: `MemComp = 1`, `DataComp = 1`).
//!
//! Each device reduces its chunk into a partial; the runtime's
//! [`homp_core::reduction::Reducer`] combines partials in device order,
//! so the result is deterministic.

use homp_core::reduction::Partial;
use homp_core::{LoopKernel, OffloadRegion, Range};
use homp_lang::{DistPolicy, MapDir, ReductionOp};
use homp_model::KernelIntensity;
use homp_sim::DeviceId;

/// Per-iteration intensity of SUM.
pub fn intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 1.0,
        mem_elems_per_iter: 1.0,
        data_elems_per_iter: 1.0,
        elem_bytes: 8.0,
    }
}

/// Offload region: the input vector aligns with the loop; the scalar
/// result is reduced. The region prices no copy-back of the partials
/// (no `.reduction(8)`): `benchmark/`'s directive_grid checks it against
/// its compiled `sum` directive, which has no `reduction` clause.
pub fn region(n: u64, devices: Vec<DeviceId>, algorithm: homp_core::Algorithm) -> OffloadRegion {
    OffloadRegion::builder("sum")
        .trip_count(n)
        .devices(devices)
        .algorithm(algorithm)
        .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .scalars(8) // the reduction variable
        .build()
}

/// SUM with real data and a running reduction.
pub struct Sum {
    /// Input vector.
    pub x: Vec<f64>,
    partial: Partial,
}

impl Sum {
    /// Deterministic instance of length `n`.
    pub fn new(n: usize) -> Self {
        Self {
            x: (0..n).map(|i| ((i % 1000) as f64) * 0.001 - 0.3).collect(),
            partial: Partial::new(ReductionOp::Sum),
        }
    }

    /// The reduced value so far.
    pub fn value(&self) -> f64 {
        self.partial.value()
    }

    /// Sequential reference sum.
    pub fn reference(&self) -> f64 {
        self.x.iter().sum()
    }
}

impl LoopKernel for Sum {
    fn intensity(&self) -> KernelIntensity {
        intensity()
    }

    fn execute(&mut self, r: Range) {
        // Chunk-local accumulation then a single combine keeps error
        // growth comparable to the sequential loop.
        let mut local = 0.0;
        for i in r.start..r.end {
            local += self.x[i as usize];
        }
        self.partial.accumulate(local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_core::{Algorithm, Runtime};
    use homp_sim::Machine;

    #[test]
    fn table_iv_ratios() {
        let k = intensity();
        assert_eq!(k.mem_comp(), 1.0);
        assert_eq!(k.data_comp(), 1.0);
    }

    #[test]
    fn distributed_sum_matches_reference() {
        for alg in [Algorithm::Block, Algorithm::Dynamic { chunk_pct: 2.0 }] {
            let mut rt = Runtime::new(Machine::full_node(), 3);
            let mut k = Sum::new(100_000);
            let expected = k.reference();
            let region = region(100_000, (0..7).collect(), alg);
            rt.offload(&region, &mut k).run().unwrap();
            let rel = (k.value() - expected).abs() / expected.abs().max(1.0);
            assert!(rel < 1e-10, "{alg}: {} vs {}", k.value(), expected);
        }
    }

    #[test]
    fn empty_sum_is_zero() {
        let k = Sum::new(0);
        assert_eq!(k.value(), 0.0);
    }
}
