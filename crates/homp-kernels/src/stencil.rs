//! 13-point 2-D stencil — compute-data balanced with neighbourhood
//! communication (Table IV: `MemComp = 0.5`, `DataComp = 1/13`).
//!
//! A radius-3 star: for each interior point, the centre plus three
//! neighbours in each of the four cardinal directions (13 points), each
//! scaled by a coefficient: 13 multiplies + 13 adds = 26 FLOPs, 13 loads
//! (`MemComp = 13/26 = 0.5`), and 2 bus elements per point (`u` in,
//! `u_next` out; `DataComp = 2/26 = 1/13`).
//!
//! The outer loop runs over rows; the block distribution needs a
//! radius-wide halo, exercised by [`homp_core::halo`].

use homp_core::{LoopKernel, OffloadRegion, Range};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::DeviceId;

/// Stencil radius (3 in each direction → 13 points).
pub const RADIUS: usize = 3;

/// The 13 coefficients: centre, then distance-1..3 for x and y.
pub const COEFFS: [f64; 7] = [0.4, 0.2, 0.1, 0.05, 0.15, 0.07, 0.03];

/// Per-row intensity for an `N×N` grid.
pub fn intensity(n: u64) -> KernelIntensity {
    let nf = n as f64;
    KernelIntensity {
        flops_per_iter: 26.0 * nf,
        mem_elems_per_iter: 13.0 * nf,
        data_elems_per_iter: 2.0 * nf,
        elem_bytes: 8.0,
    }
}

/// Offload region: `u` in and `u_next` out, rows aligned with the loop,
/// radius-wide halo on the input.
pub fn region(n: u64, devices: Vec<DeviceId>, algorithm: homp_core::Algorithm) -> OffloadRegion {
    OffloadRegion::builder("stencil2d")
        .trip_count(n)
        .devices(devices)
        .algorithm(algorithm)
        .map_2d(
            "u",
            MapDir::To,
            n,
            n,
            8,
            DistPolicy::Align { target: "loop".into(), ratio: 1 },
            DistPolicy::Full,
            Some(RADIUS as u64),
        )
        .map_2d(
            "u_next",
            MapDir::From,
            n,
            n,
            8,
            DistPolicy::Align { target: "loop".into(), ratio: 1 },
            DistPolicy::Full,
            None,
        )
        .scalars(8)
        .build()
}

/// 13-point stencil with real data.
pub struct Stencil2d {
    n: usize,
    /// Input grid (row-major `N×N`).
    pub u: Vec<f64>,
    /// Output grid.
    pub u_next: Vec<f64>,
}

impl Stencil2d {
    /// Deterministic instance on an `n×n` grid.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            u: (0..n * n).map(|i| ((i % 17) as f64) * 0.1 - 0.4).collect(),
            u_next: vec![0.0; n * n],
        }
    }

    /// Grid dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    fn point(&self, i: usize, j: usize) -> f64 {
        let n = self.n;
        let at = |r: usize, c: usize| self.u[r * n + c];
        let mut acc = COEFFS[0] * at(i, j);
        for d in 1..=RADIUS {
            acc += COEFFS[d] * (at(i, j - d) + at(i, j + d));
            acc += COEFFS[RADIUS + d] * (at(i - d, j) + at(i + d, j));
        }
        acc
    }

    fn row(&mut self, i: usize) {
        let n = self.n;
        if i < RADIUS || i >= n - RADIUS {
            // Boundary rows copy through (Dirichlet-style).
            for j in 0..n {
                self.u_next[i * n + j] = self.u[i * n + j];
            }
            return;
        }
        for j in 0..n {
            self.u_next[i * n + j] =
                if j < RADIUS || j >= n - RADIUS { self.u[i * n + j] } else { self.point(i, j) };
        }
    }

    /// Sequential reference sweep.
    pub fn reference(&self) -> Vec<f64> {
        let mut copy =
            Stencil2d { n: self.n, u: self.u.clone(), u_next: vec![0.0; self.n * self.n] };
        for i in 0..self.n {
            copy.row(i);
        }
        copy.u_next
    }
}

impl LoopKernel for Stencil2d {
    fn intensity(&self) -> KernelIntensity {
        intensity(self.n as u64)
    }

    fn execute(&mut self, r: Range) {
        for i in r.start as usize..r.end as usize {
            self.row(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_core::{Algorithm, Runtime};
    use homp_sim::Machine;

    #[test]
    fn table_iv_ratios() {
        let k = intensity(256);
        assert!((k.mem_comp() - 0.5).abs() < 1e-12);
        assert!((k.data_comp() - 1.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_field_stays_uniform_in_interior() {
        let n = 16;
        let mut k = Stencil2d::new(n);
        k.u = vec![1.0; n * n];
        k.execute(Range::new(0, n as u64));
        // Coefficient sum = 0.4 + 2*(0.2+0.1+0.05+0.15+0.07+0.03) = 1.6.
        let coeff_sum: f64 = COEFFS[0] + 2.0 * COEFFS[1..].iter().sum::<f64>();
        let mid = k.u_next[(n / 2) * n + n / 2];
        assert!((mid - coeff_sum).abs() < 1e-12);
        // Boundaries copy through.
        assert_eq!(k.u_next[0], 1.0);
    }

    #[test]
    fn distributed_matches_reference() {
        for alg in [Algorithm::Block, Algorithm::Dynamic { chunk_pct: 5.0 }] {
            let mut rt = Runtime::new(Machine::four_k40(), 2);
            let n = 64;
            let mut k = Stencil2d::new(n);
            let expected = k.reference();
            let region = region(n as u64, vec![0, 1, 2, 3], alg);
            rt.offload(&region, &mut k).run().unwrap();
            assert_eq!(k.u_next, expected, "{alg}");
        }
    }

    #[test]
    fn region_declares_radius_halo() {
        let r = region(64, vec![0, 1], Algorithm::Block);
        assert_eq!(r.array("u").unwrap().halo[0], Some(RADIUS as u64));
    }
}
