//! 2-D block matching (motion estimation) — compute-intensive with
//! neighbourhood access (Table IV: `MemComp = 0.5`, `DataComp = 0.06`).
//!
//! For each `B×B` block of the current frame, search a `±S` window in
//! the reference frame for the position minimizing the sum of absolute
//! differences (SAD). Per pixel comparison: an abs-diff and an add
//! (2 FLOPs) against one reference load (current-block pixels stay in
//! registers), giving `MemComp ≈ 0.5`; bus traffic is just the two
//! frames in and one motion vector per block out, a tiny fraction of
//! the compute.

use homp_core::{LoopKernel, OffloadRegion, Range};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::DeviceId;

/// Block edge in pixels.
pub const BLOCK: usize = 16;
/// Search radius in pixels.
pub const SEARCH: i64 = 4;

/// Number of block rows (the distributed loop's trip count) for an
/// `N×N` frame.
pub fn trip_count(n: u64) -> u64 {
    n / BLOCK as u64
}

/// Per-block-row intensity for an `N×N` frame.
pub fn intensity(n: u64) -> KernelIntensity {
    let blocks_per_row = n as f64 / BLOCK as f64;
    let window = (2.0 * SEARCH as f64 + 1.0).powi(2);
    let flops_per_block = window * (BLOCK * BLOCK) as f64 * 2.0;
    let mem_per_block = window * (BLOCK * BLOCK) as f64; // reference loads
                                                         // Bus traffic per block row: B rows of both frames + the vectors.
    let data_per_row = 2.0 * (BLOCK as f64 * n as f64) + 2.0 * blocks_per_row;
    KernelIntensity {
        flops_per_iter: flops_per_block * blocks_per_row,
        mem_elems_per_iter: mem_per_block * blocks_per_row,
        data_elems_per_iter: data_per_row,
        elem_bytes: 8.0,
    }
}

/// Offload region: frame rows align with the loop (ratio `BLOCK`: one
/// loop iteration covers a stripe of `BLOCK` frame rows); motion
/// vectors align out.
pub fn region(n: u64, devices: Vec<DeviceId>, algorithm: homp_core::Algorithm) -> OffloadRegion {
    let rows = trip_count(n);
    OffloadRegion::builder("bm2d")
        .trip_count(rows)
        .devices(devices)
        .algorithm(algorithm)
        .map_2d(
            "frame",
            MapDir::To,
            n,
            n,
            8,
            DistPolicy::Align { target: "loop".into(), ratio: BLOCK as u64 },
            DistPolicy::Full,
            Some(SEARCH as u64),
        )
        .map_2d(
            "reference",
            MapDir::To,
            n,
            n,
            8,
            DistPolicy::Align { target: "loop".into(), ratio: BLOCK as u64 },
            DistPolicy::Full,
            Some(SEARCH as u64),
        )
        .map_2d(
            "motion",
            MapDir::From,
            rows,
            rows * 2,
            8,
            DistPolicy::Align { target: "loop".into(), ratio: 1 },
            DistPolicy::Full,
            None,
        )
        .scalars(16)
        .build()
}

/// Block matching with real data.
pub struct BlockMatching {
    n: usize,
    /// Current frame (row-major `N×N`).
    pub frame: Vec<f64>,
    /// Reference frame.
    pub reference_frame: Vec<f64>,
    /// Motion vectors per block, `(dy, dx)` row-major over blocks.
    pub motion: Vec<(i64, i64)>,
}

impl BlockMatching {
    /// Deterministic instance: the reference frame is the current frame
    /// shifted by (+2, +1), so the expected motion vector is (-2, -1)
    /// away from edges.
    pub fn new(n: usize) -> Self {
        assert!(n.is_multiple_of(BLOCK), "frame size must be a multiple of {BLOCK}");
        let frame: Vec<f64> = (0..n * n).map(|i| (((i * 7919) % 101) as f64) * 0.01).collect();
        let mut reference_frame = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let si = (i + n - 2) % n;
                let sj = (j + n - 1) % n;
                reference_frame[i * n + j] = frame[si * n + sj];
            }
        }
        let blocks = n / BLOCK;
        Self { n, frame, reference_frame, motion: vec![(0, 0); blocks * blocks] }
    }

    /// Frame dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    fn sad(&self, bi: usize, bj: usize, dy: i64, dx: i64) -> Option<f64> {
        let n = self.n as i64;
        let base_i = (bi * BLOCK) as i64;
        let base_j = (bj * BLOCK) as i64;
        if base_i + dy < 0
            || base_j + dx < 0
            || base_i + dy + BLOCK as i64 > n
            || base_j + dx + BLOCK as i64 > n
        {
            return None;
        }
        let mut acc = 0.0;
        for r in 0..BLOCK as i64 {
            for c in 0..BLOCK as i64 {
                let cur = self.frame[((base_i + r) * n + base_j + c) as usize];
                let refv = self.reference_frame[((base_i + dy + r) * n + base_j + dx + c) as usize];
                acc += (cur - refv).abs();
            }
        }
        Some(acc)
    }

    fn match_block(&self, bi: usize, bj: usize) -> (i64, i64) {
        let mut best = (0i64, 0i64);
        let mut best_sad = f64::INFINITY;
        for dy in -SEARCH..=SEARCH {
            for dx in -SEARCH..=SEARCH {
                if let Some(s) = self.sad(bi, bj, dy, dx) {
                    // Strict `<` with row-major scan order makes ties
                    // deterministic.
                    if s < best_sad {
                        best_sad = s;
                        best = (dy, dx);
                    }
                }
            }
        }
        best
    }

    /// Sequential reference result.
    pub fn reference(&self) -> Vec<(i64, i64)> {
        let blocks = self.n / BLOCK;
        let mut out = vec![(0, 0); blocks * blocks];
        for bi in 0..blocks {
            for bj in 0..blocks {
                out[bi * blocks + bj] = self.match_block(bi, bj);
            }
        }
        out
    }
}

impl LoopKernel for BlockMatching {
    fn intensity(&self) -> KernelIntensity {
        intensity(self.n as u64)
    }

    fn execute(&mut self, r: Range) {
        let blocks = self.n / BLOCK;
        for bi in r.start as usize..r.end as usize {
            for bj in 0..blocks {
                self.motion[bi * blocks + bj] = self.match_block(bi, bj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_core::{Algorithm, Runtime};
    use homp_sim::Machine;

    #[test]
    fn table_iv_shape() {
        let k = intensity(256);
        assert!((k.mem_comp() - 0.5).abs() < 1e-12, "MemComp {}", k.mem_comp());
        assert!(k.data_comp() < 0.1, "DataComp {} should be tiny", k.data_comp());
        assert!(k.data_comp() > 0.0);
    }

    #[test]
    fn finds_known_shift() {
        let k = BlockMatching::new(64);
        let blocks = 64 / BLOCK;
        // An interior block should discover the (-2, -1) inverse shift.
        let (dy, dx) = k.match_block(blocks / 2, blocks / 2);
        assert_eq!((dy, dx), (2, 1), "reference = frame shifted by (+2,+1)");
    }

    #[test]
    fn distributed_matches_reference() {
        let mut rt = Runtime::new(Machine::four_k40(), 17);
        let n = 64;
        let mut k = BlockMatching::new(n);
        let expected = k.reference();
        let region = region(n as u64, vec![0, 1, 2, 3], Algorithm::Dynamic { chunk_pct: 25.0 });
        rt.offload(&region, &mut k).run().unwrap();
        assert_eq!(k.motion, expected);
    }

    #[test]
    fn trip_count_is_block_rows() {
        assert_eq!(trip_count(256), 16);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_unaligned_frame() {
        BlockMatching::new(100);
    }
}
