//! Block matching (motion estimation) — the paper's compute-intensive
//! kernel with neighbourhood communication, run on real frames with all
//! seven distribution policies.
//!
//! ```text
//! cargo run --release --example block_matching [frame-size]
//! ```

use homp::kernels::block_matching::{self, BlockMatching};
use homp::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(128);

    println!("Block matching on a {n}x{n} frame (16x16 blocks, +/-4 search)");
    println!("reference frame = current frame shifted by (+2,+1)\n");

    let reference = BlockMatching::new(n).reference();
    let interior_ok = |motion: &[(i64, i64)]| {
        let blocks = n / 16;
        let mut hits = 0;
        for bi in 1..blocks - 1 {
            for bj in 1..blocks - 1 {
                if motion[bi * blocks + bj] == (2, 1) {
                    hits += 1;
                }
            }
        }
        (hits, (blocks - 2) * (blocks - 2))
    };

    println!(
        "{:<26} {:>12} {:>10} {:>12} {:>14}",
        "policy", "time (ms)", "chunks", "imbalance%", "interior match"
    );
    for alg in Algorithm::paper_suite() {
        let mut rt = Runtime::new(Machine::four_k40(), 5);
        let mut k = BlockMatching::new(n);
        let region = block_matching::region(n as u64, vec![0, 1, 2, 3], alg);
        let report = rt.offload(&region, &mut k).run().expect("offload");
        assert_eq!(k.motion, reference, "every policy computes the same vectors");
        let (hits, total) = interior_ok(&k.motion);
        println!(
            "{:<26} {:>12.3} {:>10} {:>12.2} {:>9}/{:<4}",
            report.algorithm.to_string(),
            report.time_ms(),
            report.chunks,
            report.imbalance_pct,
            hits,
            total
        );
    }

    println!("\n(all interior blocks should recover the (+2,+1) shift as motion (2,1))");
}
