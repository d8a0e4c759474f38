//! The Fig. 3 Jacobi iterative kernel: a `target data` region keeping
//! grids resident across sweeps, per-sweep copy loop + halo exchange +
//! update loop with a `+`-reduction on the residual.
//!
//! ```text
//! cargo run --release --example jacobi [n] [m]
//! ```

use homp::kernels::jacobi::Jacobi;
use homp::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(128);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(128);

    println!("Jacobi {n}x{m} on the full simulated node, tol 1e-4\n");

    // Sequential reference first.
    let mut seq = Jacobi::new(n, m);
    let (seq_iters, seq_err) = seq.run_sequential(5_000, 1e-4);
    println!("sequential        : {seq_iters} sweeps, final error {seq_err:.6e}");

    for (label, algorithm) in [
        ("BLOCK", Algorithm::Block),
        ("SCHED_DYNAMIC 2%", Algorithm::Dynamic { chunk_pct: 2.0 }),
        ("MODEL_2_AUTO", Algorithm::Model2 { cutoff: None }),
        ("MODEL_2 + CUTOFF", Algorithm::Model2 { cutoff: Some(0.15) }),
    ] {
        let mut rt = Runtime::new(Machine::full_node(), 11);
        let mut dist = Jacobi::new(n, m);
        let report = dist.run_distributed(&mut rt, (0..7).collect(), algorithm, 5_000, 1e-4);
        let drift = (report.error - seq_err).abs() / seq_err.max(1e-300);
        println!(
            "{label:<18}: {} sweeps, error {:.6e} (drift {:.1e}), \
             virtual time {:.3} ms (halo {:.3} ms), \
             H2D {} B, flush {} B",
            report.iterations,
            report.error,
            drift,
            report.total_time.as_millis(),
            report.halo_time.as_millis(),
            report.h2d_bytes,
            report.flushed_bytes,
        );
        assert!(drift < 1e-6, "distribution must not change the math");

        // A static split uploads the arrays once: the copy loop runs on
        // the update loop's split, so every later sweep elides its
        // transfers and the solve moves what its first sweep does.
        let update = dist.update_region((0..7).collect(), algorithm);
        if rt.distribution(&update, &dist.update_intensity()).expect("plan loop1").is_some() {
            let mut rt = Runtime::new(Machine::full_node(), 11);
            let first =
                Jacobi::new(n, m).run_distributed(&mut rt, (0..7).collect(), algorithm, 1, 0.0);
            assert_eq!(report.h2d_bytes, first.h2d_bytes, "{label}: arrays upload once");
        }
    }

    // The same solve without the `target data` region: every sweep
    // remaps u/uold/f, so H2D grows with the sweep count.
    let mut rt = Runtime::new(Machine::full_node(), 11);
    let mut dist = Jacobi::new(n, m);
    let baseline = dist.run_per_offload(&mut rt, (0..7).collect(), Algorithm::Block, 5_000, 1e-4);
    println!(
        "\nregion-free BLOCK : same math, H2D {} B ({}x the resident run)",
        baseline.h2d_bytes,
        if baseline.h2d_bytes > 0 {
            let mut rt2 = Runtime::new(Machine::full_node(), 11);
            let mut d2 = Jacobi::new(n, m);
            let resident =
                d2.run_distributed(&mut rt2, (0..7).collect(), Algorithm::Block, 5_000, 1e-4);
            baseline.h2d_bytes / resident.h2d_bytes.max(1)
        } else {
            0
        },
    );

    println!("\n(the halo exchange moves one boundary row per neighbour per sweep;");
    println!(" devices in shared host memory exchange for free; inside the data");
    println!(" region a static split uploads the arrays once and flushes u back");
    println!(" once at close, while chunks move their rows in every sweep)");
}
