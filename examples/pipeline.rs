//! Kernel pipelines: a 3-point stencil feeding a partial-sum stage,
//! inside a `target data` region, with and without `nowait`.
//!
//! The barrier variant runs the two offloads back to back — the sum
//! stage waits for every stencil chunk and re-imports `smooth`. The
//! `nowait` variant lets each sum chunk launch the moment the stencil
//! chunks covering its (halo-dilated) read window complete, on slabs
//! that never leave the devices. Same math, measurably less virtual
//! time.
//!
//! ```text
//! cargo run --release --example pipeline [n]
//! ```

use homp::prelude::*;

fn intensity(flops: f64) -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: flops,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 2.0,
        elem_bytes: 8.0,
    }
}

/// Compile the two stages from directives. The stencil stage carries
/// `nowait` only in the overlapped variant; `depend` lists are implied
/// by the map directions (`smooth` is written by stage 1, read by
/// stage 2).
fn stages(homp: &mut Homp, n: usize, nowait: bool) -> (OffloadRegion, OffloadRegion) {
    let mut env = Env::new();
    env.insert("n".into(), n as i64);
    let nowait_clause = if nowait { "nowait " } else { "" };
    let stencil = homp
        .compile_source(
            &[
                &format!(
                    "#pragma omp parallel target device(*) {nowait_clause}\
                     map(to: grid[0:n] partition([ALIGN(loop)]) halo(1), n) \
                     map(tofrom: smooth[0:n] partition([ALIGN(loop)]))"
                ),
                "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
            ],
            &env,
            CompileOptions::for_loop("stencil", n as u64),
        )
        .expect("stencil stage compiles");
    let sum = homp
        .compile_source(
            &[
                "#pragma omp parallel target device(*) \
                 map(to: smooth[0:n] partition([ALIGN(loop)]), n) \
                 map(from: partial[0:n] partition([ALIGN(loop)]))",
                "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
            ],
            &env,
            CompileOptions::for_loop("sum", n as u64),
        )
        .expect("sum stage compiles");
    (stencil, sum)
}

fn run(homp: &mut Homp, n: usize, nowait: bool) -> (PipelineReport, f64) {
    let (stencil, sum) = stages(homp, n, nowait);
    assert_eq!(stencil.nowait, nowait, "nowait clause lowers onto the region");

    let pipe = Pipeline::builder("stencil-sum")
        .then(stencil)
        .then(sum)
        .chunking(ChunkingPolicy::PerDevice)
        .build();

    let grid: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let mut smooth = vec![0.0f64; n];
    let mut partial = vec![0.0f64; n];
    let report = {
        let mut kernel =
            FnPipelineKernel::new(vec![intensity(3.0), intensity(1.0)], |stage, r: Range| {
                for i in r.start as usize..r.end as usize {
                    match stage {
                        0 => {
                            let left = if i == 0 { grid[i] } else { grid[i - 1] };
                            let right = if i + 1 == n { grid[i] } else { grid[i + 1] };
                            smooth[i] = (left + grid[i] + right) / 3.0;
                        }
                        _ => partial[i] = smooth[i] * smooth[i],
                    }
                }
            });
        homp.offload_pipeline(&pipe, &mut kernel).expect("pipeline runs")
    };

    // Verify the math really happened, stage 2 reading stage 1's output.
    let mut total = 0.0;
    for i in 0..n {
        let left = if i == 0 { grid[i] } else { grid[i - 1] };
        let right = if i + 1 == n { grid[i] } else { grid[i + 1] };
        let s = (left + grid[i] + right) / 3.0;
        assert_eq!(partial[i], s * s, "partial[{i}]");
        total += partial[i];
    }
    (report, total)
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(400_000);
    println!("stencil -> sum pipeline, n = {n}, four-K40 machine\n");
    let mut homp = Homp::new(Machine::four_k40());

    let (barrier, total_b) = run(&mut homp, n, false);
    let (overlapped, total_o) = run(&mut homp, n, true);
    assert_eq!(total_b, total_o, "nowait must not change the math");

    for rep in [&barrier, &overlapped] {
        println!(
            "{:<22}: {:.3} ms end-to-end, boundary idle {:.3} ms, overlap {:.3} ms",
            if rep.overlapped { "nowait (overlapped)" } else { "barrier (classic)" },
            rep.time_ms(),
            rep.boundary_idle.as_millis(),
            rep.overlap().as_millis(),
        );
        for (s, stage) in rep.stages.iter().enumerate() {
            println!(
                "    stage {s}: {:>7} chunks {:?} iterations, {:.3} ms",
                stage.chunks,
                stage.counts,
                stage.makespan.as_millis()
            );
        }
    }
    println!("\nsum(smooth^2) = {total_o:.3}");
    assert!(
        overlapped.makespan.as_secs() < barrier.makespan.as_secs(),
        "the nowait pipeline must beat the barrier baseline"
    );
    println!(
        "nowait saves {:.1} % of the barrier pipeline's virtual time",
        (1.0 - overlapped.makespan.as_secs() / barrier.makespan.as_secs()) * 100.0
    );

    // The same pipeline inside a `target data` environment: the region
    // keeps `grid` mapped across both stages; the pipeline already
    // flushed its own intermediates at drain, so close has nothing
    // left to copy back.
    let (stencil, sum) = stages(&mut homp, n, true);
    let pipe = Pipeline::builder("stencil-sum")
        .then(stencil)
        .then(sum)
        .chunking(ChunkingPolicy::PerDevice)
        .build();
    let mut env = Env::new();
    env.insert("n".into(), n as i64);
    let mut dr = homp
        .data_region(
            &[
                "#pragma omp parallel target data device(*) \
                 map(to: grid[0:n] partition([ALIGN(loop)]) halo(1), n) \
                 map(tofrom: smooth[0:n] partition([ALIGN(loop)]))",
                "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
            ],
            &env,
            CompileOptions::for_loop("stencil", n as u64),
        )
        .expect("data region compiles");
    let report = {
        let mut kernel =
            FnPipelineKernel::new(vec![intensity(3.0), intensity(1.0)], |_s, _r: Range| {});
        dr.offload_pipeline(&pipe, &mut kernel).expect("pipeline runs in the data region")
    };
    let close = dr.close().expect("data region closes");
    println!(
        "\ninside target data : {:.3} ms, close flushed {} B",
        report.time_ms(),
        close.flushed_bytes
    );
}
