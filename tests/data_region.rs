//! Integration: the `target data` golden trace — a 10-sweep Jacobi
//! inside a persistent data region must be byte-identical across runs,
//! move no host→device array bytes after the first sweep (halo rows
//! travel outside the offloads), and produce numerically identical
//! results to the region-free per-offload path.
//!
//! Through the session facade it also checks residency across offload
//! kinds: a chunk-scheduled offload keeps a whole array resident but
//! drops loop-aligned rows, and a region's device allocations last
//! until it closes.

use homp::kernels::jacobi::Jacobi;
use homp::prelude::*;

const N: usize = 48;
const M: usize = 40;
const SWEEPS: u64 = 10;
const SEED: u64 = 9;

fn resident_run(sweeps: u64) -> (Jacobi, homp::kernels::jacobi::JacobiReport) {
    let mut j = Jacobi::new(N, M);
    let mut rt = Runtime::new(Machine::four_k40(), SEED);
    let report = j.run_distributed(&mut rt, vec![0, 1, 2, 3], Algorithm::Block, sweeps, 0.0);
    (j, report)
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let (grid_a, rep_a) = resident_run(SWEEPS);
    let (grid_b, rep_b) = resident_run(SWEEPS);

    assert_eq!(grid_a.u, grid_b.u, "solutions must match bitwise");
    assert_eq!(rep_a.iterations, rep_b.iterations);
    assert_eq!(rep_a.error.to_bits(), rep_b.error.to_bits());
    assert_eq!(rep_a.total_time, rep_b.total_time, "virtual clock must be deterministic");
    assert_eq!(rep_a.halo_time, rep_b.halo_time);
    assert_eq!(rep_a.h2d_bytes, rep_b.h2d_bytes);
    assert_eq!(rep_a.d2h_bytes, rep_b.d2h_bytes);
    assert_eq!(rep_a.flushed_bytes, rep_b.flushed_bytes);
}

#[test]
fn no_h2d_array_traffic_after_first_sweep() {
    // If sweeps 2..10 moved any host→device bytes, the 10-sweep total
    // would exceed the 1-sweep total. (Halo rows move device→device in
    // the exchange step, outside the offload transfers counted here.)
    let (_, cold) = resident_run(1);
    let (_, warm) = resident_run(SWEEPS);
    assert!(cold.h2d_bytes > 0, "first sweep must upload the grids");
    assert_eq!(
        warm.h2d_bytes, cold.h2d_bytes,
        "sweeps after the first must elide every H2D array transfer"
    );
    // Copy-back is deferred: no array bytes device→host until the region
    // closes, then u flushes exactly once. Each sweep's update copies
    // back only its 8-byte error partial from each of the 4 devices.
    assert_eq!(warm.d2h_bytes, SWEEPS * 4 * 8);
    assert_eq!(warm.flushed_bytes, (N * M * 8) as u64);
}

#[test]
fn region_matches_region_free_numerics() {
    let (resident_grid, resident) = resident_run(SWEEPS);

    let mut free_grid = Jacobi::new(N, M);
    let mut rt = Runtime::new(Machine::four_k40(), SEED);
    let free = free_grid.run_per_offload(&mut rt, vec![0, 1, 2, 3], Algorithm::Block, SWEEPS, 0.0);

    assert_eq!(resident_grid.u, free_grid.u, "region must not change the math");
    assert_eq!(resident.error.to_bits(), free.error.to_bits());
    assert!(
        free.h2d_bytes >= 5 * resident.h2d_bytes,
        "ISSUE acceptance: >=5x fewer H2D bytes in-region (free {} vs resident {})",
        free.h2d_bytes,
        resident.h2d_bytes
    );
}

#[test]
fn facade_data_region_guard_round_trips() {
    // The same elision through the session facade: compile a directive
    // pair, open a region over the arrays, offload twice, close.
    let n = 10_000usize;
    let mut homp = Homp::new(Machine::four_k40());
    let mut env = Env::new();
    env.insert("n".into(), n as i64);
    let sources = [
        "#pragma omp parallel target data device(*) \
         map(tofrom: y[0:n] partition([ALIGN(loop)])) \
         map(to: x[0:n] partition([ALIGN(loop)]), a, n)",
        "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
    ];
    let mut region =
        homp.data_region(&sources, &env, CompileOptions::for_loop("axpy", n as u64)).unwrap();

    let a = 2.0f64;
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    for _ in 0..3 {
        let mut kernel = FnKernel::new(homp::kernels::axpy::intensity(), |r: Range| {
            for i in r.start..r.end {
                y[i as usize] += a * x[i as usize];
            }
        });
        region.offload_here(&mut kernel).run().unwrap();
    }
    let close = region.close().unwrap();
    assert_eq!(close.flushed_bytes, (n * 8) as u64, "y flushes once at close");
    assert!(close.stats.h2d_elided_bytes >= (2 * n * 8) as u64, "warm offloads elide x");
    assert!(y.iter().all(|&v| v == 6.0));
}

/// An axpy region over `n` iterations on every device of `four_k40`:
/// `y` aligned with the loop and mapped `tofrom`, `x` mapped `to` with
/// the given partition clause (empty for the whole array on each
/// device), scheduled by `schedule`.
fn axpy_sources(target: &str, x_partition: &str, schedule: &str) -> [String; 2] {
    [
        format!(
            "#pragma omp parallel {target} device(*) \
             map(tofrom: y[0:n] partition([ALIGN(loop)])) \
             map(to: x[0:n]{x_partition}, a, n)"
        ),
        format!("#pragma omp parallel for distribute dist_schedule(target:[{schedule}])"),
    ]
}

fn axpy_kernel<'a>(x: &'a [f64], y: &'a mut [f64]) -> impl LoopKernel + 'a {
    FnKernel::new(homp::kernels::axpy::intensity(), move |r: Range| {
        for i in r.start..r.end {
            y[i as usize] += 2.0 * x[i as usize];
        }
    })
}

#[test]
fn chunked_offloads_elide_a_resident_whole_array() {
    // A chunk-scheduled offload streams the aligned `y` chunk by chunk
    // but keeps the whole `x` on every device: the two warm offloads
    // elide `x` on all four, and `y`'s chunks copy back as they finish,
    // so the close has nothing left to flush.
    let n = 10_000usize;
    let mut homp = Homp::new(Machine::four_k40());
    let mut env = Env::new();
    env.insert("n".into(), n as i64);
    let sources = axpy_sources("target data", "", "SCHED_DYNAMIC,10%");
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    let mut region =
        homp.data_region(&sources, &env, CompileOptions::for_loop("axpy", n as u64)).unwrap();

    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    for _ in 0..3 {
        region.offload_here(&mut axpy_kernel(&x, &mut y)).run().unwrap();
    }
    let close = region.close().unwrap();
    assert_eq!(close.flushed_bytes, 0, "y copied back chunk by chunk");
    assert!(
        close.stats.h2d_elided_bytes >= (2 * 4 * n * 8) as u64,
        "warm offloads elide the whole x on four devices: {:?}",
        close.stats
    );
    assert!(y.iter().all(|&v| v == 6.0));
}

#[test]
fn chunked_offload_between_static_ones_drops_aligned_residency() {
    // BLOCK leaves each device its rows of `x` and `y`. A DYNAMIC
    // offload scatters chunks, so it drops those rows, and the next
    // BLOCK offload uploads both arrays again instead of eliding them.
    let n = 10_000usize;
    let mut homp = Homp::new(Machine::four_k40());
    let mut env = Env::new();
    env.insert("n".into(), n as i64);
    let opts = || CompileOptions::for_loop("axpy", n as u64);
    let aligned = " partition([ALIGN(loop)])";
    let dynamic = axpy_sources("target", aligned, "SCHED_DYNAMIC,10%");
    let dynamic: Vec<&str> = dynamic.iter().map(String::as_str).collect();
    let dynamic = homp.compile_source(&dynamic, &env, opts()).unwrap();
    let sources = axpy_sources("target data", aligned, "BLOCK");
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    let mut region = homp.data_region(&sources, &env, opts()).unwrap();

    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    region.offload_here(&mut axpy_kernel(&x, &mut y)).run().unwrap();
    region.offload(&dynamic, &mut axpy_kernel(&x, &mut y)).run().unwrap();
    let before = *region.stats();
    region.offload_here(&mut axpy_kernel(&x, &mut y)).run().unwrap();
    let moved = region.stats().h2d_bytes - before.h2d_bytes;
    assert!(moved >= (2 * n * 8) as u64, "x and y uploaded again, not elided: {moved} bytes moved");
    let close = region.close().unwrap();
    assert_eq!(close.flushed_bytes, (n * 8) as u64, "the last BLOCK's y rows flush once");
    assert!(y.iter().all(|&v| v == 6.0));
}

#[test]
fn region_allocations_hold_device_memory_until_close() {
    // Two whole 7 GiB arrays do not fit together on one 12 GiB K40.
    // Inside a region the first stays allocated after its offload, so
    // an offload of the second alone runs out of device memory before
    // any operation runs; once the region closes, the same offload fits.
    const ELEMS: u64 = (7 << 30) / 8;
    let whole = |arrays: &[&str]| {
        let mut b = OffloadRegion::builder("big")
            .trip_count(1_000)
            .devices(vec![0])
            .algorithm(Algorithm::Block);
        for &name in arrays {
            b = b.map_1d(name, homp::lang::MapDir::To, ELEMS, 8, homp::lang::DistPolicy::Full);
        }
        b.build()
    };
    let (a, b) = (whole(&["a"]), whole(&["b"]));
    let mut kernel = PhantomKernel::new(KernelSpec::Axpy(1_000).intensity());
    let mut homp = Homp::new(Machine::four_k40());

    let mut region = homp.enter_data_region(whole(&["a", "b"]));
    region.offload(&a, &mut kernel).run().unwrap();
    let err = region.offload(&b, &mut kernel).run().unwrap_err();
    assert!(matches!(err, OffloadError::OutOfDeviceMemory { device: 0, .. }), "{err}");
    region.close().unwrap();

    let mut region = homp.enter_data_region(whole(&["a", "b"]));
    region.offload(&b, &mut kernel).run().unwrap();
    region.close().unwrap();
}
