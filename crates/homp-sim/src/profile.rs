//! Simulated microbenchmark profiling.
//!
//! "For a machine, the last two machine factors are constants, each of
//! which is obtained through microbenchmark profiling in our experiment"
//! (Section IV-B.2). The HOMP runtime does not get to read the
//! simulator's ground-truth device descriptors; instead it *measures*
//! each device exactly as the real system would:
//!
//! * link α and β from two transfer timings of different sizes,
//! * sustained FLOP/s from a compute-bound micro-kernel,
//! * memory bandwidth from a streaming (memory-bound) micro-kernel.
//!
//! The measurements run on a scratch clone of the engine so they disturb
//! neither the clock nor the trace, and with noise enabled the estimates
//! carry realistic error — which is precisely why MODEL_* distributions
//! are predictions rather than oracles.

use crate::device::DeviceId;
use crate::engine::{ChunkWork, Dir, Engine};
use crate::time::SimTime;
use homp_model::{DeviceParams, Hockney, KernelIntensity};

/// Profile of one device, as measured.
pub type MeasuredParams = DeviceParams;

/// A strongly compute-bound probe: high arithmetic intensity so the
/// roofline sits on the compute ceiling of every device in the catalog.
fn compute_probe() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 65_536.0,
        mem_elems_per_iter: 1.0,
        data_elems_per_iter: 0.0,
        elem_bytes: 8.0,
    }
}

/// A streaming probe: one FLOP per three elements, far below any ridge
/// point, so time is bounded by memory bandwidth.
fn stream_probe() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 1.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 0.0,
        elem_bytes: 8.0,
    }
}

/// Solve the Hockney α–β model from two transfer timings
/// (`small` bytes in `t_small` seconds, `large` bytes in `t_large`).
///
/// Returns `None` when both timings are zero (shared memory — no
/// measurable link). Under heavy noise the two-point solve can
/// degenerate: `t_large <= t_small` would yield an infinite or negative
/// bandwidth, so those cases fall back to a single-point estimate from
/// the bandwidth-dominated large transfer (zero latency) — a biased but
/// finite and positive model, which is all a scheduler can ask of a
/// corrupted measurement.
pub fn solve_hockney(small: u64, t_small: f64, large: u64, t_large: f64) -> Option<Hockney> {
    debug_assert!(large > small, "probe sizes must be distinct and increasing");
    if t_small <= 0.0 && t_large <= 0.0 {
        return None; // shared memory — no measurable link
    }
    if t_large > t_small {
        let beta = (large - small) as f64 / (t_large - t_small);
        let alpha = (t_small - small as f64 / beta).max(0.0);
        if beta.is_finite() && beta > 0.0 && alpha.is_finite() {
            return Some(Hockney::new(alpha, beta));
        }
    }
    // Degenerate ordering: estimate bandwidth from whichever probe
    // actually took time, preferring the large (less latency-biased) one.
    if t_large > 0.0 {
        Some(Hockney::new(0.0, large as f64 / t_large))
    } else {
        Some(Hockney::new(0.0, small as f64 / t_small))
    }
}

/// Measure one device's parameters via simulated microbenchmarks.
pub fn profile_device(engine: &Engine, dev: DeviceId) -> MeasuredParams {
    let mut scratch = engine.clone();
    scratch.reset();

    // --- link: two sizes, solve alpha + n/beta. -------------------------
    let small: u64 = 1 << 16; // 64 KiB — latency-sensitive
    let large: u64 = 1 << 26; // 64 MiB — bandwidth-dominated
    let t_small_end = scratch.transfer(dev, small, Dir::H2D, SimTime::ZERO, "probe-small");
    let t_small = t_small_end.as_secs();
    let before = scratch.dma_free_at(dev);
    let t_large_end = scratch.transfer(dev, large, Dir::H2D, before, "probe-large");
    let t_large = (t_large_end - before).as_secs();

    let link = solve_hockney(small, t_small, large, t_large);

    // --- compute rate. --------------------------------------------------
    let cp = compute_probe();
    let iters = 200_000u64;
    let ready = scratch.compute_free_at(dev);
    let end = scratch.compute(dev, &ChunkWork::new(iters, &cp), ready, "probe-flops");
    let perf_flops = iters as f64 * cp.flops_per_iter / (end - ready).as_secs();

    // --- memory bandwidth. ----------------------------------------------
    let sp = stream_probe();
    let iters = 50_000_000u64;
    let ready = scratch.compute_free_at(dev);
    let end = scratch.compute(dev, &ChunkWork::new(iters, &sp), ready, "probe-stream");
    let secs = (end - ready).as_secs();
    let mem_bw = iters as f64 * sp.mem_elems_per_iter * sp.elem_bytes / secs;

    let launch_overhead = engine.machine().devices[dev as usize].launch_overhead;
    DeviceParams { perf_flops, mem_bw, link, launch_overhead }
}

/// Profile every device of the engine's machine.
pub fn profile_machine(engine: &Engine) -> Vec<MeasuredParams> {
    (0..engine.n_devices() as DeviceId).map(|d| profile_device(engine, d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::noise::NoiseModel;

    #[test]
    fn noiseless_profile_recovers_ground_truth() {
        let e = Engine::noiseless(Machine::full_node());
        for d in &e.machine().devices {
            let p = profile_device(&e, d.id);
            let truth = d.to_params();
            assert!(
                (p.perf_flops - truth.perf_flops).abs() / truth.perf_flops < 1e-6,
                "{}: perf {} vs {}",
                d.name,
                p.perf_flops,
                truth.perf_flops
            );
            assert!(
                (p.mem_bw - truth.mem_bw).abs() / truth.mem_bw < 1e-6,
                "{}: bw {} vs {}",
                d.name,
                p.mem_bw,
                truth.mem_bw
            );
            match (p.link, truth.link) {
                (None, None) => {}
                (Some(m), Some(t)) => {
                    assert!((m.beta - t.beta).abs() / t.beta < 1e-6);
                    assert!((m.alpha - t.alpha).abs() < 1e-9);
                }
                other => panic!("{}: link mismatch {:?}", d.name, other),
            }
        }
    }

    #[test]
    fn noisy_profile_is_close_but_not_exact() {
        let e = Engine::new(Machine::four_k40(), NoiseModel::new(5, 0.03));
        let p = profile_device(&e, 0);
        let truth = e.machine().devices[0].to_params();
        let rel = (p.perf_flops - truth.perf_flops).abs() / truth.perf_flops;
        assert!(rel < 0.05, "estimate should be within noise amplitude, got {rel}");
        assert!(rel > 0.0, "noisy estimate should not be exact");
    }

    #[test]
    fn profiling_does_not_disturb_engine() {
        let e = Engine::noiseless(Machine::four_k40());
        let _ = profile_machine(&e);
        assert!(e.trace().is_empty());
        assert_eq!(e.compute_free_at(0), SimTime::ZERO);
    }

    #[test]
    fn solve_hockney_recovers_and_survives_degenerate_timings() {
        let (small, large) = (1u64 << 16, 1u64 << 26);
        // Clean two-point data recovers the ground truth.
        let h = solve_hockney(small, 1e-5 + small as f64 / 1e10, large, 1e-5 + large as f64 / 1e10)
            .unwrap();
        assert!((h.beta - 1e10).abs() / 1e10 < 1e-9);
        assert!((h.alpha - 1e-5).abs() < 1e-12);
        // Inverted ordering (noise): single-point fallback on the large
        // probe, zero latency.
        let h = solve_hockney(small, 2e-3, large, 1e-3).unwrap();
        assert_eq!(h.alpha, 0.0);
        assert!((h.beta - large as f64 / 1e-3).abs() < 1.0);
        // Equal timings: same fallback, still finite and positive.
        let h = solve_hockney(small, 1e-3, large, 1e-3).unwrap();
        assert!(h.beta.is_finite() && h.beta > 0.0);
        // Both zero: shared memory, no link.
        assert!(solve_hockney(small, 0.0, large, 0.0).is_none());
    }

    #[test]
    fn adversarial_noise_seed_cannot_break_profiling() {
        // Hunt for a seed where ±99.9% jitter makes the 64 MiB probe
        // appear *faster* than the 64 KiB one — the case whose two-point
        // solve would demand a negative bandwidth.
        let (small, large) = (1u64 << 16, 1u64 << 26);
        let mut hit = None;
        for seed in 0..50_000u64 {
            let e = Engine::new(Machine::four_k40(), NoiseModel::new(seed, 0.999));
            let mut scratch = e.clone();
            scratch.reset();
            let t_small =
                scratch.transfer(0, small, Dir::H2D, SimTime::ZERO, "probe-small").as_secs();
            let before = scratch.dma_free_at(0);
            let t_large =
                (scratch.transfer(0, large, Dir::H2D, before, "probe-large") - before).as_secs();
            if t_large <= t_small {
                hit = Some((seed, e));
                break;
            }
        }
        let (seed, e) = hit.expect("an inverting seed exists in the scan range");
        let p = profile_device(&e, 0);
        let link = p.link.expect("K40 has a link");
        assert!(link.beta.is_finite() && link.beta > 0.0, "seed {seed}: beta {}", link.beta);
        assert!(link.alpha.is_finite() && link.alpha >= 0.0);
        assert!(p.perf_flops.is_finite() && p.perf_flops > 0.0);
        assert!(p.mem_bw.is_finite() && p.mem_bw > 0.0);
    }

    #[test]
    fn host_profiles_without_link() {
        let e = Engine::noiseless(Machine::two_cpus_two_mics());
        let p = profile_device(&e, 0);
        assert!(p.link.is_none());
        let p_mic = profile_device(&e, 2);
        assert!(p_mic.link.is_some());
    }
}
