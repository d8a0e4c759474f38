//! `MODEL_2_AUTO` — distribution considering compute *and* data movement.
//!
//! Section IV-B.2: on an accelerator the time for a chunk is
//! `T = DataT_dev + ExeT_dev`, with `DataT` priced by the Hockney model
//! and `ExeT` by the roofline-attenuated compute rate. Equation 5 factors
//! the host/device speedup into kernel characteristics
//! (`MemComp / DataComp`) and two machine constants
//! (`Perf_host / Bandwidth` and `Perf_host / Perf_dev`); here we keep the
//! equivalent but more direct per-iteration cost formulation
//!
//! ```text
//! T_i(n) = launch_i + α_i + n · (data_bytes/β_i + flops/attainable_i)
//! ```
//!
//! and solve for all devices finishing at the same `T_0`:
//!
//! ```text
//! n_i = (T_0 − fixed_i) / c_i,   Σ n_i = N
//! ```
//!
//! where `fixed_i = launch_i + α_i` and `c_i` is the marginal per-
//! iteration cost. Devices whose `fixed_i ≥ T_0` would get negative
//! work; they are clamped to zero and the system re-solved without them
//! (the same effect CUTOFF formalizes with a ratio threshold).

use crate::roofline::{attainable_rate, KernelIntensity};
use crate::DeviceParams;

/// Decomposed per-device cost for a kernel, the `DataT`/`ExeT` split of
/// Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCost {
    /// Fixed cost paid once per offload: launch overhead + link latency.
    pub fixed: f64,
    /// Marginal seconds per iteration spent moving data (0 for host).
    pub data_per_iter: f64,
    /// Marginal seconds per iteration spent computing.
    pub exe_per_iter: f64,
}

impl DeviceCost {
    /// Total marginal cost of one iteration.
    pub fn per_iter(&self) -> f64 {
        self.data_per_iter + self.exe_per_iter
    }

    /// Predicted time for `n` iterations on this device.
    pub fn time(&self, n: f64) -> f64 {
        if n <= 0.0 {
            0.0
        } else {
            self.fixed + n * self.per_iter()
        }
    }
}

/// Build the cost decomposition of `kernel` on `dev`.
pub fn device_cost(dev: &DeviceParams, kernel: &KernelIntensity) -> DeviceCost {
    let exe_rate = attainable_rate(kernel, dev.perf_flops, dev.mem_bw);
    let exe_per_iter = kernel.flops_per_iter / exe_rate;
    let (fixed, data_per_iter) = match dev.link {
        Some(link) => (dev.launch_overhead + link.alpha, kernel.data_bytes_per_iter() / link.beta),
        None => (dev.launch_overhead, 0.0),
    };
    DeviceCost { fixed, data_per_iter, exe_per_iter }
}

/// The three ratio factors of Equation 5, exactly as the paper writes
/// them:
///
/// ```text
/// DataT_dev + ExeT_dev     MemComp     Perf_host     Perf_host
/// -------------------- ≈  -------- ×  ---------  +  ---------
///      ExeT_host           DataComp    Bandwidth     Perf_dev
/// ```
///
/// The first factor is a kernel characteristic, the second and third are
/// machine characteristics "obtained through microbenchmark profiling".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eq5Factors {
    /// `MemComp / DataComp` — actually applied as `Size_data/FLOPs`
    /// (i.e. `DataComp` in byte units) per the derivation.
    pub kernel_ratio: f64,
    /// `Perf_host / Bandwidth` (host FLOP/s per link byte/s).
    pub perf_over_bandwidth: f64,
    /// `Perf_host / Perf_dev`.
    pub perf_ratio: f64,
}

impl Eq5Factors {
    /// The relative time of the device vs the host per Equation 5:
    /// `T_dev / T_host = kernel_ratio × perf_over_bandwidth + perf_ratio`
    /// (the *speedup* of offloading is the reciprocal).
    pub fn relative_time(&self) -> f64 {
        self.kernel_ratio * self.perf_over_bandwidth + self.perf_ratio
    }
}

/// Compute Equation 5's factors for offloading `kernel` from `host` to
/// `dev`. Uses raw peak rates (no roofline attenuation), as the paper's
/// formula does — the approximation error relative to the ratio of
/// [`device_cost`]s is the model's documented simplification.
pub fn eq5_factors(
    host: &DeviceParams,
    dev: &DeviceParams,
    kernel: &KernelIntensity,
) -> Option<Eq5Factors> {
    let link = dev.link?;
    Some(Eq5Factors {
        kernel_ratio: kernel.data_bytes_per_iter() / kernel.flops_per_iter,
        perf_over_bandwidth: host.perf_flops / link.beta,
        perf_ratio: host.perf_flops / dev.perf_flops,
    })
}

/// `MODEL_2` shares for a loop of `n` iterations: fraction of the loop per
/// device such that (per the model) all participating devices finish
/// together. Shares sum to 1; devices priced out entirely get share 0.
pub fn model2_shares(devices: &[DeviceParams], kernel: &KernelIntensity, n: u64) -> Vec<f64> {
    assert!(!devices.is_empty(), "need at least one device");
    let costs: Vec<DeviceCost> = devices.iter().map(|d| device_cost(d, kernel)).collect();
    if n == 0 {
        // No finish time to equalize: every fixed cost would exceed it
        // and price out every device. Split by throughput instead.
        let inv_c: Vec<f64> = costs.iter().map(|c| 1.0 / c.per_iter()).collect();
        let sum: f64 = inv_c.iter().sum();
        return inv_c.iter().map(|ic| ic / sum).collect();
    }
    let mut active: Vec<usize> = (0..devices.len()).collect();

    loop {
        // Solve Σ (T0 - fixed_i)/c_i = N over active devices.
        let inv_c: Vec<f64> = active.iter().map(|&i| 1.0 / costs[i].per_iter()).collect();
        let sum_inv_c: f64 = inv_c.iter().sum();
        let sum_fixed_over_c: f64 =
            active.iter().zip(&inv_c).map(|(&i, ic)| costs[i].fixed * ic).sum();
        let t0 = (n as f64 + sum_fixed_over_c) / sum_inv_c;

        // Devices whose fixed cost exceeds T0 would get negative work.
        let dropped: Vec<usize> =
            active.iter().copied().filter(|&i| costs[i].fixed >= t0).collect();
        if dropped.is_empty() || active.len() == 1 {
            let mut shares = vec![0.0; devices.len()];
            for (&i, ic) in active.iter().zip(&inv_c) {
                shares[i] = ((t0 - costs[i].fixed) * ic / n as f64).max(0.0);
            }
            // Normalize away rounding drift so shares sum to exactly 1.
            let s: f64 = shares.iter().sum();
            if s > 0.0 {
                for v in &mut shares {
                    *v /= s;
                }
            } else {
                shares[active[0]] = 1.0;
            }
            return shares;
        }
        active.retain(|i| !dropped.contains(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hockney::Hockney;
    use proptest::prelude::*;

    fn axpy() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        }
    }

    fn matmul_like() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 12288.0, // 2*N per output element at N=6144
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        }
    }

    fn host() -> DeviceParams {
        DeviceParams::host(6.6e11, 6.8e10)
    }

    fn gpu() -> DeviceParams {
        DeviceParams::accelerator(1.43e12, 2.88e11, Hockney::new(1e-5, 1.2e10), 1e-5)
    }

    #[test]
    fn shares_sum_to_one() {
        let s = model2_shares(&[host(), gpu(), gpu()], &axpy(), 10_000_000);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_loop_still_has_shares() {
        let s = model2_shares(&[host(), gpu(), gpu()], &axpy(), 0);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|&v| v > 0.0), "{s:?}");
    }

    #[test]
    fn data_intensive_kernel_favors_host_more_than_model1_would() {
        // For AXPY the GPU must pay bus transfer for every element, so its
        // model-2 share must be below its compute-only (model-1) share.
        let devs = [host(), gpu()];
        let m2 = model2_shares(&devs, &axpy(), 100_000_000);
        let m1 = crate::model1::model1_shares(&devs, &axpy());
        assert!(m2[1] < m1[1], "model2 GPU share {} !< model1 {}", m2[1], m1[1]);
        assert!(m2[0] > m1[0]);
    }

    #[test]
    fn compute_intensive_kernel_shares_converge_to_model1() {
        // matmul moves few bytes per FLOP: transfer is a second-order
        // correction and the two models should be close (PCIe still costs
        // the GPU a few percent of its share at K40-class constants).
        let devs = [host(), gpu()];
        let m2 = model2_shares(&devs, &matmul_like(), 37_748_736);
        let m1 = crate::model1::model1_shares(&devs, &matmul_like());
        assert!((m2[1] - m1[1]).abs() < 0.08, "m2 {} vs m1 {}", m2[1], m1[1]);
        assert!(m2[1] < m1[1], "transfer cost can only lower the GPU share");
    }

    #[test]
    fn tiny_loop_drops_high_latency_device() {
        // 16 iterations of AXPY: the GPU's fixed cost dwarfs T0, so the
        // host should take everything.
        let slow_link_gpu =
            DeviceParams::accelerator(1.43e12, 2.88e11, Hockney::new(1e-2, 1.2e10), 1e-3);
        let s = model2_shares(&[host(), slow_link_gpu], &axpy(), 16);
        assert!(s[0] > 0.999);
        assert!(s[1] < 1e-9);
    }

    #[test]
    fn eq5_factors_match_direct_formula_when_compute_bound() {
        // With no roofline attenuation (compute-bound on both ends) and
        // negligible fixed costs, Eq. 5's factored form must equal the
        // direct per-iteration cost ratio.
        let h = DeviceParams::host(6.6e11, 1e20);
        let g = DeviceParams::accelerator(1.43e12, 1e20, Hockney::new(0.0, 1.2e10), 0.0);
        let k = matmul_like();
        let f = eq5_factors(&h, &g, &k).unwrap();
        let n = 1e12; // amortize the host's 1 µs launch constant away
        let th = device_cost(&h, &k).time(n);
        let td = device_cost(&g, &k).time(n);
        let direct = td / th;
        assert!(
            (f.relative_time() - direct).abs() / direct < 1e-9,
            "factored {} vs direct {}",
            f.relative_time(),
            direct
        );
    }

    #[test]
    fn eq5_kernel_factor_is_datacomp_in_bytes() {
        let h = DeviceParams::host(1e12, 1e11);
        let g = gpu();
        let f = eq5_factors(&h, &g, &axpy()).unwrap();
        // AXPY: 3 elements × 8 B over 2 FLOPs = 12 B/FLOP.
        assert!((f.kernel_ratio - 12.0).abs() < 1e-12);
    }

    #[test]
    fn eq5_needs_a_link() {
        let h = DeviceParams::host(1e12, 1e11);
        assert!(eq5_factors(&h, &h, &axpy()).is_none());
    }

    #[test]
    fn host_has_no_data_term() {
        let c = device_cost(&host(), &axpy());
        assert_eq!(c.data_per_iter, 0.0);
    }

    #[test]
    fn predicted_completion_times_equalize() {
        let devs = [host(), gpu(), gpu()];
        let k = axpy();
        let n = 50_000_000u64;
        let s = model2_shares(&devs, &k, n);
        let times: Vec<f64> = devs
            .iter()
            .zip(&s)
            .filter(|(_, sh)| **sh > 1e-9)
            .map(|(d, sh)| device_cost(d, &k).time(sh * n as f64))
            .collect();
        let t0 = times[0];
        for t in &times {
            assert!((t - t0).abs() / t0 < 1e-6, "times {:?}", times);
        }
    }

    proptest! {
        #[test]
        fn shares_valid_for_random_machines(
            n_dev in 1usize..6,
            perfs in proptest::collection::vec(1e10f64..2e12, 6),
            alphas in proptest::collection::vec(1e-7f64..1e-3, 6),
            n in 1u64..50_000_000,
        ) {
            let devs: Vec<DeviceParams> = (0..n_dev)
                .map(|i| {
                    if i == 0 {
                        DeviceParams::host(perfs[i], 6.8e10)
                    } else {
                        DeviceParams::accelerator(
                            perfs[i], 2.88e11,
                            Hockney::new(alphas[i], 1.2e10), 1e-5)
                    }
                })
                .collect();
            let s = model2_shares(&devs, &axpy(), n);
            prop_assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for v in &s {
                prop_assert!(*v >= 0.0 && *v <= 1.0 + 1e-12);
            }
        }
    }
}
