//! Sample-profiling distribution (Section IV-C).
//!
//! Two stages: "the system first computes a small amount of loop
//! iterations on CPU and accelerators to determine the throughput of
//! each device for the loop (stage 1), and then distributes the
//! remaining iterations according to the rate (stage 2)."
//!
//! * `SCHED_PROFILE_AUTO` — every device samples the *same* number of
//!   iterations in stage 1.
//! * `MODEL_PROFILE_AUTO` — stage-1 sizes come from the analytical
//!   model, so slow devices are not overloaded even during profiling.
//!
//! Stage 2 is [`crate::sched::model_sched::throughput_plan`] over the
//! measured rates.

use homp_model::{largest_remainder, model2_shares, DeviceParams, KernelIntensity};

/// Stage-1 sample sizes for `SCHED_PROFILE_AUTO`: the sample budget
/// (`sample_pct` of the trip count) split equally.
pub fn const_sample_counts(trip_count: u64, n_devices: usize, sample_pct: f64) -> Vec<u64> {
    assert!(n_devices > 0);
    let budget = sample_budget(trip_count, sample_pct);
    let per = budget / n_devices as u64;
    let mut counts = vec![per; n_devices];
    let mut rem = budget - per * n_devices as u64;
    for c in counts.iter_mut() {
        if rem == 0 {
            break;
        }
        *c += 1;
        rem -= 1;
    }
    counts
}

/// Stage-1 sample sizes for `MODEL_PROFILE_AUTO`: the same budget split
/// by the MODEL_2 prediction.
pub fn model_sample_counts(
    devices: &[DeviceParams],
    kernel: &KernelIntensity,
    trip_count: u64,
    sample_pct: f64,
) -> Vec<u64> {
    let budget = sample_budget(trip_count, sample_pct);
    let shares = model2_shares(devices, kernel, budget.max(1));
    largest_remainder(&shares, budget)
}

/// The stage-1 iteration budget: `sample_pct`% of the loop, at least one
/// iteration per device's worth, never the whole loop.
fn sample_budget(trip_count: u64, sample_pct: f64) -> u64 {
    let b = (trip_count as f64 * sample_pct / 100.0).round() as u64;
    b.clamp(1.min(trip_count), trip_count)
}

/// Measured throughput from a stage-1 sample: iterations per second.
/// Zero-duration samples (e.g. a device that got no work) yield zero.
pub fn measured_throughput(iters: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 || iters == 0 {
        0.0
    } else {
        iters as f64 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_model::Hockney;

    fn kernel() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        }
    }

    #[test]
    fn const_samples_equal() {
        let c = const_sample_counts(1000, 4, 10.0);
        assert_eq!(c, vec![25, 25, 25, 25]);
        assert_eq!(c.iter().sum::<u64>(), 100);
    }

    #[test]
    fn const_samples_distribute_remainder() {
        let c = const_sample_counts(1000, 3, 10.0);
        assert_eq!(c.iter().sum::<u64>(), 100);
        assert_eq!(c, vec![34, 33, 33]);
    }

    #[test]
    fn model_samples_favor_fast_devices() {
        // Compute-bound kernel: transfers are negligible, so the model
        // should give the 10× faster accelerator most of the sample.
        let compute_bound = KernelIntensity {
            flops_per_iter: 100_000.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        };
        let devs = vec![
            DeviceParams::host(1e11, 1e11),
            DeviceParams::accelerator(1e12, 2.88e11, Hockney::new(1e-5, 1.2e10), 1e-5),
        ];
        let c = model_sample_counts(&devs, &compute_bound, 10_000_000, 10.0);
        assert_eq!(c.iter().sum::<u64>(), 1_000_000);
        assert!(c[1] > c[0], "faster device samples more: {c:?}");
    }

    #[test]
    fn model_samples_favor_host_on_data_intensive() {
        // For AXPY the host pays no PCIe cost: MODEL_2 samples more there.
        let devs = vec![
            DeviceParams::host(1e11, 1e11),
            DeviceParams::accelerator(1e12, 2.88e11, Hockney::new(1e-5, 1.2e10), 1e-5),
        ];
        let c = model_sample_counts(&devs, &kernel(), 100_000_000, 10.0);
        assert_eq!(c.iter().sum::<u64>(), 10_000_000);
        assert!(c[0] > c[1], "host avoids the bus: {c:?}");
    }

    #[test]
    fn budget_clamps() {
        assert_eq!(sample_budget(100, 10.0), 10);
        assert_eq!(sample_budget(100, 200.0), 100);
        assert_eq!(sample_budget(0, 10.0), 0);
        assert_eq!(sample_budget(5, 1.0), 1, "at least one iteration when possible");
    }

    #[test]
    fn throughput_measurement() {
        assert_eq!(measured_throughput(100, 2.0), 50.0);
        assert_eq!(measured_throughput(0, 2.0), 0.0);
        assert_eq!(measured_throughput(100, 0.0), 0.0);
    }
}
