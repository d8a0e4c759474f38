//! Model-based distribution (`MODEL_1_AUTO`, `MODEL_2_AUTO`) with
//! optional CUTOFF device selection (Sections IV-B and IV-E).
//!
//! Thin orchestration over `homp-model`: compute predicted shares from
//! the (profiled) device parameters, apply the CUTOFF filter, apportion
//! to integer counts.

use homp_model::{
    apply_cutoff, largest_remainder, model1_shares, model2_shares, CutoffOutcome, DeviceParams,
    KernelIntensity,
};

/// Outcome of a model-based plan.
#[derive(Debug, Clone)]
pub struct ModelPlan {
    /// Iterations per device (original indexing; dropped devices get 0).
    pub counts: Vec<u64>,
    /// Which device slots survived CUTOFF (all, when no cutoff given).
    pub kept: Vec<usize>,
    /// The raw predicted shares before apportionment.
    pub shares: Vec<f64>,
}

fn plan_with(
    predict: impl Fn(&[usize]) -> Vec<f64>,
    n_devices: usize,
    trip_count: u64,
    cutoff: Option<f64>,
) -> ModelPlan {
    let outcome: CutoffOutcome = match cutoff {
        Some(ratio) => apply_cutoff(n_devices, ratio, |idx| predict(idx)),
        None => {
            let all: Vec<usize> = (0..n_devices).collect();
            let shares = predict(&all);
            CutoffOutcome { kept: all, shares, removed: vec![] }
        }
    };
    let full = outcome.full_shares(n_devices);
    let counts = largest_remainder(&full, trip_count);
    ModelPlan { counts, kept: outcome.kept, shares: full }
}

/// `MODEL_1_AUTO`: shares from compute capability only.
pub fn model1_plan(
    devices: &[DeviceParams],
    kernel: &KernelIntensity,
    trip_count: u64,
    cutoff: Option<f64>,
) -> ModelPlan {
    plan_with(
        |idx| {
            let subset: Vec<DeviceParams> = idx.iter().map(|&i| devices[i]).collect();
            model1_shares(&subset, kernel)
        },
        devices.len(),
        trip_count,
        cutoff,
    )
}

/// `MODEL_2_AUTO`: shares from compute + data movement cost.
pub fn model2_plan(
    devices: &[DeviceParams],
    kernel: &KernelIntensity,
    trip_count: u64,
    cutoff: Option<f64>,
) -> ModelPlan {
    plan_with(
        |idx| {
            let subset: Vec<DeviceParams> = idx.iter().map(|&i| devices[i]).collect();
            model2_shares(&subset, kernel, trip_count)
        },
        devices.len(),
        trip_count,
        cutoff,
    )
}

/// Stage-2 of the profiling algorithms: distribute `remaining`
/// iterations proportionally to *measured* per-device throughput
/// (iterations per second), with optional CUTOFF.
pub fn throughput_plan(throughputs: &[f64], remaining: u64, cutoff: Option<f64>) -> ModelPlan {
    plan_with(
        |idx| {
            let total: f64 = idx.iter().map(|&i| throughputs[i].max(0.0)).sum();
            if total <= 0.0 {
                let mut s = vec![0.0; idx.len()];
                s[0] = 1.0;
                return s;
            }
            idx.iter().map(|&i| throughputs[i].max(0.0) / total).collect()
        },
        throughputs.len(),
        remaining,
        cutoff,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_model::Hockney;

    fn axpy() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        }
    }

    fn mixed_machine() -> Vec<DeviceParams> {
        vec![
            DeviceParams::host(1.06e12, 1.36e11),
            DeviceParams::accelerator(1.0e12, 2.88e11, Hockney::new(1e-5, 1.2e10), 1e-5),
            DeviceParams::accelerator(5.4e11, 3.52e11, Hockney::new(2e-5, 6e9), 5e-5),
        ]
    }

    #[test]
    fn model1_counts_cover_loop() {
        let p = model1_plan(&mixed_machine(), &axpy(), 1_000_000, None);
        assert_eq!(p.counts.iter().sum::<u64>(), 1_000_000);
        assert_eq!(p.kept.len(), 3);
    }

    #[test]
    fn model2_gives_host_more_on_data_intensive() {
        let devs = mixed_machine();
        let m1 = model1_plan(&devs, &axpy(), 1_000_000, None);
        let m2 = model2_plan(&devs, &axpy(), 1_000_000, None);
        assert!(
            m2.counts[0] > m1.counts[0],
            "m2 host {} should exceed m1 host {}",
            m2.counts[0],
            m1.counts[0]
        );
    }

    #[test]
    fn cutoff_zeroes_dropped_devices() {
        // Make the third device predictably tiny.
        let mut devs = mixed_machine();
        devs[2].perf_flops = 1e9;
        devs[2].mem_bw = 1e9;
        let p = model1_plan(&devs, &axpy(), 1_000_000, Some(0.15));
        assert_eq!(p.counts[2], 0);
        assert!(!p.kept.contains(&2));
        assert_eq!(p.counts.iter().sum::<u64>(), 1_000_000);
    }

    #[test]
    fn throughput_plan_proportional() {
        let p = throughput_plan(&[100.0, 300.0], 400, None);
        assert_eq!(p.counts, vec![100, 300]);
    }

    #[test]
    fn throughput_plan_with_cutoff() {
        let p = throughput_plan(&[100.0, 300.0, 10.0], 410, Some(0.15));
        assert_eq!(p.counts[2], 0);
        assert_eq!(p.counts.iter().sum::<u64>(), 410);
    }

    #[test]
    fn zero_throughputs_fall_back() {
        let p = throughput_plan(&[0.0, 0.0], 10, None);
        assert_eq!(p.counts.iter().sum::<u64>(), 10);
    }
}
