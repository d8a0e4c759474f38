//! Roofline-style kernel/device interaction model.
//!
//! The paper characterizes each kernel by two intensity ratios
//! (Table IV), both in *elements per FLOP*:
//!
//! * `MemComp` — memory loads/stores per unit of computation. AXPY does
//!   2 FLOPs and 3 element accesses per iteration, so `MemComp = 1.5`.
//! * `DataComp` — bytes moved over the host↔device bus per unit of
//!   computation. For AXPY all three elements cross the bus: `1.5`.
//!
//! A device's *attainable* rate for a kernel is the roofline minimum of
//! its peak compute rate and what its memory system can feed
//! (`min(Perf, BW / bytes_per_flop)`). The simulator uses this as ground
//! truth; `MODEL_2_AUTO` uses the same ratios as its prediction, so model
//! and "machine" agree up to the noise the simulator injects.

/// Per-iteration cost descriptor of a kernel, the inputs from which the
/// Table IV ratios are computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelIntensity {
    /// Floating-point operations per loop iteration.
    pub flops_per_iter: f64,
    /// Memory loads + stores per iteration, in *elements*.
    pub mem_elems_per_iter: f64,
    /// Host↔device traffic per iteration, in *elements* (to + from).
    pub data_elems_per_iter: f64,
    /// Size of one element in bytes (8 for the paper's `REAL = double`).
    pub elem_bytes: f64,
}

impl KernelIntensity {
    /// `MemComp`: memory accesses per FLOP (Table IV).
    pub fn mem_comp(&self) -> f64 {
        self.mem_elems_per_iter / self.flops_per_iter
    }

    /// `DataComp`: bus elements per FLOP (Table IV).
    pub fn data_comp(&self) -> f64 {
        self.data_elems_per_iter / self.flops_per_iter
    }

    /// Arithmetic intensity in FLOPs per *byte* of memory traffic — the
    /// x-axis of the classic roofline plot.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops_per_iter / (self.mem_elems_per_iter * self.elem_bytes)
    }

    /// Bytes of bus traffic per iteration.
    pub fn data_bytes_per_iter(&self) -> f64 {
        self.data_elems_per_iter * self.elem_bytes
    }
}

/// Attainable FLOP/s for a kernel of the given intensity on a device with
/// `peak_flops` compute and `mem_bw` bytes/s of memory bandwidth:
/// `min(peak, BW * intensity)`.
pub fn attainable_rate(intensity: &KernelIntensity, peak_flops: f64, mem_bw: f64) -> f64 {
    let mem_bound = mem_bw * intensity.arithmetic_intensity();
    peak_flops.min(mem_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axpy() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        }
    }

    #[test]
    fn axpy_table_iv_ratios() {
        let k = axpy();
        assert!((k.mem_comp() - 1.5).abs() < 1e-12);
        assert!((k.data_comp() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn axpy_is_memory_bound_on_gpu() {
        // K40-like: 1.43 TFLOP/s, 288 GB/s. AXPY intensity = 2/(24) FLOP/B.
        let k = axpy();
        let rate = attainable_rate(&k, 1.43e12, 288e9);
        let expected = 288e9 * (2.0 / 24.0);
        assert!((rate - expected).abs() / expected < 1e-12);
        assert!(rate < 1.43e12);
    }

    #[test]
    fn compute_intensive_kernel_hits_peak() {
        // matmul-like: intensity grows with N; pick something far past the
        // ridge point.
        let k = KernelIntensity {
            flops_per_iter: 1000.0,
            mem_elems_per_iter: 1.0,
            data_elems_per_iter: 1.0,
            elem_bytes: 8.0,
        };
        let rate = attainable_rate(&k, 1.43e12, 288e9);
        assert_eq!(rate, 1.43e12);
    }

    #[test]
    fn ridge_point_divides_regimes() {
        // 1 TFLOP/s over 100 GB/s: compute-bound above 10 FLOPs/byte.
        let peak = 1e12;
        let bw = 1e11;
        let ridge = 10.0;
        let below = KernelIntensity {
            flops_per_iter: ridge * 8.0 * 0.5,
            mem_elems_per_iter: 1.0,
            data_elems_per_iter: 1.0,
            elem_bytes: 8.0,
        };
        let above = KernelIntensity {
            flops_per_iter: ridge * 8.0 * 2.0,
            mem_elems_per_iter: 1.0,
            data_elems_per_iter: 1.0,
            elem_bytes: 8.0,
        };
        assert!(attainable_rate(&below, peak, bw) < peak);
        assert_eq!(attainable_rate(&above, peak, bw), peak);
    }
}
