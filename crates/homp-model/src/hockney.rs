//! Hockney's "α–β" communication model.
//!
//! The paper prices data movement to and from a device with Hockney's
//! model \[11\]: the time to move a message of `n` bytes over a link is
//! `α + n/β`, where `α` is the fixed startup latency and `β` the
//! asymptotic bandwidth. This is the `DataT_dev` term of `MODEL_2_AUTO`.

/// Latency/bandwidth model of one link (e.g. a PCIe lane to a GPU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hockney {
    /// Startup latency per transfer, seconds.
    pub alpha: f64,
    /// Asymptotic bandwidth, bytes per second.
    pub beta: f64,
}

impl Hockney {
    /// Create a link model. `beta` must be positive.
    ///
    /// # Panics
    /// Panics if `beta <= 0` or `alpha < 0`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(beta > 0.0, "bandwidth must be positive, got {beta}");
        assert!(alpha >= 0.0, "latency must be non-negative, got {alpha}");
        Self { alpha, beta }
    }

    /// Time in seconds to transfer `bytes` bytes in one transaction.
    pub fn time(&self, bytes: f64) -> f64 {
        debug_assert!(bytes >= 0.0);
        self.alpha + bytes / self.beta
    }

    /// Effective bandwidth (bytes/s) achieved for a message of `bytes`.
    pub fn effective_bandwidth(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        bytes / self.time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcie() -> Hockney {
        // Roughly PCIe 3.0 x16: ~10 us latency, ~12 GB/s sustained.
        Hockney::new(10e-6, 12e9)
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let l = pcie();
        assert_eq!(l.time(0.0), 10e-6);
    }

    #[test]
    fn large_transfer_is_bandwidth_dominated() {
        let l = pcie();
        let t = l.time(12e9); // one second of payload
        assert!((t - 1.000_010).abs() < 1e-9);
    }

    #[test]
    fn half_bandwidth_point() {
        // `n_1/2 = α·β`: 10 µs × 12 GB/s = 120 kB reaches half the peak.
        let l = pcie();
        let eff = l.effective_bandwidth(120e3);
        assert!((eff - l.beta / 2.0).abs() / l.beta < 1e-12);
    }

    #[test]
    fn effective_bandwidth_monotonic_in_size() {
        let l = pcie();
        let mut prev = 0.0;
        for pow in 0..12 {
            let eff = l.effective_bandwidth(10f64.powi(pow));
            assert!(eff > prev);
            prev = eff;
        }
        assert!(prev < l.beta);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        Hockney::new(1e-6, 0.0);
    }
}
