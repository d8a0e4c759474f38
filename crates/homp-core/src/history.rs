//! History-based prediction (the Qilin approach the paper cites as
//! related work \[21\] and lists under future enhancements).
//!
//! "Luk et al. use historical execution to project the execution time
//! of a given problem size." Every offload already measures each
//! device's throughput; this module persists those measurements
//! per `(kernel, device)` and fits the paper's Equation 1 —
//! `T = g_i(N)`, taken as affine `T = a + b·N` — by least squares.
//! Once a kernel has history on every participating device, the
//! distribution can be driven by *measured* rates instead of model
//! predictions, combining MODEL_2's single-stage cheapness with
//! profiling's accuracy and amortizing the learning across offloads.

use homp_sim::DeviceId;
use std::collections::HashMap;

/// Online least-squares fit of `T = a + b·N` from (N, T) samples.
///
/// Accumulates Welford-style *centered* sums (running means plus
/// `Σ(x−x̄)²` and `Σ(x−x̄)(y−ȳ)`) rather than raw `Σx²`/`Σxy`. With raw
/// sums, fitting at `N ~ 1e9` computes `n·Σx² − (Σx)²` as the difference
/// of two ~1e20 quantities whose true gap is set by the *spread* of the
/// samples — catastrophic cancellation that corrupts the slope; the
/// centered form never subtracts large near-equal numbers.
#[derive(Debug, Clone, Default)]
pub struct AffineFit {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    /// `Σ (x − x̄)²`, updated online.
    s_xx: f64,
    /// `Σ (x − x̄)(y − ȳ)`, updated online.
    s_xy: f64,
}

impl AffineFit {
    /// Record one sample (`iters`, `seconds`).
    pub fn add(&mut self, iters: u64, seconds: f64) {
        let x = iters as f64;
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        let dy = seconds - self.mean_y;
        self.mean_y += dy / n;
        // dx uses the *old* mean, the second factors the *new* means —
        // the standard online covariance update.
        self.s_xx += dx * (x - self.mean_x);
        self.s_xy += dx * (seconds - self.mean_y);
    }

    /// Number of samples.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// The fitted `(a, b)`; `None` with fewer than two distinct samples.
    /// With exactly one sample, callers may still use [`Self::rate`].
    pub fn coefficients(&self) -> Option<(f64, f64)> {
        if self.n < 2 {
            return None;
        }
        // Centered variance is exactly zero when every sample shares one
        // abscissa; guard against rounding dust relative to x̄².
        if self.s_xx <= 1e-12 * self.mean_x * self.mean_x {
            return None; // all samples at the same N
        }
        let b = self.s_xy / self.s_xx;
        let a = self.mean_y - b * self.mean_x;
        Some((a, b))
    }

    /// Predicted seconds for `iters` iterations. Falls back to the mean
    /// observed rate when no affine fit is available.
    pub fn predict(&self, iters: u64) -> Option<f64> {
        match self.coefficients() {
            Some((a, b)) if b > 0.0 => Some((a + b * iters as f64).max(0.0)),
            _ => self.rate().map(|r| iters as f64 / r),
        }
    }

    /// Mean observed throughput, iterations per second
    /// (`Σ iters / Σ seconds`, i.e. `x̄/ȳ`).
    pub fn rate(&self) -> Option<f64> {
        if self.n == 0 || self.mean_y <= 0.0 {
            None
        } else {
            Some(self.mean_x / self.mean_y)
        }
    }
}

/// Per-(kernel, device) execution history.
#[derive(Debug, Clone, Default)]
pub struct HistoryDb {
    fits: HashMap<(String, DeviceId), AffineFit>,
}

impl HistoryDb {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a measured execution: `iters` of `kernel` kept `device`
    /// busy for `seconds`. The runtime records the busiest of the
    /// device's upload, kernel and download time, the resource that
    /// bounds the throughput of a device streaming chunks.
    pub fn record(&mut self, kernel: &str, device: DeviceId, iters: u64, seconds: f64) {
        if iters == 0 || seconds <= 0.0 {
            return;
        }
        self.fits.entry((kernel.to_string(), device)).or_default().add(iters, seconds);
    }

    /// Predicted throughput (iterations/second) of `kernel` on `device`
    /// for a chunk of roughly `iters`.
    pub fn predicted_rate(&self, kernel: &str, device: DeviceId, iters: u64) -> Option<f64> {
        let fit = self.fits.get(&(kernel.to_string(), device))?;
        let t = fit.predict(iters)?;
        if t <= 0.0 {
            return fit.rate();
        }
        Some(iters as f64 / t)
    }

    /// Whether every device in `devices` has history for `kernel`.
    pub fn covers(&self, kernel: &str, devices: &[DeviceId]) -> bool {
        devices.iter().all(|d| {
            self.fits.get(&(kernel.to_string(), *d)).map(|f| f.samples() > 0).unwrap_or(false)
        })
    }

    /// Number of (kernel, device) entries.
    pub fn len(&self) -> usize {
        self.fits.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.fits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_fit_recovers_line() {
        let mut f = AffineFit::default();
        // T = 0.5 + 2e-6 * N
        for n in [1_000u64, 5_000, 10_000, 50_000] {
            f.add(n, 0.5 + 2e-6 * n as f64);
        }
        let (a, b) = f.coefficients().unwrap();
        assert!((a - 0.5).abs() < 1e-9, "a = {a}");
        assert!((b - 2e-6).abs() < 1e-12, "b = {b}");
        let t = f.predict(20_000).unwrap();
        assert!((t - 0.54).abs() < 1e-9);
    }

    #[test]
    fn affine_fit_is_stable_at_billion_iteration_counts() {
        // Raw-sum least squares computes n·Σx² − (Σx)² here as the
        // difference of two ~1e20 values with a true gap of ~1e14 —
        // losing most of the slope's significant digits. The centered
        // accumulation must recover (a, b) to tight relative tolerance.
        let (a_true, b_true) = (0.5, 2e-6);
        let mut f = AffineFit::default();
        for k in 0..10u64 {
            let n = 1_000_000_000 + k * 1_000; // tiny spread on a huge base
            f.add(n, a_true + b_true * n as f64);
        }
        let (a, b) = f.coefficients().unwrap();
        assert!((b - b_true).abs() / b_true < 1e-9, "b = {b:e}, want {b_true:e}");
        assert!((a - a_true).abs() / a_true < 1e-5, "a = {a}, want {a_true}");
        let n_q = 1_000_004_500u64;
        let t = f.predict(n_q).unwrap();
        let want = a_true + b_true * n_q as f64;
        assert!((t - want).abs() / want < 1e-9, "predict {t} want {want}");
    }

    #[test]
    fn single_sample_uses_mean_rate() {
        let mut f = AffineFit::default();
        f.add(1_000, 0.1);
        assert_eq!(f.coefficients(), None);
        assert!((f.rate().unwrap() - 10_000.0).abs() < 1e-9);
        assert!((f.predict(500).unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn degenerate_same_n_samples() {
        let mut f = AffineFit::default();
        f.add(1_000, 0.1);
        f.add(1_000, 0.2);
        assert_eq!(f.coefficients(), None, "no slope from one abscissa");
        assert!(f.predict(1_000).is_some(), "falls back to mean rate");
    }

    #[test]
    fn db_coverage_and_rates() {
        let mut db = HistoryDb::new();
        assert!(db.is_empty());
        db.record("axpy", 0, 10_000, 0.001);
        db.record("axpy", 1, 10_000, 0.002);
        assert_eq!(db.len(), 2);
        assert!(db.covers("axpy", &[0, 1]));
        assert!(!db.covers("axpy", &[0, 1, 2]));
        assert!(!db.covers("matmul", &[0]));
        let r0 = db.predicted_rate("axpy", 0, 10_000).unwrap();
        let r1 = db.predicted_rate("axpy", 1, 10_000).unwrap();
        assert!(r0 > r1, "device 0 measured 2x faster");
    }

    #[test]
    fn zero_samples_ignored() {
        let mut db = HistoryDb::new();
        db.record("k", 0, 0, 1.0);
        db.record("k", 0, 10, 0.0);
        assert!(db.is_empty());
    }
}
