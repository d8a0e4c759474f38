//! Virtual time.
//!
//! The simulator measures everything in [`SimTime`] — seconds on a
//! virtual clock that starts at 0 when an offload region begins. Using
//! virtual time instead of wall-clock time makes every experiment
//! deterministic: a schedule is a pure function of its seed.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the virtual clock, in seconds. Totally ordered; NaN is
/// rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.
    ///
    /// # Panics
    /// Panics on NaN or negative input.
    pub fn from_secs(s: f64) -> Self {
        assert!(s.is_finite(), "SimTime must be finite, got {s}");
        assert!(s >= 0.0, "SimTime must be non-negative, got {s}");
        SimTime(s)
    }

    /// Seconds since time zero.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// Milliseconds since time zero (the unit of the paper's figures).
    pub fn as_millis(&self) -> f64 {
        self.0 * 1e3
    }

    /// Microseconds since time zero.
    pub fn as_micros(&self) -> f64 {
        self.0 * 1e6
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Duration since an earlier instant (saturates at zero).
    pub fn since(&self, earlier: SimTime) -> SimSpan {
        SimSpan::from_secs((self.0 - earlier.0).max(0.0))
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction guarantees no NaN.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.4}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.2}us", self.0 * 1e6)
        }
    }
}

/// A length of virtual time, in seconds. Always non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimSpan(f64);

impl SimSpan {
    /// Zero-length span.
    pub const ZERO: SimSpan = SimSpan(0.0);

    /// Construct from seconds.
    ///
    /// # Panics
    /// Panics on NaN or negative input.
    pub fn from_secs(s: f64) -> Self {
        assert!(s.is_finite(), "SimSpan must be finite, got {s}");
        assert!(s >= 0.0, "SimSpan must be non-negative, got {s}");
        SimSpan(s)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Seconds.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// Milliseconds.
    pub fn as_millis(&self) -> f64 {
        self.0 * 1e3
    }

    /// Scale by a non-negative factor.
    pub fn scale(&self, f: f64) -> SimSpan {
        SimSpan::from_secs(self.0 * f)
    }
}

impl Eq for SimSpan {}

impl Ord for SimSpan {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("SimSpan is never NaN")
    }
}

impl PartialOrd for SimSpan {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimSpan> for SimTime {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0 + rhs.0)
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimSpan;
    fn sub(self, rhs: SimTime) -> SimSpan {
        SimSpan::from_secs((self.0 - rhs.0).max(0.0))
    }
}

impl std::iter::Sum for SimSpan {
    fn sum<I: Iterator<Item = SimSpan>>(iter: I) -> SimSpan {
        iter.fold(SimSpan::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        SimTime(self.0).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(1.5);
        let s = SimSpan::from_secs(0.25);
        assert_eq!((t + s).as_secs(), 1.75);
        assert_eq!((t + s) - t, s);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a - b, SimSpan::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_secs(2.5).to_string(), "2.5000s");
        assert_eq!(SimTime::from_secs(2.5e-3).to_string(), "2.500ms");
        assert_eq!(SimTime::from_secs(2.5e-6).to_string(), "2.50us");
    }

    #[test]
    fn span_sum() {
        let total: SimSpan = [0.1, 0.2, 0.3].iter().map(|&s| SimSpan::from_secs(s)).sum();
        assert!((total.as_secs() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn since_saturates_and_measures() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(1.0);
        assert_eq!(a.since(b).as_secs(), 2.0);
        assert_eq!(b.since(a), SimSpan::ZERO);
    }
}
