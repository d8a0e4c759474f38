//! Fixed-point decimal rendering of `f64`, byte-identical to
//! `core::fmt`'s `{:.N}`.
//!
//! Reports and trace exports print every float at a fixed precision so
//! their bytes are stable across platforms, and `core::fmt` computes
//! those digits with exact multi-precision decimal arithmetic. For the
//! values observability output holds (seconds, fractions, percentages,
//! milliseconds) one `f64` multiply decides the rounding, unless the
//! product lands exactly on a half-way point. [`push_fixed`] takes that
//! fast path and hands every other value to `core::fmt`, so its output
//! is the same for every input.

use std::fmt::Write as _;

/// `10^d` for the precisions the fast path handles (exact in `f64`).
const POW10: [u64; 16] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
];

/// Bound on the scaled magnitude the fast path takes: below `2^52` the
/// fractional part of `|x|·10^d` is exact, and every half-way point
/// `k + ½` is an `f64`.
const LIMIT: f64 = (1u64 << 52) as f64;

/// Append `x` with exactly `decimals` digits after the point: the same
/// bytes `write!(out, "{x:.decimals$}")` appends, for every `f64` and
/// every precision.
///
/// The fast path scales `y = |x|·10^d` with one multiply and writes
/// `round(y)` with the point inserted and `x`'s sign (so `-0.0` and
/// tiny negatives print `-0.000…`, as `core::fmt` does). It applies
/// when `y < 2^52` and `y` is not itself a half-way point `k + ½`.
/// Rounding the exact product to the nearest `f64` is monotonic and
/// every `k + ½` below `2^52` is an `f64`, so the exact product lies on
/// the same side of every half-way point as `y` and rounds to the same
/// integer. When `y` is a half-way point the exact product may lie on
/// either side of it or on it (a tie, which `core::fmt` rounds to
/// even), so it goes to `core::fmt`, as do non-finite values, larger
/// magnitudes and precisions above 15.
pub fn push_fixed(out: &mut String, x: f64, decimals: usize) {
    if let Some(&p) = POW10.get(decimals) {
        let y = x.abs() * p as f64;
        if y < LIMIT {
            // Truncation is the floor here, and `frac` is exact.
            let whole = y as u64;
            let frac = y - whole as f64;
            if frac != 0.5 {
                let r = whole + u64::from(frac > 0.5);
                push_scaled(out, x.is_sign_negative(), r, decimals, p);
                return;
            }
        }
    }
    let _ = write!(out, "{x:.decimals$}");
}

/// Write `r / 10^d` with `d` fraction digits (`p == 10^d`), after a
/// `-` when `neg`.
fn push_scaled(out: &mut String, neg: bool, r: u64, d: usize, p: u64) {
    // Sign, at most 16 integer digits (r < 2^52 + 1), point, 15 digits.
    let mut buf = [0u8; 40];
    let mut i = buf.len();
    let (mut int, mut frac) = (r / p, r % p);
    for _ in 0..d {
        i -= 1;
        buf[i] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    if d > 0 {
        i -= 1;
        buf[i] = b'.';
    }
    loop {
        i -= 1;
        buf[i] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    if neg {
        i -= 1;
        buf[i] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("digits, sign and point are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed(x: f64, d: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, x, d);
        s
    }

    fn assert_like_fmt(x: f64, d: usize) {
        assert_eq!(fixed(x, d), format!("{x:.d$}"), "x = {x:e} ({:#018x}), d = {d}", x.to_bits());
    }

    /// The classes the property tests draw from, apart from raw bits.
    fn special_values() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            -1e-20,
            0.5,
            1.5,
            2.5,
            -2.5,
        ];
        // Both sides of the fast-path limit at every precision.
        for p in POW10 {
            let at = LIMIT / p as f64;
            for k in -3i64..=3 {
                let x = f64::from_bits((at.to_bits() as i64 + k) as u64);
                v.extend([x, -x]);
            }
        }
        v
    }

    #[test]
    fn agrees_with_fmt_on_special_values() {
        for x in special_values() {
            for d in 0..=20 {
                assert_like_fmt(x, d);
            }
        }
    }

    #[test]
    fn exact_ties_round_to_even_like_fmt() {
        assert_eq!(fixed(2.0625, 3), "2.062");
        assert_eq!(fixed(2.0635, 3), format!("{:.3}", 2.0635));
        assert_eq!(fixed(0.5, 0), "0");
        assert_eq!(fixed(1.5, 0), "2");
        assert_eq!(fixed(-0.0, 3), "-0.000");
        assert_eq!(fixed(-1e-20, 3), "-0.000");
        // An odd multiple of 2^-j has j decimal places, the last a 5:
        // an exact tie at d = j - 1, and no tie at the other d.
        for d in 0..=9usize {
            for j in 1..=12u32 {
                for k in 0..64u64 {
                    let x = (2 * k + 1) as f64 / 2f64.powi(j as i32);
                    assert_like_fmt(x, d);
                    assert_like_fmt(-x, d);
                    assert_like_fmt(x * 1e3, d);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn agrees_with_fmt_on_random_bit_patterns(bits in 0u64..=u64::MAX, d in 0usize..=9) {
            assert_like_fmt(f64::from_bits(bits), d);
        }

        /// The ranges report and trace fields hold: fractions,
        /// seconds, microseconds, milliseconds, percentages, counts.
        #[test]
        fn agrees_with_fmt_in_field_ranges(
            unit in 0.0f64..1.0,
            scale in 0usize..8,
            neg in 0u8..2,
            d in 0usize..=9,
        ) {
            let x = unit * [1.0, 1e-6, 1e-3, 1e3, 1e6, 100.0, 4.0, 9.0e15][scale];
            assert_like_fmt(if neg == 1 { -x } else { x }, d);
        }

        /// Values a few ulps either side of a half-way point at their
        /// precision, where the fast path must step aside.
        #[test]
        fn agrees_with_fmt_next_to_ties(
            k in 0u64..1_000_000,
            d in 0usize..=9,
            nudge in -4i64..=4,
        ) {
            let tie = (k as f64 + 0.5) / POW10[d] as f64;
            let x = f64::from_bits((tie.to_bits() as i64 + nudge) as u64);
            assert_like_fmt(x, d);
        }
    }
}
