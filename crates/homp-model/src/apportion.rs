//! Largest-remainder apportionment.
//!
//! Every model- and profile-based scheduler produces *fractional* shares
//! per device and must convert them into integer iteration counts that
//! sum exactly to the loop trip count — "each device thread then computes
//! the number of iterations N_i and synchronizes with each other to make
//! sure the whole range are properly distributed" (Section V-B). The
//! largest-remainder (Hamilton) method does this with at most one
//! iteration of difference from the exact proportional amount.

/// Distribute `total` units proportionally to `weights`.
///
/// Returns one count per weight; the counts always sum to `total`.
/// Zero or negative weights receive zero units. If all weights are
/// non-positive, the whole `total` goes to the first entry (so the loop
/// is still fully executed, mirroring the runtime's "host takes the rest"
/// fallback).
///
/// # Panics
/// Panics if `weights` is empty and `total > 0`.
pub fn largest_remainder(weights: &[f64], total: u64) -> Vec<u64> {
    if total == 0 {
        return vec![0; weights.len()];
    }
    assert!(!weights.is_empty(), "cannot apportion {total} iterations over no devices");

    let sum: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if sum <= 0.0 || !sum.is_finite() {
        let mut out = vec![0; weights.len()];
        out[0] = total;
        return out;
    }

    let mut counts = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, w) in weights.iter().enumerate() {
        let w = w.max(0.0);
        let exact = w / sum * total as f64;
        let floor = exact.floor() as u64;
        assigned += floor;
        counts.push(floor);
        remainders.push((i, exact - floor as f64));
    }

    let mut leftover = total - assigned;
    // Hand out leftovers to the largest remainders; break ties by index so
    // the result is deterministic.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut idx = 0;
    while leftover > 0 {
        counts[remainders[idx % remainders.len()].0] += 1;
        leftover -= 1;
        idx += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_weights_split_evenly() {
        let c = largest_remainder(&[1.0, 1.0, 1.0, 1.0], 100);
        assert_eq!(c, vec![25, 25, 25, 25]);
    }

    #[test]
    fn remainder_goes_to_largest_fraction() {
        // 10 over weights 1:1:1 → 4,3,3 (all remainders equal, tie by index).
        let c = largest_remainder(&[1.0, 1.0, 1.0], 10);
        assert_eq!(c.iter().sum::<u64>(), 10);
        assert_eq!(c, vec![4, 3, 3]);
    }

    #[test]
    fn proportionality() {
        let c = largest_remainder(&[3.0, 1.0], 100);
        assert_eq!(c, vec![75, 25]);
    }

    #[test]
    fn zero_weight_gets_nothing() {
        let c = largest_remainder(&[0.0, 2.0, 0.0], 11);
        assert_eq!(c, vec![0, 11, 0]);
    }

    #[test]
    fn negative_weights_treated_as_zero() {
        let c = largest_remainder(&[-5.0, 1.0], 7);
        assert_eq!(c, vec![0, 7]);
    }

    #[test]
    fn all_zero_weights_fall_back_to_first() {
        let c = largest_remainder(&[0.0, 0.0], 9);
        assert_eq!(c, vec![9, 0]);
    }

    #[test]
    fn zero_total() {
        assert_eq!(largest_remainder(&[1.0, 2.0], 0), vec![0, 0]);
    }

    proptest! {
        #[test]
        fn always_sums_to_total(
            weights in proptest::collection::vec(0.0f64..1000.0, 1..9),
            total in 0u64..1_000_000,
        ) {
            let c = largest_remainder(&weights, total);
            prop_assert_eq!(c.iter().sum::<u64>(), total);
            prop_assert_eq!(c.len(), weights.len());
        }

        #[test]
        fn within_one_of_exact_share(
            weights in proptest::collection::vec(0.01f64..1000.0, 1..9),
            total in 1u64..1_000_000,
        ) {
            let sum: f64 = weights.iter().sum();
            let c = largest_remainder(&weights, total);
            for (w, got) in weights.iter().zip(&c) {
                let exact = w / sum * total as f64;
                prop_assert!((*got as f64 - exact).abs() <= 1.0 + 1e-9,
                    "count {} vs exact {}", got, exact);
            }
        }
    }
}
