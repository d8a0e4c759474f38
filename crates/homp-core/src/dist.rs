//! Distributions: how a 1-D index space (a loop's iteration space or one
//! array dimension) is split across devices.
//!
//! Table I policies: `FULL` replicates the whole range on every device,
//! `BLOCK` divides it into contiguous even blocks, `AUTO` lets the
//! runtime choose counts (the scheduling algorithms produce them), and
//! `ALIGN` copies another distribution — implemented in
//! [`crate::align`].

use crate::region::{is_partition, Range};

/// A concrete distribution of `[0, total)` across devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    total: u64,
    /// One range per participating device, in device order. For FULL
    /// every range is `[0, total)`; for partitioning policies the
    /// non-empty ranges are disjoint and cover the space.
    ranges: Vec<Range>,
    /// Whether ranges replicate (FULL) rather than partition.
    replicated: bool,
}

impl Distribution {
    /// `FULL`: every one of `n_devices` sees the whole range.
    pub fn full(total: u64, n_devices: usize) -> Self {
        Self { total, ranges: vec![Range::new(0, total); n_devices], replicated: true }
    }

    /// `BLOCK`: contiguous even blocks (earlier devices get the
    /// remainder, matching the `axpy_omp_mdev` listing in Fig. 1).
    pub fn block(total: u64, n_devices: usize) -> Self {
        assert!(n_devices > 0, "BLOCK needs at least one device");
        let base = total / n_devices as u64;
        let remnant = total % n_devices as u64;
        let mut ranges = Vec::with_capacity(n_devices);
        let mut start = 0u64;
        for d in 0..n_devices as u64 {
            let size = base + if d < remnant { 1 } else { 0 };
            ranges.push(Range::new(start, start + size));
            start += size;
        }
        Self { total, ranges, replicated: false }
    }

    /// Contiguous blocks of the given per-device `counts`, laid out in
    /// device order over `[0, sum)`: the split a static scheduling
    /// algorithm produces. A zero count is an empty block at its
    /// neighbour's boundary.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut start = 0u64;
        let ranges = counts
            .iter()
            .map(|&c| {
                start += c;
                Range::new(start - c, start)
            })
            .collect();
        Self { total: start, ranges, replicated: false }
    }

    /// The extent of the distributed space.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.ranges.len()
    }

    /// Range owned by (or visible to) device slot `d`.
    pub fn range(&self, d: usize) -> Range {
        self.ranges[d]
    }

    /// Per-device lengths.
    pub fn counts(&self) -> Vec<u64> {
        self.ranges.iter().map(|r| r.len()).collect()
    }

    /// Whether this is a replication (FULL) rather than a partition.
    pub fn is_replicated(&self) -> bool {
        self.replicated
    }

    /// Scale every range by `ratio` (ALIGN with ratio): a distribution of
    /// `[0, total*ratio)`.
    pub fn scaled(&self, ratio: u64) -> Distribution {
        Distribution {
            total: self.total * ratio,
            ranges: self.ranges.iter().map(|r| r.scale(ratio)).collect(),
            replicated: self.replicated,
        }
    }

    /// Check the partition invariant (replications trivially pass).
    pub fn is_valid(&self) -> bool {
        if self.replicated {
            self.ranges.iter().all(|r| *r == Range::new(0, self.total))
        } else {
            is_partition(&self.ranges, self.total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_matches_fig1_remnant_logic() {
        // 10 iterations over 4 devices → 3,3,2,2 with earlier devices
        // taking the remainder, exactly like axpy_omp_mdev.
        let d = Distribution::block(10, 4);
        assert_eq!(d.counts(), vec![3, 3, 2, 2]);
        assert_eq!(d.range(0), Range::new(0, 3));
        assert_eq!(d.range(2), Range::new(6, 8));
        assert!(d.is_valid());
    }

    #[test]
    fn block_handles_fewer_iterations_than_devices() {
        let d = Distribution::block(2, 4);
        assert_eq!(d.counts(), vec![1, 1, 0, 0]);
        assert!(d.is_valid());
    }

    #[test]
    fn full_replicates() {
        let d = Distribution::full(100, 3);
        assert!(d.is_replicated());
        assert!(d.is_valid());
        for i in 0..3 {
            assert_eq!(d.range(i), Range::new(0, 100));
        }
    }

    #[test]
    fn from_counts_lays_blocks_out_in_device_order() {
        let d = Distribution::from_counts(&[0, 7, 0, 3, 0]);
        assert_eq!(d.total(), 10);
        assert_eq!(d.counts(), vec![0, 7, 0, 3, 0]);
        assert_eq!(d.range(1), Range::new(0, 7));
        assert_eq!(d.range(2), Range::new(7, 7));
        assert!(d.is_valid());
    }

    #[test]
    fn scaled_distribution() {
        let d = Distribution::block(10, 2).scaled(3);
        assert_eq!(d.total(), 30);
        assert_eq!(d.range(0), Range::new(0, 15));
        assert!(d.is_valid());
    }

    proptest! {
        #[test]
        fn block_always_partitions(total in 0u64..1_000_000, n in 1usize..9) {
            let d = Distribution::block(total, n);
            prop_assert!(d.is_valid());
            prop_assert_eq!(d.counts().iter().sum::<u64>(), total);
            // Even-ness: max and min differ by at most 1.
            let c = d.counts();
            let mx = *c.iter().max().unwrap();
            let mn = *c.iter().min().unwrap();
            prop_assert!(mx - mn <= 1);
            prop_assert_eq!(Distribution::from_counts(&c), d);
        }
    }
}
