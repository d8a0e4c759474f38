//! Static chunking (`BLOCK`, Section IV-A.1).
//!
//! "It is beneficial to divide the work evenly among multiple devices of
//! the same \[type\] when the work performed by each iteration \[is\] the
//! same. … Provided that each device computes at the same rate, all the
//! devices should complete at the same time, thus achieving
//! load-balance."

use crate::dist::Distribution;

/// Per-device iteration counts for an even static split.
pub fn block_counts(trip_count: u64, n_devices: usize) -> Vec<u64> {
    Distribution::block(trip_count, n_devices).counts()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        assert_eq!(block_counts(100, 4), vec![25, 25, 25, 25]);
    }

    #[test]
    fn remainder_to_leading_devices() {
        assert_eq!(block_counts(7, 3), vec![3, 2, 2]);
    }

    #[test]
    fn single_device_takes_all() {
        assert_eq!(block_counts(42, 1), vec![42]);
    }
}
