//! Dynamic and guided chunking (Sections IV-A.2 and IV-A.3).
//!
//! Both algorithms hand out chunks from a shared counter: "after
//! completion of its chunk, a device tries to acquire another chunk from
//! the same loop" — faster devices naturally take more work. Guided
//! chunking starts with large chunks and shrinks them geometrically so
//! the tail stays balanced with fewer scheduling transactions.
//!
//! A [`ChunkPolicy`] is a pure size rule; the shared counter lives in
//! [`ChunkQueue`], from which the runtime's simulated proxies take
//! chunks in the order the paper's proxy threads would claim them by
//! compare-and-swap.

use crate::region::Range;
use std::collections::VecDeque;

/// A rule for the size of the next chunk.
pub trait ChunkPolicy {
    /// Size of the next chunk given how many iterations remain and how
    /// many devices participate. Must be ≥1 when `remaining > 0`.
    fn next_chunk(&self, remaining: u64, n_devices: usize) -> u64;
}

/// Fixed-size chunks (`SCHED_DYNAMIC`).
#[derive(Debug, Clone, Copy)]
pub struct DynamicChunks {
    /// Chunk size in iterations.
    pub chunk: u64,
}

impl DynamicChunks {
    /// From a percentage of the trip count (the paper's `2%`).
    pub fn from_pct(trip_count: u64, pct: f64) -> Self {
        let chunk = ((trip_count as f64 * pct / 100.0).round() as u64).max(1);
        Self { chunk }
    }
}

impl ChunkPolicy for DynamicChunks {
    fn next_chunk(&self, remaining: u64, _n_devices: usize) -> u64 {
        self.chunk.min(remaining).max(u64::from(remaining > 0))
    }
}

/// Geometrically decreasing chunks (`SCHED_GUIDED`): the next chunk is
/// `remaining / n_devices`, capped by the first-chunk size and floored
/// by `min_chunk`.
#[derive(Debug, Clone, Copy)]
pub struct GuidedChunks {
    /// Upper bound on any chunk (the initial chunk size).
    pub first_chunk: u64,
    /// Lower bound, so the tail does not degenerate to single
    /// iterations.
    pub min_chunk: u64,
}

impl GuidedChunks {
    /// From the paper's percentage parameter (first chunk = `pct%` of the
    /// trip count; minimum chunk 0.5% of the trip count, at least 1).
    pub fn from_pct(trip_count: u64, pct: f64) -> Self {
        let first = ((trip_count as f64 * pct / 100.0).round() as u64).max(1);
        let min = ((trip_count as f64 * 0.005).round() as u64).max(1);
        Self { first_chunk: first, min_chunk: min.min(first) }
    }
}

impl ChunkPolicy for GuidedChunks {
    fn next_chunk(&self, remaining: u64, n_devices: usize) -> u64 {
        if remaining == 0 {
            return 0;
        }
        let guided = remaining / n_devices.max(1) as u64;
        guided.clamp(self.min_chunk, self.first_chunk).min(remaining)
    }
}

/// A shared iteration counter for single-threaded (simulated) chunk
/// acquisition, plus a re-queue lane for chunks orphaned by a device
/// failure. The host executor uses an atomic equivalent.
#[derive(Debug, Clone)]
pub struct ChunkQueue {
    remaining: Range,
    requeued: VecDeque<Range>,
    n_devices: usize,
    chunks_handed: u64,
}

impl ChunkQueue {
    /// Queue over `[0, trip_count)` for `n_devices`.
    pub fn new(trip_count: u64, n_devices: usize) -> Self {
        Self {
            remaining: Range::new(0, trip_count),
            requeued: VecDeque::new(),
            n_devices,
            chunks_handed: 0,
        }
    }

    /// Iterations not yet handed out (fresh plus re-queued).
    pub fn remaining(&self) -> u64 {
        self.remaining.len() + self.requeued.iter().map(|r| r.len()).sum::<u64>()
    }

    /// Number of chunks handed out so far (re-queued chunks count again
    /// when re-grabbed — each hand-out is a scheduling transaction).
    pub fn chunks_handed(&self) -> u64 {
        self.chunks_handed
    }

    /// Return a chunk whose device failed before completing it. It is
    /// served (whole) before any fresh chunk, so orphaned work drains
    /// first.
    pub fn requeue(&mut self, chunk: Range) {
        debug_assert!(!chunk.is_empty(), "re-queued chunk must be non-empty");
        self.requeued.push_back(chunk);
    }

    /// Hand back everything not yet executed — the re-queue lane first,
    /// then the fresh tail as one range — without counting scheduling
    /// transactions. The host-fallback path takes the work wholesale
    /// after every device has quarantined.
    pub fn drain_remaining(&mut self) -> Vec<Range> {
        let mut out: Vec<Range> = self.requeued.drain(..).collect();
        let rest = self.remaining.take(self.remaining.len());
        if !rest.is_empty() {
            out.push(rest);
        }
        out
    }

    /// Grab the next chunk under `policy`; `None` when the loop is
    /// exhausted.
    pub fn grab(&mut self, policy: &dyn ChunkPolicy) -> Option<Range> {
        self.grab_with_origin(policy).map(|(r, _)| r)
    }

    /// Like [`ChunkQueue::grab`], but also reports whether the chunk
    /// came from the re-queue lane (survivors pay failover bookkeeping
    /// for those).
    pub fn grab_with_origin(&mut self, policy: &dyn ChunkPolicy) -> Option<(Range, bool)> {
        if let Some(r) = self.requeued.pop_front() {
            self.chunks_handed += 1;
            return Some((r, true));
        }
        let rem = self.remaining.len();
        if rem == 0 {
            return None;
        }
        let size = policy.next_chunk(rem, self.n_devices).clamp(1, rem);
        self.chunks_handed += 1;
        Some((self.remaining.take(size), false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::is_partition;
    use proptest::prelude::*;

    #[test]
    fn dynamic_chunks_are_fixed_size() {
        let p = DynamicChunks::from_pct(1000, 2.0);
        assert_eq!(p.chunk, 20);
        let mut q = ChunkQueue::new(1000, 4);
        let mut sizes = Vec::new();
        while let Some(r) = q.grab(&p) {
            sizes.push(r.len());
        }
        assert_eq!(sizes.len(), 50);
        assert!(sizes.iter().all(|&s| s == 20));
    }

    #[test]
    fn dynamic_handles_non_dividing_tail() {
        let p = DynamicChunks { chunk: 30 };
        let mut q = ChunkQueue::new(100, 2);
        let mut total = 0;
        let mut last = 0;
        while let Some(r) = q.grab(&p) {
            total += r.len();
            last = r.len();
        }
        assert_eq!(total, 100);
        assert_eq!(last, 10, "tail chunk is the remainder");
    }

    #[test]
    fn guided_chunks_decrease() {
        let p = GuidedChunks::from_pct(10_000, 20.0);
        let mut q = ChunkQueue::new(10_000, 4);
        let mut sizes = Vec::new();
        while let Some(r) = q.grab(&p) {
            sizes.push(r.len());
        }
        // Monotone non-increasing until the min-chunk floor.
        let mut prev = u64::MAX;
        for &s in &sizes {
            assert!(s <= prev || s <= p.min_chunk, "sizes {sizes:?}");
            prev = s;
        }
        assert_eq!(sizes.iter().sum::<u64>(), 10_000);
        assert!(sizes[0] <= p.first_chunk);
    }

    #[test]
    fn guided_fewer_chunks_than_dynamic() {
        // The whole point of guided: fewer scheduling transactions for
        // similar tail balance.
        let n = 100_000;
        let dynq = {
            let p = DynamicChunks::from_pct(n, 2.0);
            let mut q = ChunkQueue::new(n, 4);
            while q.grab(&p).is_some() {}
            q.chunks_handed()
        };
        let guiq = {
            let p = GuidedChunks::from_pct(n, 20.0);
            let mut q = ChunkQueue::new(n, 4);
            while q.grab(&p).is_some() {}
            q.chunks_handed()
        };
        assert!(guiq < dynq, "guided {guiq} vs dynamic {dynq}");
    }

    #[test]
    fn requeued_chunks_are_served_first_and_whole() {
        let p = DynamicChunks { chunk: 10 };
        let mut q = ChunkQueue::new(100, 2);
        let (a, fresh) = q.grab_with_origin(&p).unwrap();
        assert!(!fresh);
        // The device died holding `a`: its iterations go back.
        q.requeue(a);
        assert_eq!(q.remaining(), 100);
        let (b, requeued) = q.grab_with_origin(&p).unwrap();
        assert!(requeued);
        assert_eq!(b, a, "orphaned chunk is handed out whole, before fresh work");
        // Every iteration is still handed out exactly once.
        let mut total = b.len();
        while let Some((r, _)) = q.grab_with_origin(&p) {
            total += r.len();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn tiny_loops_still_progress() {
        let p = DynamicChunks::from_pct(3, 2.0); // chunk rounds up to 1
        let mut q = ChunkQueue::new(3, 8);
        let mut count = 0;
        while q.grab(&p).is_some() {
            count += 1;
        }
        assert_eq!(count, 3);
    }

    proptest! {
        #[test]
        fn chunks_partition_the_space_dynamic(
            n in 1u64..50_000,
            pct in 0.5f64..30.0,
            ndev in 1usize..9,
        ) {
            let p = DynamicChunks::from_pct(n, pct);
            let mut q = ChunkQueue::new(n, ndev);
            let mut parts = Vec::new();
            while let Some(r) = q.grab(&p) {
                prop_assert!(!r.is_empty());
                parts.push(r);
            }
            prop_assert!(is_partition(&parts, n));
        }

        #[test]
        fn chunks_partition_the_space_guided(
            n in 1u64..50_000,
            pct in 1.0f64..40.0,
            ndev in 1usize..9,
        ) {
            let p = GuidedChunks::from_pct(n, pct);
            let mut q = ChunkQueue::new(n, ndev);
            let mut parts = Vec::new();
            let mut guard = 0;
            while let Some(r) = q.grab(&p) {
                parts.push(r);
                guard += 1;
                prop_assert!(guard <= n + 1, "no livelock");
            }
            prop_assert!(is_partition(&parts, n));
        }
    }
}
