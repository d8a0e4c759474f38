//! Real-thread host executor.
//!
//! The simulator validates the algorithms on modelled heterogeneous
//! hardware; this module runs the *same* chunk-scheduling logic on real
//! OS threads, the way the paper's proxy pthreads do on the host: "each
//! proxy thread calculates the next chunk size and then picks a chunk
//! from the remaining iterations using a compare-and-swap operation"
//! (Section V-B). It is both a correctness cross-check (the schedulers
//! work under true concurrency) and a usable host-side worksharing
//! executor.

use crate::region::Range;
use crate::sched::chunking::{ChunkPolicy, DynamicChunks, GuidedChunks};
use homp_model::apportion::counts_to_ranges;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Outcome of a host execution.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Iterations executed per worker.
    pub counts: Vec<u64>,
    /// Chunks grabbed per worker.
    pub chunks: Vec<u64>,
    /// Wall-clock time of the parallel region.
    pub wall: Duration,
}

impl HostReport {
    /// Total chunks across workers.
    pub fn total_chunks(&self) -> u64 {
        self.chunks.iter().sum()
    }
}

/// The shared loop counter: chunks are claimed with compare-and-swap.
struct AtomicQueue {
    cursor: AtomicU64,
    total: u64,
}

impl AtomicQueue {
    fn new(total: u64) -> Self {
        Self { cursor: AtomicU64::new(0), total }
    }

    /// Claim the next chunk under `policy`; `None` when exhausted.
    fn grab(&self, policy: &dyn ChunkPolicy, n_workers: usize) -> Option<Range> {
        let mut cur = self.cursor.load(Ordering::Relaxed);
        loop {
            if cur >= self.total {
                return None;
            }
            let remaining = self.total - cur;
            let size = policy.next_chunk(remaining, n_workers).clamp(1, remaining);
            match self.cursor.compare_exchange_weak(
                cur,
                cur + size,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Range::new(cur, cur + size)),
                Err(actual) => cur = actual,
            }
        }
    }
}

fn run_with_policy<F>(
    trip_count: u64,
    n_workers: usize,
    policy: &(dyn ChunkPolicy + Sync),
    body: &F,
) -> HostReport
where
    F: Fn(usize, Range) + Sync,
{
    assert!(n_workers > 0, "need at least one worker");
    let queue = AtomicQueue::new(trip_count);
    let start = Instant::now();
    let mut counts = vec![0u64; n_workers];
    let mut chunks = vec![0u64; n_workers];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                let queue = &queue;
                s.spawn(move || {
                    let mut my_iters = 0u64;
                    let mut my_chunks = 0u64;
                    while let Some(r) = queue.grab(policy, n_workers) {
                        my_iters += r.len();
                        my_chunks += 1;
                        body(w, r);
                    }
                    (my_iters, my_chunks)
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            let (i, c) = h.join().expect("worker panicked");
            counts[w] = i;
            chunks[w] = c;
        }
    });
    HostReport { counts, chunks, wall: start.elapsed() }
}

/// Serial walk over leftover ranges — the degraded-mode host fallback
/// for offloads whose devices all quarantined. Unlike the parallel
/// runners above, `body` is `FnMut`, so a [`crate::runtime::LoopKernel`]
/// borrowed mutably by the runtime can execute here without `Sync`.
/// Returns the number of iterations executed.
pub fn run_leftover<F: FnMut(Range)>(ranges: &[Range], mut body: F) -> u64 {
    let mut total = 0u64;
    for &r in ranges {
        if r.is_empty() {
            continue;
        }
        total += r.len();
        body(r);
    }
    total
}

/// Dynamic chunking over real threads. `body(worker, range)` must
/// tolerate concurrent invocation on disjoint ranges (see
/// [`crate::disjoint::DisjointMut`]).
pub fn run_dynamic<F>(trip_count: u64, n_workers: usize, chunk: u64, body: F) -> HostReport
where
    F: Fn(usize, Range) + Sync,
{
    let policy = DynamicChunks { chunk: chunk.max(1) };
    run_with_policy(trip_count, n_workers, &policy, &body)
}

/// Guided chunking over real threads.
pub fn run_guided<F>(
    trip_count: u64,
    n_workers: usize,
    first_chunk: u64,
    min_chunk: u64,
    body: F,
) -> HostReport
where
    F: Fn(usize, Range) + Sync,
{
    let policy = GuidedChunks {
        first_chunk: first_chunk.max(1),
        min_chunk: min_chunk.clamp(1, first_chunk.max(1)),
    };
    run_with_policy(trip_count, n_workers, &policy, &body)
}

/// Static (pre-planned) execution: worker `w` runs `counts[w]`
/// iterations laid out contiguously — the BLOCK/MODEL/profile stage-2
/// shape on real threads.
pub fn run_static<F>(counts: &[u64], body: F) -> HostReport
where
    F: Fn(usize, Range) + Sync,
{
    let ranges = counts_to_ranges(counts);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (w, &(a, b)) in ranges.iter().enumerate() {
            let body = &body;
            s.spawn(move || body(w, Range::new(a, b)));
        }
    });
    HostReport {
        counts: counts.to_vec(),
        chunks: counts.iter().map(|&c| u64::from(c > 0)).collect(),
        wall: start.elapsed(),
    }
}

/// Two-stage sample profiling on real threads (`SCHED_PROFILE_AUTO`'s
/// host-side analogue): stage 1 gives every worker an equal sample and
/// measures wall-clock throughput; stage 2 distributes the remainder
/// proportionally to the measured rates.
pub fn run_profiled<F>(trip_count: u64, n_workers: usize, sample_pct: f64, body: F) -> HostReport
where
    F: Fn(usize, Range) + Sync,
{
    assert!(n_workers > 0, "need at least one worker");
    let start = Instant::now();
    let sample_total = (((trip_count as f64 * sample_pct / 100.0).round() as u64)
        .max(n_workers as u64))
    .min(trip_count);
    // Equal samples per worker, remainder to the leading workers.
    let base = sample_total / n_workers as u64;
    let rem = sample_total % n_workers as u64;
    let mut cursor = 0u64;
    let mut stage1: Vec<Range> = Vec::with_capacity(n_workers);
    for w in 0..n_workers as u64 {
        let take = base + u64::from(w < rem);
        stage1.push(Range::new(cursor, cursor + take));
        cursor += take;
    }

    // Stage 1: measure.
    let mut rates = vec![0.0f64; n_workers];
    std::thread::scope(|s| {
        let handles: Vec<_> = stage1
            .iter()
            .enumerate()
            .map(|(w, &r)| {
                let body = &body;
                s.spawn(move || {
                    let t0 = Instant::now();
                    if !r.is_empty() {
                        body(w, r);
                    }
                    crate::sched::profile_sched::measured_throughput(
                        r.len(),
                        t0.elapsed().as_secs_f64(),
                    )
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            rates[w] = h.join().expect("worker panicked");
        }
    });

    // Stage 2: distribute the remainder by measured rate.
    let remaining = trip_count - cursor;
    let plan = crate::sched::model_sched::throughput_plan(&rates, remaining, None);
    let mut counts: Vec<u64> = stage1.iter().map(|r| r.len()).collect();
    let mut stage2: Vec<Range> = Vec::with_capacity(n_workers);
    let mut c2 = cursor;
    for (w, &n) in plan.counts.iter().enumerate() {
        stage2.push(Range::new(c2, c2 + n));
        counts[w] += n;
        c2 += n;
    }
    debug_assert_eq!(c2, trip_count);
    std::thread::scope(|s| {
        for (w, &r) in stage2.iter().enumerate() {
            if r.is_empty() {
                continue;
            }
            let body = &body;
            s.spawn(move || body(w, r));
        }
    });

    HostReport {
        counts,
        chunks: stage1
            .iter()
            .zip(&stage2)
            .map(|(a, b)| u64::from(!a.is_empty()) + u64::from(!b.is_empty()))
            .collect(),
        wall: start.elapsed(),
    }
}

#[cfg(test)]
#[allow(unsafe_code)] // tests drive DisjointMut with scheduler-disjoint ranges
mod tests {
    use super::*;
    use crate::disjoint::DisjointMut;
    use std::sync::atomic::AtomicU64 as Counter;

    #[test]
    fn dynamic_covers_every_iteration_exactly_once() {
        let n = 100_000u64;
        let mut hits = vec![0u8; n as usize];
        {
            let dj = DisjointMut::new(&mut hits);
            let report = run_dynamic(n, 8, 257, |_w, r| {
                // SAFETY: chunks are disjoint by the CAS queue contract.
                let s = unsafe { dj.slice_mut(r.start as usize, r.end as usize) };
                for x in s {
                    *x += 1;
                }
            });
            assert_eq!(report.counts.iter().sum::<u64>(), n);
        }
        assert!(hits.iter().all(|&h| h == 1), "every iteration exactly once");
    }

    #[test]
    fn guided_covers_every_iteration_exactly_once() {
        let n = 50_000u64;
        let mut hits = vec![0u8; n as usize];
        {
            let dj = DisjointMut::new(&mut hits);
            let report = run_guided(n, 4, n / 5, 64, |_w, r| {
                let s = unsafe { dj.slice_mut(r.start as usize, r.end as usize) };
                for x in s {
                    *x += 1;
                }
            });
            assert_eq!(report.counts.iter().sum::<u64>(), n);
            assert!(report.total_chunks() >= 4);
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn static_ranges_are_contiguous() {
        let seen = Counter::new(0);
        let report = run_static(&[10, 0, 30], |_w, r| {
            seen.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 40);
        assert_eq!(report.counts, vec![10, 0, 30]);
        assert_eq!(report.chunks, vec![1, 0, 1]);
    }

    #[test]
    fn dynamic_axpy_matches_sequential() {
        let n = 200_000usize;
        let a = 1.5f64;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let expected: Vec<f64> = y.iter().zip(&x).map(|(yy, xx)| yy + a * xx).collect();
        {
            let dj = DisjointMut::new(&mut y);
            let xs = &x;
            run_dynamic(n as u64, 8, 1024, |_w, r| {
                let ys = unsafe { dj.slice_mut(r.start as usize, r.end as usize) };
                for (i, yy) in ys.iter_mut().enumerate() {
                    *yy += a * xs[r.start as usize + i];
                }
            });
        }
        assert_eq!(y, expected, "bitwise equal: same operations per element");
    }

    #[test]
    fn profiled_covers_every_iteration_exactly_once() {
        let n = 200_000u64;
        let mut hits = vec![0u8; n as usize];
        {
            let dj = DisjointMut::new(&mut hits);
            let report = run_profiled(n, 4, 10.0, |_w, r| {
                let s = unsafe { dj.slice_mut(r.start as usize, r.end as usize) };
                for x in s {
                    *x += 1;
                }
            });
            assert_eq!(report.counts.iter().sum::<u64>(), n);
            assert!(report.total_chunks() <= 8, "at most 2 chunks per worker");
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn profiled_gives_slow_worker_less_stage2_work() {
        // Worker 0 sleeps per element in stage 1; its measured rate should
        // shrink its stage-2 share well below the fast workers'.
        let n = 40_000u64;
        let report = run_profiled(n, 4, 10.0, |w, r| {
            if w == 0 {
                std::thread::sleep(Duration::from_micros(20 * r.len().min(200)));
            }
        });
        assert_eq!(report.counts.iter().sum::<u64>(), n);
        let fast_avg: u64 = report.counts[1..].iter().sum::<u64>() / 3;
        assert!(
            report.counts[0] < fast_avg,
            "slow worker {} vs fast average {}",
            report.counts[0],
            fast_avg
        );
    }

    #[test]
    fn profiled_tiny_loop() {
        let seen = Counter::new(0);
        let report = run_profiled(5, 8, 10.0, |_w, r| {
            seen.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        assert_eq!(report.counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn uneven_workers_still_complete() {
        // A pathological chunk size larger than the loop.
        let report = run_dynamic(10, 4, 1000, |_w, _r| {});
        assert_eq!(report.counts.iter().sum::<u64>(), 10);
        assert_eq!(report.total_chunks(), 1);
    }

    #[test]
    fn faster_workers_take_more_chunks() {
        // Worker 0 sleeps per chunk; the others race ahead.
        let n = 2_000u64;
        let report = run_dynamic(n, 4, 10, |w, _r| {
            if w == 0 {
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let others: u64 = report.counts[1..].iter().sum();
        assert!(report.counts[0] < others, "slow worker {} vs others {}", report.counts[0], others);
    }
}
