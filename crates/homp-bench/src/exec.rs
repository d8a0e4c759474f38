//! Deterministic work-stealing executor for the experiment harness.
//!
//! Experiment grids are embarrassingly parallel: every cell is an
//! independent simulation whose output depends only on `(machine, spec,
//! algorithm, seed)`. This module fans cells across OS threads with the
//! compare-and-swap chunk-acquisition idiom of the paper's proxy
//! threads (§V-B): a shared atomic cursor that each worker bumps to
//! claim the next cell. Results are assembled **by cell index, never by
//! completion order**, so the output of a parallel run is byte-identical
//! to a serial one — the determinism guarantees the committed
//! `results/*.csv` artifacts rest on.
//!
//! Thread count comes from `HOMP_BENCH_JOBS` (default: available
//! parallelism; `1` = serial, exercising exactly the historical
//! single-threaded path).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable selecting the harness worker count.
pub const JOBS_ENV: &str = "HOMP_BENCH_JOBS";

/// Worker count for this process: `HOMP_BENCH_JOBS` when set to an
/// integer ≥ 1, otherwise the machine's available parallelism (1 if
/// that cannot be determined).
pub fn jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("[harness] ignoring {JOBS_ENV}={v:?} (want an integer >= 1)");
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Map `f` over `items` on up to `n_jobs` scoped threads, returning the
/// results **in input order** regardless of which worker finished when.
///
/// Work is distributed by an atomic cursor (work stealing at cell
/// granularity): fast cells do not hold up a worker that could be
/// claiming the next one. With `n_jobs <= 1` this is a plain serial
/// loop — no threads, no atomics — so a `HOMP_BENCH_JOBS=1` run is the
/// exact historical code path.
///
/// `f` receives `(index, &item)` so callers can seed or label work by
/// position without threading that through the item type.
pub fn par_map<T, R, F>(items: &[T], n_jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n_jobs = n_jobs.min(items.len()).max(1);
    if n_jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Each worker collects (index, result) pairs; the merge below puts
    // them back in input order. The indirection (rather than writing
    // into a shared slice) keeps the crate free of unsafe code.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_jobs);
        for _ in 0..n_jobs {
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    done.push((i, f(i, &items[i])));
                }
                done
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("harness worker panicked") {
                slots[i] = Some(r);
            }
        }
    });

    slots.into_iter().map(|s| s.expect("cursor covered every cell")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 4, 8, 16] {
            let out = par_map(&items, jobs, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u32], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }
}
