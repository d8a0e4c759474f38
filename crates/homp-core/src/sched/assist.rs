//! Work assisting (ROADMAP item 2): the pure planning half of
//! `WORK_ASSIST`.
//!
//! The algorithm launches MODEL_2 initial shares, then turns finished
//! devices into *assistants*: when a device drains its share while a
//! straggler still has a (predicted) unexecuted tail, the tail is split
//! and the back half reassigned, moving only the stolen span's bytes.
//! This module holds the side-effect-free pieces — the steal policy
//! derived from a region's alignment and halo constraints, progress
//! interpolation, and the tail-splitting arithmetic — so they can be
//! unit-tested without a simulator. The event loop that drives them
//! against the device proxies lives in [`crate::runtime`].

use crate::offload::OffloadRegion;
use crate::region::Range;
use homp_sim::SimTime;

/// Constraints on what an assisting device may steal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// Smallest tail worth rescuing, in iterations: stealing less than
    /// this costs more in transfer setup than it saves in compute.
    pub min_steal: u64,
    /// Split points must fall on multiples of this (loop ALIGN ratio
    /// and halo slabs both forbid finer cuts).
    pub granularity: u64,
}

impl StealPolicy {
    /// Derive the policy for a region: `min_steal` from the algorithm's
    /// `min_assist_pct` knob, `granularity` from the region's ALIGN
    /// ratio and the widest halo on any distributed dimension.
    pub fn for_region(region: &OffloadRegion, min_assist_pct: f64) -> StealPolicy {
        let pct = min_assist_pct.clamp(0.0, 100.0);
        let min_steal = ((region.trip_count as f64 * pct / 100.0).ceil() as u64).max(1);
        StealPolicy { min_steal, granularity: split_granularity(region) }
    }
}

/// The coarsest split constraint a region imposes: the loop ALIGN ratio
/// (iterations per aligned element) joined with the widest halo of any
/// distributed array dimension — a cut finer than the halo slab would
/// hand the thief a range whose ghost rows overlap the victim's.
pub fn split_granularity(region: &OffloadRegion) -> u64 {
    let mut g = region.loop_align.as_ref().map_or(1, |(_, ratio)| *ratio).max(1);
    for a in &region.arrays {
        if let Some(d) = a.distributed_dim() {
            if let Some(w) = a.halo[d] {
                g = g.max(w);
            }
        }
    }
    g
}

/// Round `v` down to a multiple of `g`.
pub fn align_down(v: u64, g: u64) -> u64 {
    let g = g.max(1);
    v - v % g
}

/// Linear-progress estimate of how many iterations of an in-flight
/// piece are already executed at `now`, given when its compute started
/// and when the model predicts it to end. Clamped to `[0, len]`; a
/// degenerate (instant) prediction counts as fully executed.
pub fn estimate_executed(len: u64, start: SimTime, pred_end: SimTime, now: SimTime) -> u64 {
    if now <= start {
        return 0;
    }
    if now >= pred_end || pred_end <= start {
        return len;
    }
    let frac = (now - start).as_secs() / (pred_end - start).as_secs();
    ((len as f64 * frac) as u64).min(len)
}

/// Split a straggler's piece at `now`: keep the (estimated) executed
/// prefix plus half the unexecuted tail with the victim, hand the
/// aligned back half to the thief. `None` when the tail is not worth
/// stealing under `policy` — too small, or alignment leaves nothing.
pub fn steal_from_tail(
    piece: Range,
    executed: u64,
    policy: &StealPolicy,
) -> Option<(Range, Range)> {
    let unexec = piece.len().saturating_sub(executed);
    if unexec < policy.min_steal {
        return None;
    }
    let stolen = align_down(unexec / 2, policy.granularity);
    if stolen == 0 {
        return None;
    }
    let cut = piece.end - stolen;
    Some((Range::new(piece.start, cut), Range::new(cut, piece.end)))
}

/// Carve an assistant's grab off the front of an orphaned range (a
/// quarantined device's never-started tail): half the range, aligned —
/// or all of it when the remainder would fall below `min_steal` and
/// just strand another sub-minimal orphan.
pub fn grab_from_orphan(orphan: Range, policy: &StealPolicy) -> (Range, Option<Range>) {
    let half = align_down(orphan.len() - orphan.len() / 2, policy.granularity);
    let rest = orphan.len() - half;
    if half == 0 || rest < policy.min_steal {
        return (orphan, None);
    }
    let cut = orphan.start + half;
    (Range::new(orphan.start, cut), Some(Range::new(cut, orphan.end)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::ArrayMap;
    use homp_lang::{DistPolicy, MapDir};

    fn region_with(halo: Option<u64>, align_ratio: Option<u64>) -> OffloadRegion {
        let mut b =
            OffloadRegion::builder("k").trip_count(1000).devices(vec![0, 1]).map_array(ArrayMap {
                name: "u".into(),
                dir: MapDir::ToFrom,
                dims: vec![1000, 10],
                elem_bytes: 8,
                partition: vec![DistPolicy::Block, DistPolicy::Full],
                halo: vec![halo, None],
            });
        if let Some(r) = align_ratio {
            b = b.align_loop_with("u", r);
        }
        b.build()
    }

    #[test]
    fn granularity_joins_align_and_halo() {
        assert_eq!(split_granularity(&region_with(None, None)), 1);
        assert_eq!(split_granularity(&region_with(Some(4), None)), 4);
        assert_eq!(split_granularity(&region_with(Some(2), Some(8))), 8);
        assert_eq!(split_granularity(&region_with(Some(16), Some(8))), 16);
    }

    #[test]
    fn policy_min_steal_is_a_trip_fraction() {
        let p = StealPolicy::for_region(&region_with(None, None), 5.0);
        assert_eq!(p.min_steal, 50);
        assert_eq!(p.granularity, 1);
        // 0% still refuses empty steals.
        assert_eq!(StealPolicy::for_region(&region_with(None, None), 0.0).min_steal, 1);
    }

    #[test]
    fn progress_interpolation_clamps() {
        let t = SimTime::from_secs;
        assert_eq!(estimate_executed(100, t(1.0), t(2.0), t(0.5)), 0);
        assert_eq!(estimate_executed(100, t(1.0), t(2.0), t(1.5)), 50);
        assert_eq!(estimate_executed(100, t(1.0), t(2.0), t(3.0)), 100);
        // Degenerate prediction: treat as done, never steal negative.
        assert_eq!(estimate_executed(100, t(2.0), t(2.0), t(2.5)), 100);
    }

    #[test]
    fn steal_takes_the_aligned_back_half() {
        let p = StealPolicy { min_steal: 10, granularity: 4 };
        let (kept, stolen) = steal_from_tail(Range::new(100, 200), 30, &p).unwrap();
        // unexec = 70, half = 35, aligned down to 32.
        assert_eq!(stolen, Range::new(168, 200));
        assert_eq!(kept, Range::new(100, 168));
        assert_eq!(kept.len() + stolen.len(), 100);
    }

    #[test]
    fn steal_respects_min_and_alignment() {
        let p = StealPolicy { min_steal: 10, granularity: 4 };
        // Tail below min_steal: nothing.
        assert!(steal_from_tail(Range::new(0, 100), 95, &p).is_none());
        // Aligned half rounds to zero: nothing.
        let q = StealPolicy { min_steal: 1, granularity: 64 };
        assert!(steal_from_tail(Range::new(0, 100), 0, &q).is_none());
    }

    #[test]
    fn orphan_grab_halves_or_swallows() {
        let p = StealPolicy { min_steal: 10, granularity: 1 };
        let (take, rest) = grab_from_orphan(Range::new(0, 100), &p);
        assert_eq!(take, Range::new(0, 50));
        assert_eq!(rest, Some(Range::new(50, 100)));
        // Remainder would be sub-minimal: take everything.
        let (take, rest) = grab_from_orphan(Range::new(0, 15), &p);
        assert_eq!(take, Range::new(0, 15));
        assert_eq!(rest, None);
    }
}
