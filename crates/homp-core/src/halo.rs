//! Halo (ghost-region) exchange — the `halo(1,)` map parameter and
//! `#pragma omp halo_exchange (uold)` directive of Fig. 3.
//!
//! When a BLOCK/ALIGN-distributed array has a halo width `w` in its
//! distributed dimension, each device's block is padded with `w` rows of
//! its neighbours' data. After the owner updates its block, an exchange
//! sends the `w` boundary rows to each adjacent device. On the
//! simulator the exchange routes through host memory (device→host then
//! host→device, as PCIe-attached accelerators without peer-to-peer do),
//! with one packed copy per device and direction.

use crate::dist::Distribution;
use crate::region::Range;
use homp_sim::{DeviceId, Dir, Engine, SimTime};

/// One pairwise send in an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloTransfer {
    /// Sending device slot (index into the distribution).
    pub from_slot: usize,
    /// Receiving device slot.
    pub to_slot: usize,
    /// Rows of the distributed dimension being sent.
    pub rows: Range,
}

/// The transfers a halo exchange needs for a contiguous 1-D split (BLOCK,
/// or a static scheduler's counts) with ghost width `w`: each device
/// sends its first/last `w` rows to the previous/next device owning a
/// non-empty block.
pub fn plan_exchange(dist: &Distribution, w: u64) -> Vec<HaloTransfer> {
    let mut out = Vec::new();
    if w == 0 {
        return out;
    }
    // Owners with non-empty blocks, in space order (contiguous splits are
    // laid out in slot order, but skip empty slots wherever they sit).
    let owners: Vec<usize> = (0..dist.n_devices()).filter(|&s| !dist.range(s).is_empty()).collect();
    for pair in owners.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let ra = dist.range(a);
        let rb = dist.range(b);
        // a sends its last w rows to b; b sends its first w rows to a.
        out.push(HaloTransfer {
            from_slot: a,
            to_slot: b,
            rows: Range::new(ra.end.saturating_sub(w.min(ra.len())), ra.end),
        });
        out.push(HaloTransfer {
            from_slot: b,
            to_slot: a,
            rows: Range::new(rb.start, rb.start + w.min(rb.len())),
        });
    }
    out
}

/// Execute a planned exchange on the simulator, through host memory.
/// Each sending device issues one `halo-up` D2H carrying the union of
/// the rows it sends; each receiving device issues one `halo-down` H2D
/// carrying every row it receives, once all of its senders have landed.
/// Each is one strided 2-D copy, as `cudaMemcpy2DAsync` does, so the
/// exchange pays one link latency each way per device, not per
/// neighbour. `slots` maps distribution slots to machine device IDs;
/// `slab_bytes` is the byte size of one row of the distributed
/// dimension. `ready` gates the start; returns the instant the whole
/// exchange completes.
pub fn simulate_exchange(
    engine: &mut Engine,
    slots: &[DeviceId],
    transfers: &[HaloTransfer],
    slab_bytes: u64,
    ready: SimTime,
) -> SimTime {
    let mut landed = vec![ready; slots.len()];
    for (s, &dev) in slots.iter().enumerate() {
        let rows = union_len(transfers.iter().filter(|t| t.from_slot == s).map(|t| t.rows));
        if rows > 0 {
            landed[s] = engine.transfer(dev, rows * slab_bytes, Dir::D2H, ready, "halo-up");
        }
    }
    let mut done = ready;
    for (s, &dev) in slots.iter().enumerate() {
        let (mut rows, mut senders) = (0, ready);
        for t in transfers.iter().filter(|t| t.to_slot == s) {
            rows += t.rows.len();
            senders = senders.max(landed[t.from_slot]);
        }
        if rows > 0 {
            let down = engine.transfer(dev, rows * slab_bytes, Dir::H2D, senders, "halo-down");
            done = done.max(down);
        }
    }
    done
}

/// Rows covered by the union of `ranges`.
fn union_len(ranges: impl Iterator<Item = Range>) -> u64 {
    let mut sorted: Vec<Range> = ranges.collect();
    sorted.sort_by_key(|r| r.start);
    let (mut rows, mut covered) = (0, 0);
    for r in sorted {
        rows += r.end.saturating_sub(r.start.max(covered));
        covered = covered.max(r.end);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_sim::Machine;

    #[test]
    fn interior_devices_exchange_both_ways() {
        let dist = Distribution::block(100, 4); // 25 each
        let t = plan_exchange(&dist, 1);
        // 3 adjacent pairs × 2 directions.
        assert_eq!(t.len(), 6);
        assert!(t.contains(&HaloTransfer { from_slot: 0, to_slot: 1, rows: Range::new(24, 25) }));
        assert!(t.contains(&HaloTransfer { from_slot: 1, to_slot: 0, rows: Range::new(25, 26) }));
        assert!(t.contains(&HaloTransfer { from_slot: 3, to_slot: 2, rows: Range::new(75, 76) }));
    }

    #[test]
    fn zero_width_is_empty() {
        assert!(plan_exchange(&Distribution::block(100, 4), 0).is_empty());
    }

    #[test]
    fn single_device_needs_no_exchange() {
        assert!(plan_exchange(&Distribution::block(100, 1), 2).is_empty());
    }

    #[test]
    fn empty_blocks_skipped() {
        // 2 iterations over 4 devices: only slots 0 and 1 own rows.
        let dist = Distribution::block(2, 4);
        let t = plan_exchange(&dist, 1);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|x| x.from_slot < 2 && x.to_slot < 2));
    }

    #[test]
    fn wide_halo_clamps_to_block() {
        let dist = Distribution::block(4, 2); // 2 rows each
        let t = plan_exchange(&dist, 5);
        for x in &t {
            assert!(x.rows.len() <= 2);
        }
    }

    #[test]
    fn exchange_rows_belong_to_sender() {
        let dist = Distribution::block(97, 4);
        for t in plan_exchange(&dist, 3) {
            let owner = dist.range(t.from_slot);
            assert_eq!(t.rows.intersect(&owner), t.rows, "sent rows must be owned");
        }
    }

    #[test]
    fn simulated_exchange_costs_time_on_discrete_devices() {
        let mut e = Engine::noiseless(Machine::four_k40());
        let dist = Distribution::block(1000, 4);
        let t = plan_exchange(&dist, 2);
        let end = simulate_exchange(&mut e, &[0, 1, 2, 3], &t, 8 * 1024, SimTime::ZERO);
        assert!(end > SimTime::ZERO);
        assert!(!e.trace().is_empty());
    }

    /// MODEL_2's split of the 512² Jacobi grid on the full node gives the
    /// two MICs (devices 5 and 6) no rows, so the exchange leaves them
    /// alone; the host socket and the four K40s exchange as neighbours.
    /// Each K40 packs its boundary rows into one upload and its ghost
    /// rows into one download, so the exchange ends after two link
    /// latencies (21.64 µs), where one copy pair per neighbour took four
    /// (41.64 µs).
    #[test]
    fn simulated_exchange_skips_devices_without_rows() {
        let mut e = Engine::noiseless(Machine::full_node());
        let dist = Distribution::from_counts(&[310, 51, 51, 50, 50, 0, 0]);
        let t = plan_exchange(&dist, 1);
        assert_eq!(t.len(), 8, "two sends per adjacent pair of the five owners");
        let end = simulate_exchange(&mut e, &[0, 1, 2, 3, 4, 5, 6], &t, 512 * 8, SimTime::ZERO);
        assert!((end.as_secs() * 1e6 - 21.64).abs() < 0.005, "ends at {end}");
        let events = e.trace().events();
        assert_eq!(events.len(), 8, "one upload and one download per K40");
        for ev in events {
            // Device 4, the last owner, has one neighbour; the others two.
            let rows = if ev.device == 4 { 1 } else { 2 };
            assert!((1..5).contains(&ev.device) && ev.amount == rows * 4096, "{ev:?}");
        }
    }

    #[test]
    fn simulated_exchange_free_between_host_devices() {
        let mut e = Engine::noiseless(Machine::two_cpus_two_mics());
        let dist = Distribution::block(1000, 2);
        let t = plan_exchange(&dist, 2);
        // Slots 0,1 are the two CPU sockets: shared memory, no transfer.
        let end = simulate_exchange(&mut e, &[0, 1], &t, 8 * 1024, SimTime::ZERO);
        assert_eq!(end, SimTime::ZERO);
        assert!(e.trace().is_empty());
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use homp_sim::Machine;
    use proptest::prelude::*;

    /// A BLOCK split, or a contiguous split whose empty slots may lead,
    /// sit between owners or trail, as a model plan's do.
    fn any_split() -> impl Strategy<Value = Distribution> {
        prop_oneof![
            (1u64..100_000, 1usize..9).prop_map(|(total, n)| Distribution::block(total, n)),
            proptest::collection::vec(prop_oneof![Just(0u64), 1u64..20_000], 1..9)
                .prop_map(|counts| Distribution::from_counts(&counts)),
        ]
    }

    proptest! {
        /// For any split and width: senders own what they send, every
        /// adjacent pair of owners exchanges in both directions, and no
        /// transfer is empty.
        #[test]
        fn exchange_is_symmetric_and_owned(dist in any_split(), w in 1u64..8) {
            let transfers = plan_exchange(&dist, w);
            let owners: Vec<usize> =
                (0..dist.n_devices()).filter(|&s| !dist.range(s).is_empty()).collect();
            prop_assert_eq!(
                transfers.len(),
                owners.len().saturating_sub(1) * 2,
                "two transfers per adjacent owner pair"
            );
            for t in &transfers {
                prop_assert!(!t.rows.is_empty());
                prop_assert!(t.rows.len() <= w);
                let owned = dist.range(t.from_slot);
                prop_assert_eq!(t.rows.intersect(&owned), t.rows, "sender owns its rows");
                // Receiver is the adjacent owner.
                let fi = owners.iter().position(|&o| o == t.from_slot).unwrap();
                let ti = owners.iter().position(|&o| o == t.to_slot).unwrap();
                prop_assert_eq!(fi.abs_diff(ti), 1, "adjacent owners only");
            }
            // Symmetry: for each (a -> b) there is a (b -> a).
            for t in &transfers {
                prop_assert!(
                    transfers.iter().any(|u| u.from_slot == t.to_slot
                        && u.to_slot == t.from_slot),
                    "missing reverse transfer for {t:?}"
                );
            }
        }

        /// On the simulator each device records at most one `halo-up`,
        /// moving the union of the rows it sends, and one `halo-down`,
        /// moving the sum of the rows it receives; a device without rows,
        /// or on shared memory (the host socket), records neither.
        #[test]
        fn exchange_packs_one_copy_per_device_and_direction(
            dist in any_split(),
            w in 1u64..8,
        ) {
            let machine = Machine::full_node();
            prop_assume!(dist.n_devices() <= machine.len());
            let slots: Vec<DeviceId> = (0..dist.n_devices() as DeviceId).collect();
            let transfers = plan_exchange(&dist, w);
            let mut e = Engine::noiseless(machine);
            let slab = 512 * 8;
            simulate_exchange(&mut e, &slots, &transfers, slab, SimTime::ZERO);
            for (s, &dev) in slots.iter().enumerate() {
                let mut union: Vec<u64> = transfers
                    .iter()
                    .filter(|t| t.from_slot == s)
                    .flat_map(|t| t.rows.start..t.rows.end)
                    .collect();
                union.sort_unstable();
                union.dedup();
                let received: u64 =
                    transfers.iter().filter(|t| t.to_slot == s).map(|t| t.rows.len()).sum();
                let linked = e.machine().devices[dev as usize].needs_copy();
                let owns = !dist.range(s).is_empty();
                for (label, rows) in [("halo-up", union.len() as u64), ("halo-down", received)] {
                    let moved: Vec<u64> = e
                        .trace()
                        .events()
                        .iter()
                        .filter(|ev| ev.device == dev && e.trace().label(ev.label) == label)
                        .map(|ev| ev.amount)
                        .collect();
                    let expected =
                        if linked && owns && rows > 0 { vec![rows * slab] } else { vec![] };
                    prop_assert_eq!(moved, expected, "slot {} {}", s, label);
                }
            }
        }

        /// Sent rows are exactly the boundary rows the receiver's ghost
        /// region needs: within `w` of the receiver's block.
        #[test]
        fn sent_rows_border_the_receiver(dist in any_split(), w in 1u64..5) {
            for t in plan_exchange(&dist, w) {
                let recv = dist.range(t.to_slot);
                let ghost = recv.dilate(w, dist.total());
                prop_assert_eq!(
                    t.rows.intersect(&ghost),
                    t.rows,
                    "sent rows must fall in the receiver's ghost region"
                );
            }
        }
    }
}
