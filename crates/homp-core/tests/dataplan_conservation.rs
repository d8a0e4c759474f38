//! Property tests of the data-movement plan: "only the necessary data
//! will be copied to the accelerators" (Section III-B, challenge 2) —
//! checked as byte conservation. For any mix of replicated,
//! loop-aligned and independently-BLOCK-distributed arrays, summing each
//! device's transfer bytes over a covering distribution must equal
//! exactly: partitioned arrays once + replicated arrays × devices +
//! scalars × devices.

use homp_core::{DataPlan, OffloadRegion};
use homp_lang::{DistPolicy, MapDir};
use homp_model::apportion::largest_remainder;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Replicated,
    Aligned,
    IndependentBlock,
}

#[derive(Debug, Clone, Copy)]
struct ArraySpec {
    kind: Kind,
    dir: MapDir,
    cols: u64, // 1 = 1-D array, >1 = 2-D with FULL inner dim
}

fn arb_array() -> impl Strategy<Value = ArraySpec> {
    (
        prop_oneof![Just(Kind::Replicated), Just(Kind::Aligned), Just(Kind::IndependentBlock)],
        prop_oneof![
            Just(MapDir::To),
            Just(MapDir::From),
            Just(MapDir::ToFrom),
            Just(MapDir::Alloc)
        ],
        1u64..16,
    )
        .prop_map(|(kind, dir, cols)| ArraySpec { kind, dir, cols })
}

fn build_region(trip: u64, arrays: &[ArraySpec], scalars: u64, n_dev: usize) -> OffloadRegion {
    let mut b = OffloadRegion::builder("prop")
        .trip_count(trip)
        .devices((0..n_dev as u32).collect())
        .scalars(scalars);
    for (i, a) in arrays.iter().enumerate() {
        let name = format!("a{i}");
        let policy = match a.kind {
            Kind::Replicated => DistPolicy::Full,
            Kind::Aligned => DistPolicy::Align { target: "loop".into(), ratio: 1 },
            Kind::IndependentBlock => DistPolicy::Block,
        };
        b = if a.cols == 1 {
            b.map_1d(name, a.dir, trip, 8, policy)
        } else {
            b.map_2d(name, a.dir, trip, a.cols, 8, policy, DistPolicy::Full, None)
        };
    }
    b.build()
}

fn expected_bytes(
    trip: u64,
    arrays: &[ArraySpec],
    scalars: u64,
    n_dev: usize,
    inbound: bool,
) -> u64 {
    let mut total = scalars * n_dev as u64; // scalars broadcast H2D only
    if !inbound {
        total = 0;
    }
    for a in arrays {
        let moved = matches!(
            (inbound, a.dir),
            (true, MapDir::To | MapDir::ToFrom) | (false, MapDir::From | MapDir::ToFrom)
        );
        if !moved {
            continue;
        }
        let bytes = trip * a.cols * 8;
        total += match a.kind {
            Kind::Replicated => bytes * n_dev as u64,
            Kind::Aligned | Kind::IndependentBlock => bytes,
        };
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bytes_are_conserved(
        trip in 1u64..100_000,
        arrays in proptest::collection::vec(arb_array(), 0..6),
        scalars in 0u64..64,
        n_dev in 1usize..8,
        weights in proptest::collection::vec(0.0f64..10.0, 8),
    ) {
        let region = build_region(trip, &arrays, scalars, n_dev);
        let plan = DataPlan::new(&region, n_dev).unwrap();

        // Any covering distribution of the loop — not just BLOCK.
        let counts = largest_remainder(&weights[..n_dev], trip);

        let h2d: u64 = (0..n_dev).map(|s| plan.h2d_bytes(s, counts[s])).sum();
        let d2h: u64 = (0..n_dev).map(|s| plan.d2h_bytes(s, counts[s])).sum();

        prop_assert_eq!(h2d, expected_bytes(trip, &arrays, scalars, n_dev, true),
            "inbound bytes mismatch");
        prop_assert_eq!(d2h, expected_bytes(trip, &arrays, scalars, n_dev, false),
            "outbound bytes mismatch");
    }

    #[test]
    fn chunked_bytes_equal_static_bytes(
        trip in 1u64..50_000,
        cols in 1u64..8,
        chunk in 1u64..5_000,
    ) {
        // Paying the aligned bytes chunk by chunk must total the same as
        // paying them once per device (latency differs; bytes must not).
        let region = build_region(
            trip,
            &[ArraySpec { kind: Kind::Aligned, dir: MapDir::ToFrom, cols }],
            0,
            4,
        );
        let plan = DataPlan::new(&region, 4).unwrap();
        let mut total_chunked = 0u64;
        let mut done = 0u64;
        while done < trip {
            let c = chunk.min(trip - done);
            total_chunked += plan.h2d_chunk_bytes(c);
            done += c;
        }
        let whole = plan.h2d_chunk_bytes(trip);
        prop_assert_eq!(total_chunked, whole, "chunking must not change byte totals");
    }

    #[test]
    fn alloc_footprint_at_least_transfers(
        trip in 1u64..50_000,
        arrays in proptest::collection::vec(arb_array(), 0..5),
        n_dev in 1usize..6,
        iters in 0u64..50_000,
    ) {
        let iters = iters.min(trip);
        let region = build_region(trip, &arrays, 8, n_dev);
        let plan = DataPlan::new(&region, n_dev).unwrap();
        for s in 0..n_dev {
            // Everything transferred in must have device memory backing.
            prop_assert!(plan.alloc_bytes(s, iters) >= plan.h2d_bytes(s, iters));
        }
    }
}
