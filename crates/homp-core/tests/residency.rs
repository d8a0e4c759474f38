//! Residency inside one `target data` region across offload kinds. An
//! array is tracked in rows while it is loop-aligned and in bytes while
//! it is replicated or distributed on its own; when an offload maps it
//! the other way, what the old unit recorded is dropped, whichever
//! scheduler runs the offload. A byte hold sits at its block's position
//! in the array, a device an offload gives no block keeps no hold, and
//! the memory a region holds counts against every offload inside it.

mod common;

use common::CoverageKernel;
use homp_core::{Algorithm, OffloadError, OffloadRegion, OffloadReport, Runtime};
use homp_lang::{DistPolicy, MapDir};
use homp_sim::{DeviceId, Machine, OpKind};

const N: u64 = 80_000;

fn aligned() -> DistPolicy {
    DistPolicy::Align { target: "loop".into(), ratio: 1 }
}

/// axpy over every device of `machine`: `x` aligned with the loop and
/// mapped `to`, `y` distributed by `y` and mapped `tofrom`.
fn axpy(machine: &Machine, alg: Algorithm, y: DistPolicy) -> OffloadRegion {
    let devices: Vec<DeviceId> = (0..machine.devices.len() as DeviceId).collect();
    OffloadRegion::builder("axpy")
        .trip_count(N)
        .devices(devices)
        .algorithm(alg)
        .map_1d("x", MapDir::To, N, 8, aligned())
        .map_1d("y", MapDir::ToFrom, N, 8, y)
        .build()
}

fn run(rt: &mut Runtime, r: &OffloadRegion) -> OffloadReport {
    let mut k = CoverageKernel::new(N);
    let report = rt.offload(r, &mut k).run().unwrap();
    k.assert_exactly_once(&r.algorithm.to_string());
    report
}

const DYNAMIC: Algorithm = Algorithm::Dynamic { chunk_pct: 5.0 };

/// A BLOCK offload leaves 20,000 of `y`'s rows on each device. A chunked
/// offload that then maps `y` whole must move all 640,000 of its bytes
/// to every device: rows are not bytes, so none of them count as held.
#[test]
fn chunked_after_static_drops_the_row_residency() {
    let machine = Machine::four_k40();
    let mut rt = Runtime::new(machine.clone(), 42);
    let rows = axpy(&machine, Algorithm::Block, aligned());
    rt.data_region_begin(&rows);
    run(&mut rt, &rows);

    let elided = rt.transfer_stats().h2d_elided_bytes;
    let report = run(&mut rt, &axpy(&machine, DYNAMIC, DistPolicy::Full));
    let trace = &report.trace;
    let fixed: Vec<u64> = trace
        .events()
        .iter()
        .filter(|e| e.kind == OpKind::H2D && trace.label(e.label) == "map-in-fixed")
        .map(|e| e.amount)
        .collect();
    assert_eq!(fixed, [640_000; 4], "whole y to every device");
    assert_eq!(rt.transfer_stats().h2d_elided_bytes, elided, "nothing was resident");
    rt.data_region_end().unwrap();
}

/// A chunked offload drops `y`'s rows; a BLOCK offload that then maps
/// `y` whole holds it in bytes, so the close flushes 640,000 bytes from
/// each device, not that count of rows.
#[test]
fn static_after_chunked_flushes_bytes() {
    let machine = Machine::four_k40();
    let mut rt = Runtime::new(machine.clone(), 42);
    let rows = axpy(&machine, Algorithm::Block, aligned());
    rt.data_region_begin(&rows);
    run(&mut rt, &rows);
    run(&mut rt, &axpy(&machine, DYNAMIC, aligned()));
    run(&mut rt, &axpy(&machine, Algorithm::Block, DistPolicy::Full));

    let close = rt.data_region_end().unwrap();
    assert_eq!(close.flushed_bytes, 2_560_000, "y whole on four devices");
    assert_eq!(close.flush_transfers, 4);
}

/// H2D bytes each device received under `label`, by device id.
fn h2d_per_device(report: &OffloadReport, label: &str) -> Vec<u64> {
    let mut bytes = vec![0; report.devices.len()];
    let trace = &report.trace;
    for e in trace.events() {
        if e.kind == OpKind::H2D && trace.label(e.label) == label {
            bytes[e.device as usize] += e.amount;
        }
    }
    bytes
}

/// BLOCK axpy on `devices` with `x` and `y` each distributed BLOCK on
/// its own and the loop aligned with `x`.
fn independent(devices: Vec<DeviceId>) -> OffloadRegion {
    OffloadRegion::builder("axpy")
        .trip_count(N)
        .devices(devices)
        .algorithm(Algorithm::Block)
        .align_loop_with("x", 1)
        .map_1d("x", MapDir::To, N, 8, DistPolicy::Block)
        .map_1d("y", MapDir::ToFrom, N, 8, DistPolicy::Block)
        .build()
}

/// `y` distributed BLOCK on its own (the loop aligns with `x`) is held
/// in bytes at its block's position. Reversing the device order gives
/// every block a new owner, so each device receives its new block of
/// `y` beside its new rows of `x`, and nothing counts as held.
#[test]
fn independent_blocks_move_when_the_device_order_reverses() {
    let mut rt = Runtime::new(Machine::four_k40(), 42);
    let forward = independent(vec![0, 1, 2, 3]);
    rt.data_region_begin(&forward);
    run(&mut rt, &forward);

    let elided = rt.transfer_stats().h2d_elided_bytes;
    let report = run(&mut rt, &independent(vec![3, 2, 1, 0]));
    assert_eq!(h2d_per_device(&report, "map-in"), [320_000; 4], "x rows and y block");
    assert_eq!(rt.transfer_stats().h2d_elided_bytes, elided, "no block stayed put");
    rt.data_region_end().unwrap();
}

/// Only the devices the last offload gives a block of `y` hold it, so
/// the close flushes `y`'s 640,000 bytes once, one transfer per such
/// device. The others, left out of the offload or given no rows by
/// CUTOFF, keep none of what an earlier offload left on them.
#[test]
fn a_device_given_no_block_keeps_no_hold() {
    let k40 = Machine::four_k40();
    let node = Machine::full_node();
    let rows = |devices: Vec<DeviceId>| {
        OffloadRegion::builder("axpy")
            .trip_count(N)
            .devices(devices)
            .algorithm(Algorithm::Block)
            .map_1d("x", MapDir::To, N, 8, aligned())
            .map_1d("y", MapDir::ToFrom, N, 8, aligned())
            .build()
    };
    let cutoff = Algorithm::Model1 { cutoff: Some(0.15) };
    let cases = [
        ("rows", &k40, rows(vec![0, 1, 2, 3]), rows(vec![0, 1])),
        ("bytes", &k40, independent(vec![0, 1, 2, 3]), independent(vec![0, 1])),
        ("cutoff", &node, axpy(&node, Algorithm::Block, aligned()), axpy(&node, cutoff, aligned())),
    ];
    for (name, machine, first, second) in cases {
        let mut rt = Runtime::new(machine.clone(), 42);
        rt.data_region_begin(&first);
        run(&mut rt, &first);
        let report = run(&mut rt, &second);
        let given = report.counts.iter().filter(|&&c| c > 0).count() as u64;
        assert!(given < first.devices.len() as u64, "{name}: some device gets no block");
        let close = rt.data_region_end().unwrap();
        assert_eq!(close.flushed_bytes, N * 8, "{name}: y once");
        assert_eq!(close.flush_transfers, given, "{name}");
    }
}

/// A region keeps its arrays allocated between offloads, and an offload
/// inside it must fit beside them: a 12 GiB K40 holding a 7 GiB array
/// for the region cannot take another 7 GiB array until the region
/// closes.
#[test]
fn region_memory_counts_against_offloads_of_other_arrays() {
    const ELEMS: u64 = (7 << 30) / 8;
    let whole = |name: &str| {
        OffloadRegion::builder("big")
            .trip_count(N)
            .devices(vec![0])
            .algorithm(Algorithm::Block)
            .map_1d(name, MapDir::To, ELEMS, 8, DistPolicy::Full)
            .build()
    };
    let (a, b) = (whole("a"), whole("b"));
    let mut rt = Runtime::new(Machine::four_k40(), 42);
    rt.data_region_begin(&a);
    run(&mut rt, &a);
    let mut k = CoverageKernel::new(N);
    let err = rt.offload(&b, &mut k).run().unwrap_err();
    assert!(matches!(err, OffloadError::OutOfDeviceMemory { device: 0, .. }), "{err}");
    rt.data_region_end().unwrap();
    run(&mut rt, &b);
}
