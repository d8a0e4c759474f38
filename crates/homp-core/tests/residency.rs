//! Residency inside one `target data` region across offload kinds. An
//! array is tracked in rows while it is loop-aligned and in bytes while
//! it is replicated or distributed on its own; when an offload maps it
//! the other way, what the old unit recorded is dropped, whichever
//! scheduler runs the offload. A byte hold sits at its block's position
//! in the array, and the memory a region holds counts against every
//! offload inside it.

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

/// `y` distributed BLOCK on its own (the loop aligns with `x`) is held
/// in bytes at its block's position. Reversing the device order gives
/// every block a new owner, so each device receives its new block of
/// `y` beside its new rows of `x`, and nothing counts as held.
#[test]
fn independent_blocks_move_when_the_device_order_reverses() {
    let block = |devices: Vec<DeviceId>| {
        OffloadRegion::builder("axpy")
            .trip_count(N)
            .devices(devices)
            .algorithm(Algorithm::Block)
            .align_loop_with("x", 1)
            .map_1d("x", MapDir::To, N, 8, DistPolicy::Block)
            .map_1d("y", MapDir::ToFrom, N, 8, DistPolicy::Block)
            .build()
    };
    let mut rt = Runtime::new(Machine::four_k40(), 42);
    let forward = block(vec![0, 1, 2, 3]);
    rt.data_region_begin(&forward);
    run(&mut rt, &forward);

    let elided = rt.transfer_stats().h2d_elided_bytes;
    let report = run(&mut rt, &block(vec![3, 2, 1, 0]));
    assert_eq!(h2d_per_device(&report, "map-in"), [320_000; 4], "x rows and y block");
    assert_eq!(rt.transfer_stats().h2d_elided_bytes, elided, "no block stayed put");
    rt.data_region_end().unwrap();
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
