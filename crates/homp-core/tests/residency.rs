//! Residency inside one `target data` region across offload kinds. An
//! array is tracked in rows while it is loop-aligned and in bytes while
//! it is replicated; when an offload maps it the other way, what the
//! old unit recorded is dropped, whichever scheduler runs the offload.

mod common;

use common::CoverageKernel;
use homp_core::{Algorithm, OffloadRegion, OffloadReport, Runtime};
use homp_lang::{DistPolicy, MapDir};
use homp_sim::{DeviceId, Machine, OpKind};

const N: u64 = 80_000;

fn aligned() -> DistPolicy {
    DistPolicy::Align {
        target: "loop".into(),
        ratio: 1,
    }
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
    assert_eq!(
        rt.transfer_stats().h2d_elided_bytes,
        elided,
        "nothing was resident"
    );
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
