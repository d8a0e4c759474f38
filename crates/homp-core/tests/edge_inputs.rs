//! Edge inputs give a typed error or a valid schedule, never a panic:
//! a region with no devices, a region naming a device twice, an empty
//! loop, a one-iteration loop and more devices than iterations, under
//! every algorithm (the extended suite plus AUTO).

use homp_core::testing::{assert_decisions_partition, CoverageKernel};
use homp_core::{
    Algorithm, FnPipelineKernel, OffloadError, OffloadRegion, Pipeline, Range, Runtime,
};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{DeviceId, Machine, SimTime};

fn algorithms() -> Vec<Algorithm> {
    let mut algs = Algorithm::extended_suite();
    algs.push(Algorithm::Auto { cutoff: None });
    algs
}

/// The builder rejects an empty device list and a zero trip count, but
/// compiled directives and direct field edits reach the runtime with
/// them, so the fields are set after `build`.
fn region(n: u64, devices: Vec<DeviceId>, alg: Algorithm) -> OffloadRegion {
    let aligned = || DistPolicy::Align { target: "loop".into(), ratio: 1 };
    let mut r = OffloadRegion::builder("axpy")
        .trip_count(1)
        .devices(vec![0])
        .algorithm(alg)
        .map_1d("x", MapDir::To, n, 8, aligned())
        .map_1d("y", MapDir::ToFrom, n, 8, aligned())
        .build();
    r.trip_count = n;
    r.devices = devices;
    r
}

#[test]
fn a_region_without_devices_is_a_typed_error() {
    for alg in algorithms() {
        let r = region(1_000, Vec::new(), alg);
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        let mut k = CoverageKernel::new(1_000);
        assert_eq!(rt.offload(&r, &mut k).run().unwrap_err(), OffloadError::NoDevices, "{alg}");
        let at = SimTime::from_secs(1e-3);
        assert_eq!(
            rt.offload(&r, &mut k).at(at).run().unwrap_err(),
            OffloadError::NoDevices,
            "{alg} at(t)"
        );
        let mut db = homp_core::history::HistoryDb::new();
        assert_eq!(
            rt.offload_learned(&r, &mut k, &mut db).unwrap_err(),
            OffloadError::NoDevices,
            "{alg} learned"
        );
        assert!(k.hits.iter().all(|&h| h == 0), "{alg}: nothing may execute");
    }
    // The overlapped pipeline executor validates every stage too.
    let good = region(1_000, vec![0, 1], Algorithm::Block);
    let empty = region(1_000, Vec::new(), Algorithm::Block);
    let pipeline = Pipeline::builder("edge").then(good).nowait().then(empty).build();
    let intensity = KernelIntensity {
        flops_per_iter: 2.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    };
    let mut k = FnPipelineKernel::new(vec![intensity; 2], |_s: usize, _r: Range| {});
    let mut rt = Runtime::new(Machine::four_k40(), 42);
    assert_eq!(rt.offload_pipeline(&pipeline, &mut k).unwrap_err(), OffloadError::NoDevices);
}

/// Two slots on one device would share its calendars (WORK_ASSIST's
/// peeked finish times then disagree with the committed ones), so a
/// repeated device id is rejected before anything runs.
#[test]
fn a_region_naming_a_device_twice_is_a_typed_error() {
    let dup = OffloadError::DuplicateDevice(0);
    for alg in algorithms() {
        let r = region(1_000, vec![0, 0, 1], alg);
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        let mut k = CoverageKernel::new(1_000);
        assert_eq!(rt.offload(&r, &mut k).run().unwrap_err(), dup, "{alg}");
        let at = SimTime::from_secs(1e-3);
        assert_eq!(rt.offload(&r, &mut k).at(at).run().unwrap_err(), dup, "{alg} at(t)");
        let mut db = homp_core::history::HistoryDb::new();
        assert_eq!(rt.offload_learned(&r, &mut k, &mut db).unwrap_err(), dup, "{alg} learned");
        assert!(k.hits.iter().all(|&h| h == 0), "{alg}: nothing may execute");
    }
    // Every pipeline stage is checked, in either executor.
    let good = region(1_000, vec![0, 1], Algorithm::Block);
    let twice = region(1_000, vec![2, 3, 2], Algorithm::Block);
    let intensity = KernelIntensity {
        flops_per_iter: 2.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    };
    for nowait in [false, true] {
        let mut b = Pipeline::builder("edge").then(good.clone());
        if nowait {
            b = b.nowait();
        }
        let pipeline = b.then(twice.clone()).build();
        let mut k = FnPipelineKernel::new(vec![intensity; 2], |_s: usize, _r: Range| {});
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        assert_eq!(
            rt.offload_pipeline(&pipeline, &mut k).unwrap_err(),
            OffloadError::DuplicateDevice(2),
            "nowait={nowait}"
        );
    }
}

#[test]
fn tiny_loops_give_valid_schedules() {
    for machine in [Machine::four_k40(), Machine::full_node()] {
        let devices: Vec<DeviceId> = (0..machine.devices.len() as DeviceId).collect();
        // Empty, one iteration, and fewer iterations than devices.
        for n in [0, 1, 3] {
            for alg in algorithms() {
                let label = format!("{alg} n={n} on {}", machine.name);
                let mut rt = Runtime::new(machine.clone(), 42);
                rt.set_decision_log(true);
                let mut k = CoverageKernel::new(n);
                let report = rt
                    .offload(&region(n, devices.clone(), alg), &mut k)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                k.assert_exactly_once(&label);
                assert_decisions_partition(&report, n, &label);
                assert_eq!(report.counts.len(), devices.len(), "{label}");
            }
        }
    }
}
