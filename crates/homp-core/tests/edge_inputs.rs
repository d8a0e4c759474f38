//! Edge inputs give a typed error or a valid schedule, never a panic:
//! a region with no devices, a region naming a device twice, an empty
//! loop, a one-iteration loop and more devices than iterations, under
//! every algorithm (the extended suite plus AUTO), a CUTOFF ratio
//! outside `[0, 1)` under every algorithm that takes one, a scheduling
//! percentage outside its range under every algorithm that takes one,
//! mapped sizes whose byte counts overflow `u64`, an ALIGN cycle, and a
//! split handed to `.align` that does not fit the region.

use homp_core::align::AlignError;
use homp_core::dist::Distribution;
use homp_core::history::HistoryDb;
use homp_core::testing::{assert_decisions_partition, CoverageKernel};
use homp_core::{
    compile, Algorithm, CompileError, CompileOptions, FnPipelineKernel, Homp, HompError,
    OffloadError, OffloadRegion, Pipeline, PlanError, Range, Runtime, RuntimeConfig,
};
use homp_lang::{parse_directive, DistPolicy, Env, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{DeviceId, Machine, SimTime};

fn algorithms() -> Vec<Algorithm> {
    let mut algs = Algorithm::extended_suite();
    algs.push(Algorithm::Auto { cutoff: None });
    algs
}

/// axpy over `n` iterations on `devices`, `x` and `y` aligned with the
/// loop. The builder takes any trip count and device list, empty ones
/// included.
fn region(n: u64, devices: Vec<DeviceId>, alg: Algorithm) -> OffloadRegion {
    let aligned = || DistPolicy::Align { target: "loop".into(), ratio: 1 };
    OffloadRegion::builder("axpy")
        .trip_count(n)
        .devices(devices)
        .algorithm(alg)
        .map_1d("x", MapDir::To, n, 8, aligned())
        .map_1d("y", MapDir::ToFrom, n, 8, aligned())
        .build()
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
        let mut db = HistoryDb::new();
        assert_eq!(
            rt.offload(&r, &mut k).history(&mut db).run().unwrap_err(),
            OffloadError::NoDevices,
            "{alg} learned"
        );
        assert_eq!(
            rt.offload(&r, &mut k).history(&mut db).at(at).run().unwrap_err(),
            OffloadError::NoDevices,
            "{alg} learned at(t)"
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
        let mut db = HistoryDb::new();
        let learned = rt.offload(&r, &mut k).history(&mut db).run().unwrap_err();
        assert_eq!(learned, dup, "{alg} learned");
        let learned = rt.offload(&r, &mut k).history(&mut db).at(at).run().unwrap_err();
        assert_eq!(learned, dup, "{alg} learned at(t)");
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
                let mut rt = RuntimeConfig::new().decision_log(true).build(machine.clone());
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

/// The algorithms that take a CUTOFF ratio, each carrying `ratio`.
fn with_cutoff(ratio: f64) -> [Algorithm; 6] {
    let cutoff = Some(ratio);
    [
        Algorithm::Model1 { cutoff },
        Algorithm::Model2 { cutoff },
        Algorithm::ProfileConst { sample_pct: 10.0, cutoff },
        Algorithm::ProfileModel { sample_pct: 10.0, cutoff },
        Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff },
        Algorithm::Auto { cutoff },
    ]
}

/// Offload `reg` through every entry point that checks a region: a
/// plain offload, `.at(t)`, `.history(db)` with either, planning its
/// split with `Runtime::distribution`, and the second stage of a
/// pipeline in either executor. Each must fail, before anything runs,
/// with an error `rejects` accepts.
fn assert_rejected_everywhere(
    reg: &OffloadRegion,
    rejects: impl Fn(OffloadError) -> bool,
    label: &str,
) {
    let mut rt = Runtime::new(Machine::four_k40(), 42);
    let mut k = CoverageKernel::new(1_000);
    assert!(rejects(rt.offload(reg, &mut k).run().unwrap_err()), "{label}");
    let at = SimTime::from_secs(1e-3);
    assert!(rejects(rt.offload(reg, &mut k).at(at).run().unwrap_err()), "{label} at(t)");
    let mut db = HistoryDb::new();
    let learned = rt.offload(reg, &mut k).history(&mut db).run().unwrap_err();
    assert!(rejects(learned), "{label} learned");
    let learned = rt.offload(reg, &mut k).history(&mut db).at(at).run().unwrap_err();
    assert!(rejects(learned), "{label} learned at(t)");
    assert!(k.hits.iter().all(|&h| h == 0), "{label}: nothing may execute");

    let intensity = KernelIntensity {
        flops_per_iter: 2.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    };
    assert!(rejects(rt.distribution(reg, &intensity).unwrap_err()), "{label} distribution");
    let good = region(1_000, vec![0, 1], Algorithm::Block);
    for nowait in [false, true] {
        let mut b = Pipeline::builder("edge").then(good.clone());
        if nowait {
            b = b.nowait();
        }
        let pipeline = b.then(reg.clone()).build();
        let mut k = FnPipelineKernel::new(vec![intensity; 2], |_s: usize, _r: Range| {});
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        let err = rt.offload_pipeline(&pipeline, &mut k).unwrap_err();
        assert!(rejects(err), "{label} pipeline nowait={nowait}");
    }
}

/// `apply_cutoff` asserts its ratio lies in `[0, 1)`. Builder values
/// outside it (1.0, 1.5, −0.1, NaN) are rejected before anything runs,
/// on every entry point that checks a region's devices.
#[test]
fn a_cutoff_outside_the_unit_interval_is_a_typed_error() {
    for r in [1.0, 1.5, -0.1, f64::NAN] {
        for alg in with_cutoff(r) {
            let rejects =
                |e| matches!(e, OffloadError::InvalidCutoff(x) if x.to_bits() == r.to_bits());
            assert_rejected_everywhere(&region(1_000, vec![0, 1, 2, 3], alg), rejects, &alg.key());
        }
    }
}

/// Directive text reaches CUTOFF as a whole percentage: 100 % and
/// above fail to compile, below 100 % compiles and runs (0 % keeps
/// every device).
#[test]
fn a_directive_cutoff_of_100_percent_or_more_is_a_compile_error() {
    let machine = Machine::four_k40();
    let types: Vec<&str> = machine.devices.iter().map(|d| d.dev_type.homp_name()).collect();
    let mut env = Env::new();
    env.insert("n".into(), 1_000);
    let kinds = [
        "MODEL_1_AUTO",
        "MODEL_2_AUTO",
        "SCHED_PROFILE_AUTO",
        "MODEL_PROFILE_AUTO",
        "WORK_ASSIST",
        "AUTO",
    ];
    for kind in kinds {
        for pct in [0u64, 15, 99, 100, 150] {
            let text = format!(
                "#pragma omp parallel for target device(*) \
                 map(to: x[0:n] partition([ALIGN(loop)])) \
                 map(tofrom: y[0:n] partition([ALIGN(loop)])) \
                 distribute dist_schedule(target:[{kind}], CUTOFF({pct}%))"
            );
            let d = parse_directive(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let compiled = compile(&[&d], &env, &types, &CompileOptions::for_loop("axpy", 1_000));
            if pct >= 100 {
                let want = CompileError::InvalidCutoff(pct as f64 / 100.0);
                assert_eq!(compiled.unwrap_err(), want, "{kind} CUTOFF({pct}%)");
                continue;
            }
            let reg = compiled.unwrap_or_else(|e| panic!("{kind} CUTOFF({pct}%): {e}"));
            let mut rt = Runtime::new(machine.clone(), 42);
            let mut k = CoverageKernel::new(1_000);
            rt.offload(&reg, &mut k).run().unwrap_or_else(|e| panic!("{kind} CUTOFF({pct}%): {e}"));
            k.assert_exactly_once(&format!("{kind} CUTOFF({pct}%)"));
        }
    }
}

/// Byte counts past `u64::MAX` once wrapped in release builds (a
/// 2^32 × 2^32 `REAL` matrix planned 0 bytes) and panicked in debug
/// ones. They are `PlanError::Overflow` on every entry point, before
/// anything runs.
#[test]
fn byte_counts_that_overflow_u64_are_a_typed_error() {
    let overflow = |a: &str| OffloadError::Plan(PlanError::Overflow(a.into()));
    // 2^61 elements of 8 bytes each: x is 2^64 bytes.
    for alg in algorithms() {
        let reg = region(1 << 61, vec![0, 1, 2, 3], alg);
        assert_rejected_everywhere(&reg, |e| e == overflow("x"), &alg.key());
    }
    // The overlapped executor prices a consumer that reads a linked array
    // whole as importing every remote producer slab: 2^33-byte rows over
    // a 2^31-iteration producer loop exceed u64, although each stage's
    // own plan fits.
    let trip = 1u64 << 31;
    let g = |dir, rows| homp_core::ArrayMap {
        name: "g".into(),
        dir,
        dims: vec![1, 1 << 30],
        elem_bytes: 8,
        partition: vec![rows, DistPolicy::Full],
        halo: vec![None, None],
    };
    let mut producer = region(trip, vec![0, 1], Algorithm::Block);
    producer.arrays = vec![g(MapDir::From, DistPolicy::Block)];
    let mut consumer = region(trip, vec![2, 3], Algorithm::Block);
    consumer.arrays = vec![g(MapDir::To, DistPolicy::Full)];
    let pipeline = Pipeline::builder("edge").then(producer).nowait().then(consumer).build();
    let intensity = KernelIntensity {
        flops_per_iter: 2.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    };
    let mut k = FnPipelineKernel::new(vec![intensity; 2], |_s: usize, _r: Range| {});
    let mut rt = Runtime::new(Machine::four_k40(), 42);
    assert_eq!(rt.offload_pipeline(&pipeline, &mut k).unwrap_err(), overflow("g"));

    // Directive text: an n × n REAL matrix with n = 2^32 (2^67 bytes)
    // or n = 5·10^9 (2·10^20 bytes).
    let machine = Machine::four_k40();
    let types: Vec<&str> = machine.devices.iter().map(|d| d.dev_type.homp_name()).collect();
    for n in [1u64 << 32, 5_000_000_000] {
        let mut env = Env::new();
        env.insert("n".into(), n as i64);
        let text = "#pragma omp parallel for target device(*) \
                    map(to: A[0:n][0:n] partition([ALIGN(loop)], FULL)) \
                    distribute dist_schedule(target:[BLOCK])";
        let d = parse_directive(text).unwrap();
        let reg = compile(&[&d], &env, &types, &CompileOptions::for_loop("mv", n)).unwrap();
        let mut rt = Runtime::new(machine.clone(), 42);
        let mut k = CoverageKernel::new(1_000);
        assert_eq!(rt.offload(&reg, &mut k).run().unwrap_err(), overflow("A"), "n = {n}");
    }
}

/// An ALIGN cycle (`a` aligned with `b`, `b` with `a`) has no root to
/// split by: every entry point refuses it, `Runtime::distribution`
/// included.
#[test]
fn an_align_cycle_is_a_typed_error() {
    let with = |target: &str| DistPolicy::Align { target: target.into(), ratio: 1 };
    let cycle = |e| matches!(e, OffloadError::Plan(PlanError::Align(AlignError::Cycle(_))));
    for alg in algorithms() {
        let reg = OffloadRegion::builder("cycle")
            .trip_count(1_000)
            .devices(vec![0, 1, 2, 3])
            .algorithm(alg)
            .map_1d("a", MapDir::To, 1_000, 8, with("b"))
            .map_1d("b", MapDir::ToFrom, 1_000, 8, with("a"))
            .build();
        assert_rejected_everywhere(&reg, cycle, &alg.key());
    }
}

/// Each algorithm that takes a scheduling percentage, carrying `pct`,
/// with the parameter's name.
fn with_pct(pct: f64) -> [(Algorithm, &'static str); 5] {
    [
        (Algorithm::Dynamic { chunk_pct: pct }, "chunk_pct"),
        (Algorithm::Guided { chunk_pct: pct }, "chunk_pct"),
        (Algorithm::ProfileConst { sample_pct: pct, cutoff: None }, "sample_pct"),
        (Algorithm::ProfileModel { sample_pct: pct, cutoff: None }, "sample_pct"),
        (Algorithm::WorkAssist { min_assist_pct: pct, cutoff: None }, "min_assist_pct"),
    ]
}

/// `chunk_pct` and `sample_pct` lie in `(0, 100]`, `min_assist_pct` in
/// `[0, 100]` (0 % lets an assistant steal any tail). Builder values
/// outside (0 where not allowed, −1, 100.5, 150, ±∞, NaN) are rejected
/// before anything runs, on every entry point; values at the edges of
/// each range run and cover the loop exactly once.
#[test]
fn a_scheduling_percentage_outside_its_range_is_a_typed_error() {
    let bad = [0.0, -1.0, 100.5, 150.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    for pct in bad {
        for (alg, name) in with_pct(pct) {
            if pct == 0.0 && name == "min_assist_pct" {
                continue;
            }
            let rejects = |e| {
                matches!(e, OffloadError::InvalidPercent { param, value }
                    if param == name && value.to_bits() == pct.to_bits())
            };
            assert_rejected_everywhere(&region(1_000, vec![0, 1, 2, 3], alg), rejects, &alg.key());
        }
    }
    for pct in [0.0, 1e-9, 0.5, 100.0] {
        for (alg, name) in with_pct(pct) {
            if pct == 0.0 && name != "min_assist_pct" {
                continue;
            }
            let mut rt = RuntimeConfig::new().decision_log(true).build(Machine::four_k40());
            let mut k = CoverageKernel::new(1_000);
            let reg = region(1_000, vec![0, 1, 2, 3], alg);
            let report = rt.offload(&reg, &mut k).run().unwrap_or_else(|e| panic!("{alg}: {e}"));
            k.assert_exactly_once(&format!("{alg}"));
            assert_decisions_partition(&report, 1_000, &format!("{alg}"));
        }
    }
}

/// Directive text reaches the percentages as whole numbers: 0 % fails
/// to compile except for `WORK_ASSIST`, above 100 % always fails, and
/// the rest compile and run.
#[test]
fn a_directive_schedule_percentage_outside_its_range_is_a_compile_error() {
    let machine = Machine::four_k40();
    let types: Vec<&str> = machine.devices.iter().map(|d| d.dev_type.homp_name()).collect();
    let mut env = Env::new();
    env.insert("n".into(), 1_000);
    let kinds = [
        ("SCHED_DYNAMIC", "chunk_pct"),
        ("SCHED_GUIDED", "chunk_pct"),
        ("SCHED_PROFILE_AUTO", "sample_pct"),
        ("MODEL_PROFILE_AUTO", "sample_pct"),
        ("WORK_ASSIST", "min_assist_pct"),
    ];
    for (kind, param) in kinds {
        for pct in [0u64, 1, 2, 100, 101, 150] {
            let text = format!(
                "#pragma omp parallel for target device(*) \
                 map(to: x[0:n] partition([ALIGN(loop)])) \
                 map(tofrom: y[0:n] partition([ALIGN(loop)])) \
                 distribute dist_schedule(target:[{kind},{pct}%])"
            );
            let d = parse_directive(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let compiled = compile(&[&d], &env, &types, &CompileOptions::for_loop("axpy", 1_000));
            let label = format!("{kind},{pct}%");
            if pct > 100 || (pct == 0 && param != "min_assist_pct") {
                let want = CompileError::InvalidPercent { param, value: pct as f64 };
                assert_eq!(compiled.unwrap_err(), want, "{label}");
                continue;
            }
            let reg = compiled.unwrap_or_else(|e| panic!("{label}: {e}"));
            let mut rt = Runtime::new(machine.clone(), 42);
            let mut k = CoverageKernel::new(1_000);
            rt.offload(&reg, &mut k).run().unwrap_or_else(|e| panic!("{label}: {e}"));
            k.assert_exactly_once(&label);
        }
    }
}

/// A directive pair over an empty loop compiles under every algorithm,
/// and offloading it runs nothing: every count is zero.
#[test]
fn a_zero_trip_directive_pair_compiles_and_runs_empty() {
    let machine = Machine::four_k40();
    let types: Vec<&str> = machine.devices.iter().map(|d| d.dev_type.homp_name()).collect();
    let mut env = Env::new();
    env.insert("n".into(), 0);
    let data = parse_directive(
        "#pragma omp parallel target device(*) \
         map(to: x[0:n] partition([ALIGN(loop)])) \
         map(tofrom: y[0:n] partition([ALIGN(loop)]))",
    )
    .unwrap();
    let kinds = [
        "BLOCK",
        "SCHED_DYNAMIC,2%",
        "SCHED_GUIDED,20%",
        "MODEL_1_AUTO",
        "MODEL_2_AUTO",
        "SCHED_PROFILE_AUTO,10%",
        "MODEL_PROFILE_AUTO,10%",
        "WORK_ASSIST",
        "AUTO",
    ];
    for kind in kinds {
        let text = format!("#pragma omp parallel for distribute dist_schedule(target:[{kind}])");
        let lp = parse_directive(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let opts = CompileOptions::for_loop("axpy", 0);
        let reg =
            compile(&[&data, &lp], &env, &types, &opts).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(reg.trip_count, 0, "{kind}");
        let mut rt = Runtime::new(machine.clone(), 42);
        let mut k = CoverageKernel::new(0);
        let report = rt.offload(&reg, &mut k).run().unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(report.counts, [0; 4], "{kind}");
        assert_eq!(report.faults.host_iters, 0, "{kind}");
    }
}

/// `.align` runs a loop on a split with one range per device of the
/// region that partitions its trip count. A split over another number of
/// slots, over another trip count, or replicated (FULL) is a typed error
/// under `.run()` and `.at(t)`, before the engine is rewound or runs an
/// op: nothing executes, and an offload dispatched `.at(t)` afterwards
/// queues behind the work in flight exactly as it does without the
/// refused calls. A split that fits runs its counts under every
/// algorithm, each iteration once.
#[test]
fn a_split_that_does_not_fit_the_region_is_a_typed_error() {
    let n = 1_000u64;
    let bad = [
        (Distribution::block(n, 3), OffloadError::AlignSlots(3)),
        (Distribution::from_counts(&[0, 600, 0, 400, 0]), OffloadError::AlignSlots(5)),
        (Distribution::block(n + 1, 4), OffloadError::AlignTripCount(n + 1)),
        (Distribution::from_counts(&[0, 600, 0, 399]), OffloadError::AlignTripCount(n - 1)),
        (Distribution::full(n, 4), OffloadError::AlignReplicated),
    ];
    let display = |i: usize| bad[i].1.to_string();
    assert_eq!(display(0), "the aligned split has 3 slots, not one per device of the region");
    assert_eq!(display(2), "the aligned split covers 1001 iterations, not the loop's trip count");
    assert_eq!(display(4), "the aligned split is replicated (FULL)");
    let fits = Distribution::from_counts(&[0, 600, 0, 400]);
    let at = SimTime::from_secs(41.6e-6);
    for alg in algorithms() {
        let r = region(n, vec![0, 1, 2, 3], alg);
        let sequence = |refused: Option<&(Distribution, OffloadError)>| {
            let mut rt = Runtime::new(Machine::four_k40(), 42);
            rt.offload(&r, &mut CoverageKernel::new(n)).at(SimTime::ZERO).run().unwrap();
            if let Some((split, err)) = refused {
                let (ops, mut k) = (rt.sim_ops(), CoverageKernel::new(n));
                let label = format!("{alg} {:?}", split.counts());
                assert_eq!(rt.offload(&r, &mut k).align(split).run().unwrap_err(), *err, "{label}");
                let late = rt.offload(&r, &mut k).align(split).at(at).run().unwrap_err();
                assert_eq!(late, *err, "{label} at(t)");
                assert_eq!(rt.sim_ops(), ops, "{label}: no engine op");
                assert!(k.hits.iter().all(|&h| h == 0), "{label}: nothing may execute");
            }
            rt.offload(&r, &mut CoverageKernel::new(n)).at(at).run().unwrap()
        };
        let alone = sequence(None);
        for case in &bad {
            let after = sequence(Some(case));
            assert_eq!(after.completed_at, alone.completed_at, "{alg} after {:?}", case.1);
            assert_eq!(after.trace.to_csv(), alone.trace.to_csv(), "{alg} after {:?}", case.1);
        }
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        let mut k = CoverageKernel::new(n);
        let report = rt.offload(&r, &mut k).align(&fits).run().unwrap();
        k.assert_exactly_once(&alg.key());
        assert_eq!(report.counts, fits.counts(), "{alg}");
        assert_eq!(report.algorithm, alg, "{alg}: the region's algorithm as written");
        let mut k = CoverageKernel::new(n);
        let report = rt.offload(&r, &mut k).align(&fits).at(at).run().unwrap();
        k.assert_exactly_once(&format!("{alg} at(t)"));
        assert_eq!(report.counts, fits.counts(), "{alg} at(t)");
    }
}

/// A halo exchange takes a partitioned split with one range per slot, on
/// devices the machine has, each named once. A slot the machine lacks, a
/// repeated slot, a split over more or fewer slots, or a replicated (FULL)
/// split is the typed error the region check and `.align` give, through
/// `Runtime::exchange_halo` and `Homp::halo_exchange` alike, before the
/// engine is rewound: an offload dispatched `.at(t)` afterwards queues
/// behind the work in flight exactly as it does without the refused
/// exchange.
#[test]
fn a_halo_exchange_on_a_split_that_does_not_fit_is_a_typed_error() {
    let n = 64u64;
    let mut env = Env::new();
    env.insert("n".into(), n as i64);
    env.insert("m".into(), 32);
    let halo = "#pragma omp halo_exchange (uold)";
    let uold = Homp::new(Machine::four_k40())
        .compile_source(
            &["#pragma omp parallel target data device(*) \
               map(alloc: uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))"],
            &env,
            CompileOptions::for_loop("jacobi", n).with_loop_label("loop1"),
        )
        .unwrap();
    let fits = Distribution::block(n, 4);
    let bad = [
        (vec![0, 1, 2, 9], fits.clone(), OffloadError::UnknownDevice(9)),
        (vec![0, 1, 2, 3], Distribution::block(n, 8), OffloadError::AlignSlots(8)),
        (vec![0, 1, 2, 3], Distribution::block(n, 2), OffloadError::AlignSlots(2)),
        (vec![0, 0, 1, 2], fits.clone(), OffloadError::DuplicateDevice(0)),
        (vec![0, 1, 2, 3], Distribution::full(n, 4), OffloadError::AlignReplicated),
    ];
    let axpy = region(80_000, vec![0, 1, 2, 3], Algorithm::Block);
    let at = SimTime::from_secs(41.6e-6);
    let run = |rt: &mut Runtime, t| {
        rt.offload(&axpy, &mut CoverageKernel::new(80_000)).at(t).run().unwrap()
    };
    let alone = {
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        run(&mut rt, SimTime::ZERO);
        run(&mut rt, at)
    };
    for (slots, split, err) in &bad {
        let ctx = format!("slots {slots:?}, split {:?}", split.counts());
        let mut rt = Runtime::new(Machine::four_k40(), 42);
        run(&mut rt, SimTime::ZERO);
        let ops = rt.sim_ops();
        assert_eq!(rt.exchange_halo(slots, split, 1, 256), Err(err.clone()), "{ctx}");
        assert_eq!(rt.sim_ops(), ops, "{ctx}: no engine op");
        let later = run(&mut rt, at);
        assert_eq!(later.completed_at, alone.completed_at, "{ctx}");

        let mut homp = Homp::new(Machine::four_k40());
        let mut k = CoverageKernel::new(80_000);
        homp.offload(&axpy, &mut k).at(SimTime::ZERO).run().unwrap();
        let r = OffloadRegion { devices: slots.clone(), ..uold.clone() };
        match homp.halo_exchange(halo, &r, split) {
            Err(HompError::Offload(e)) => assert_eq!(e, *err, "{ctx} through Homp"),
            other => panic!("{ctx} through Homp: {other:?}"),
        }
        let later = homp.offload(&axpy, &mut CoverageKernel::new(80_000)).at(at).run().unwrap();
        assert_eq!(later.completed_at, alone.completed_at, "{ctx} through Homp");
    }
    let span = Homp::new(Machine::four_k40()).halo_exchange(halo, &uold, &fits).unwrap();
    assert!(span.as_secs() > 0.0, "the split that fits is priced");
}
