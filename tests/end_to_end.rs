//! Integration: the full pipeline — directive text → parse → lower →
//! distribute → simulate → verify real numerical results — across
//! machines, kernels, and all seven algorithms.

use homp::kernels::{axpy, matmul, matvec, stencil, sum};
use homp::prelude::*;

fn machines() -> Vec<Machine> {
    vec![Machine::four_k40(), Machine::two_cpus_two_mics(), Machine::full_node()]
}

#[test]
fn axpy_from_directives_on_every_machine() {
    for machine in machines() {
        let n = 20_000usize;
        let mut homp = Homp::new(machine.clone());
        let mut env = Env::new();
        env.insert("n".into(), n as i64);
        let region = homp
            .compile_source(
                &[
                    "#pragma omp parallel target device(*) \
                     map(tofrom: y[0:n] partition([ALIGN(loop)])) \
                     map(to: x[0:n] partition([ALIGN(loop)]), a, n)",
                    "#pragma omp parallel for distribute dist_schedule(target:[AUTO])",
                ],
                &env,
                CompileOptions::for_loop("axpy", n as u64),
            )
            .unwrap();
        let mut k = axpy::Axpy::new(n, 3.5);
        let expected = k.expected();
        let report = homp.offload(&region, &mut k).run().unwrap();
        assert_eq!(k.y, expected, "machine {}", machine.name);
        assert_eq!(report.counts.iter().sum::<u64>(), n as u64);
    }
}

#[test]
fn every_kernel_every_algorithm_is_numerically_correct() {
    let machine = Machine::full_node();
    for alg in Algorithm::paper_suite() {
        let devices: Vec<u32> = (0..7).collect();

        let mut rt = Runtime::new(machine.clone(), 31);
        let mut ax = axpy::Axpy::new(5_000, -0.5);
        let want = ax.expected();
        rt.offload(&axpy::region(5_000, devices.clone(), alg), &mut ax).run().unwrap();
        assert_eq!(ax.y, want, "axpy under {alg}");

        let mut rt = Runtime::new(machine.clone(), 32);
        let mut mv = matvec::MatVec::new(96);
        let want = mv.reference();
        rt.offload(&matvec::region(96, devices.clone(), alg), &mut mv).run().unwrap();
        assert_eq!(mv.y, want, "matvec under {alg}");

        let mut rt = Runtime::new(machine.clone(), 33);
        let mut mm = matmul::MatMul::new(64);
        let want = mm.reference();
        rt.offload(&matmul::region(64, devices.clone(), alg), &mut mm).run().unwrap();
        assert_eq!(mm.c, want, "matmul under {alg}");

        let mut rt = Runtime::new(machine.clone(), 34);
        let mut st = stencil::Stencil2d::new(64);
        let want = st.reference();
        rt.offload(&stencil::region(64, devices.clone(), alg), &mut st).run().unwrap();
        assert_eq!(st.u_next, want, "stencil under {alg}");

        let mut rt = Runtime::new(machine.clone(), 35);
        let mut s = sum::Sum::new(30_000);
        let want = s.reference();
        rt.offload(&sum::region(30_000, devices.clone(), alg), &mut s).run().unwrap();
        let rel = (s.value() - want).abs() / want.abs().max(1.0);
        assert!(rel < 1e-9, "sum under {alg}: {} vs {}", s.value(), want);
    }
}

#[test]
fn serialized_and_parallel_offload_same_results() {
    let n = 8_192usize;
    let run = |parallel: bool| {
        let mut homp = Homp::with_runtime(Runtime::new(Machine::four_k40(), 77));
        let mut env = Env::new();
        env.insert("n".into(), n as i64);
        let dev = if parallel { "parallel target device(*)" } else { "target device(*)" };
        let region = homp
            .compile_source(
                &[
                    &format!(
                        "#pragma omp {dev} \
                         map(tofrom: y[0:n] partition([ALIGN(loop)])) \
                         map(to: x[0:n] partition([ALIGN(loop)]))"
                    ),
                    "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
                ],
                &env,
                CompileOptions::for_loop("axpy", n as u64),
            )
            .unwrap();
        assert_eq!(region.parallel_offload, parallel);
        let mut k = axpy::Axpy::new(n, 2.0);
        let report = homp.offload(&region, &mut k).run().unwrap();
        (k.y, report.makespan)
    };
    let (y_par, t_par) = run(true);
    let (y_ser, t_ser) = run(false);
    assert_eq!(y_par, y_ser, "offload mode must not change results");
    assert!(t_ser >= t_par, "serialized offload cannot be faster");
}

#[test]
fn cutoff_region_from_directive_drops_devices() {
    let mut homp = Homp::new(Machine::full_node());
    let mut env = Env::new();
    env.insert("n".into(), 100_000);
    let region = homp
        .compile_source(
            &[
                "#pragma omp parallel target device(*) \
                 map(to: x[0:n] partition([ALIGN(loop)]))",
                "#pragma omp parallel for distribute \
                 dist_schedule(target:[MODEL_2_AUTO], CUTOFF(15%))",
            ],
            &env,
            CompileOptions::for_loop("reduce", 100_000),
        )
        .unwrap();
    let mut k = sum::Sum::new(100_000);
    let report = homp.offload(&region, &mut k).run().unwrap();
    assert!(
        report.kept_devices.len() < report.devices.len(),
        "15% cutoff on the full node must drop someone for a data-bound kernel"
    );
    assert_eq!(report.counts.iter().sum::<u64>(), 100_000);
}

#[test]
fn machine_description_file_roundtrip_through_runtime() {
    // Write the full node to a description, parse it back, run on it.
    let text = Machine::full_node().to_description();
    let machine = Machine::parse_description(&text).unwrap();
    let mut rt = Runtime::new(machine, 99);
    let mut k = axpy::Axpy::new(1_000, 1.0);
    let want = k.expected();
    rt.offload(&axpy::region(1_000, (0..7).collect(), Algorithm::Block), &mut k).run().unwrap();
    assert_eq!(k.y, want);
}

#[test]
fn oversized_replicated_array_is_rejected() {
    // A FULL-mapped 16 GB array cannot fit a 12 GB K40.
    let n: u64 = 2 << 30; // 2Gi elements × 8 B = 16 GiB
    let region = OffloadRegion::builder("oom")
        .trip_count(1000)
        .devices(vec![0, 1, 2, 3])
        .algorithm(Algorithm::Block)
        .map_1d("big", homp::lang::MapDir::To, n, 8, homp::lang::DistPolicy::Full)
        .build();
    let mut rt = Runtime::new(Machine::four_k40(), 1);
    let mut k = FnKernel::new(homp::kernels::axpy::intensity(), |_r: Range| {});
    match rt.offload(&region, &mut k).run() {
        Err(homp::core::OffloadError::OutOfDeviceMemory { device, required, capacity }) => {
            assert_eq!(device, 0);
            assert!(required >= n * 8);
            assert_eq!(capacity, 12 << 30);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

#[test]
fn matvec_48k_fits_when_distributed() {
    // 18.4 GB of matrix does not fit one K40 but fits four under BLOCK —
    // the distribution machinery is what makes the paper's size runnable.
    let spec = KernelSpec::MatVec(48_000);
    let mut rt = Runtime::new(Machine::four_k40(), 1);
    let region = spec.region(vec![0, 1, 2, 3], Algorithm::Block);
    let mut k = PhantomKernel::new(spec.intensity());
    assert!(rt.offload(&region, &mut k).run().is_ok());

    // …but a single K40 rejects it.
    let mut rt1 = Runtime::new(Machine::k40s(1), 1);
    let region1 = spec.region(vec![0], Algorithm::Block);
    let mut k1 = PhantomKernel::new(spec.intensity());
    assert!(matches!(
        rt1.offload(&region1, &mut k1).run(),
        Err(homp::core::OffloadError::OutOfDeviceMemory { .. })
    ));
}
