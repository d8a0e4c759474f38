//! Integration: the paper's qualitative evaluation claims, asserted as
//! tests. These pin the *shape* of the reproduction — if a change to
//! the simulator or schedulers flips one of the headline findings,
//! these tests catch it.

use homp::prelude::*;
use homp_sim::MemoryKind;

fn time_of(machine: &Machine, spec: KernelSpec, alg: Algorithm, seed: u64) -> f64 {
    try_time_of(machine, spec, alg, seed).unwrap()
}

fn try_time_of(machine: &Machine, spec: KernelSpec, alg: Algorithm, seed: u64) -> Option<f64> {
    let mut rt = Runtime::new(machine.clone(), seed);
    let region = spec.region((0..machine.len() as u32).collect(), alg);
    let mut k = PhantomKernel::new(spec.intensity());
    match rt.offload(&region, &mut k).run() {
        Ok(r) => Some(r.time_ms()),
        Err(homp::core::OffloadError::OutOfDeviceMemory { .. }) => None,
        Err(e) => panic!("{e}"),
    }
}

fn try_mean_time(machine: &Machine, spec: KernelSpec, alg: Algorithm) -> Option<f64> {
    let ts: Vec<f64> =
        (0..5).filter_map(|s| try_time_of(machine, spec, alg, 1000 + s * 7919)).collect();
    if ts.len() < 5 {
        return None;
    }
    Some(ts.iter().sum::<f64>() / ts.len() as f64)
}

/// Mean over several seeds, as the figures report.
fn mean_time(machine: &Machine, spec: KernelSpec, alg: Algorithm) -> f64 {
    (0..5).map(|s| time_of(machine, spec, alg, 1000 + s * 7919)).sum::<f64>() / 5.0
}

#[test]
fn fig5_dynamic_beats_block_on_data_intensive_kernels() {
    // "For the other three kernels (axpy, mv, sum), … SCHED_DYNAMIC …
    // delivers better performance than using the BLOCK policy since it
    // achieves overlapping of data movement and computation."
    let m = Machine::four_k40();
    let dynamic = Algorithm::Dynamic { chunk_pct: 2.0 };
    for spec in
        [KernelSpec::Axpy(10_000_000), KernelSpec::MatVec(48_000), KernelSpec::Sum(300_000_000)]
    {
        let b = mean_time(&m, spec, Algorithm::Block);
        let d = mean_time(&m, spec, dynamic);
        assert!(d < b, "{}: dynamic {d:.3} !< block {b:.3}", spec.label());
    }
}

#[test]
fn fig5_block_wins_small_compute_kernels() {
    // "Computational-intensive kernels, i.e. … stencil and bm, deliver
    // the best performance under the BLOCK policy." (matmul deviates in
    // our calibration — see EXPERIMENTS.md.)
    let m = Machine::four_k40();
    let dynamic = Algorithm::Dynamic { chunk_pct: 2.0 };
    for spec in [KernelSpec::Stencil2d(256), KernelSpec::BlockMatching(256)] {
        let b = mean_time(&m, spec, Algorithm::Block);
        let d = mean_time(&m, spec, dynamic);
        assert!(b < d, "{}: block {b:.3} !< dynamic {d:.3}", spec.label());
    }
}

#[test]
fn fig6_block_imbalance_below_5pct_on_identical_gpus() {
    // "the percentage of the incurred load imbalance … is below 5% in
    // average" — for the balanced algorithms on identical devices.
    let m = Machine::four_k40();
    let mut imbs = Vec::new();
    for seed in [1u64, 2, 3, 4, 5] {
        let mut rt = Runtime::new(m.clone(), seed);
        let spec = KernelSpec::MatMul(6_144);
        let region = spec.region(vec![0, 1, 2, 3], Algorithm::Block);
        let mut k = PhantomKernel::new(spec.intensity());
        imbs.push(rt.offload(&region, &mut k).run().unwrap().imbalance_pct);
    }
    let mean = imbs.iter().sum::<f64>() / imbs.len() as f64;
    assert!(mean < 5.0, "mean imbalance {mean:.2}% (paper: <5%)");
}

#[test]
fn fig7_strong_scaling_monotone_and_meaningful() {
    // Adding GPUs never hurts, and 4 GPUs give ≥2x on every kernel.
    for spec in KernelSpec::paper_suite() {
        let mut prev = f64::INFINITY;
        let mut t1 = 0.0;
        for k in 1..=4usize {
            let m = Machine::k40s(k);
            // Best of the two headline policies at each point, like the
            // fig7 binary does over the whole suite. A static plan may
            // legitimately exceed device memory at small k (matvec-48k
            // on one K40); dynamic streams and always fits.
            let t = try_mean_time(&m, spec, Algorithm::Block)
                .unwrap_or(f64::INFINITY)
                .min(mean_time(&m, spec, Algorithm::Dynamic { chunk_pct: 2.0 }));
            if k == 1 {
                t1 = t;
            }
            assert!(
                t < prev * 1.05,
                "{}: {k} GPUs ({t:.3} ms) slower than {} ({prev:.3} ms)",
                spec.label(),
                k - 1
            );
            prev = t;
        }
        assert!(t1 / prev >= 1.8, "{}: 4-GPU speedup only {:.2}", spec.label(), t1 / prev);
    }
}

#[test]
fn fig8_model1_competitive_on_compute_intensive_heterogeneous() {
    // "The results demonstrate the effectiveness of such an approach
    // [MODEL_1] in computation-intensive kernels (mm, bm …)".
    let m = Machine::two_cpus_two_mics();
    for spec in [KernelSpec::MatMul(6_144), KernelSpec::BlockMatching(256)] {
        let m1 = mean_time(&m, spec, Algorithm::Model1 { cutoff: None });
        let block = mean_time(&m, spec, Algorithm::Block);
        assert!(
            m1 < block * 1.6,
            "{}: MODEL_1 {m1:.3} should be competitive (BLOCK {block:.3})",
            spec.label()
        );
    }
}

#[test]
fn model1_poor_on_data_intensive_heterogeneous() {
    // MODEL_1 ignores data movement, so on a machine with PCIe-attached
    // devices it overloads them for data-bound kernels — the reason
    // MODEL_2 exists.
    let m = Machine::full_node();
    let spec = KernelSpec::Axpy(10_000_000);
    let m1 = mean_time(&m, spec, Algorithm::Model1 { cutoff: None });
    let m2 = mean_time(&m, spec, Algorithm::Model2 { cutoff: None });
    assert!(m2 < m1, "MODEL_2 {m2:.3} must beat MODEL_1 {m1:.3} on axpy");
}

#[test]
fn unified_memory_slowdown_near_paper_range() {
    // "maximum of 10 and 18 times slowdown in our BLAS examples".
    let explicit = mean_time(&Machine::four_k40(), KernelSpec::Axpy(10_000_000), Algorithm::Block);
    let mut m = Machine::four_k40();
    for d in &mut m.devices {
        d.memory = MemoryKind::Unified;
    }
    let unified = mean_time(&m, KernelSpec::Axpy(10_000_000), Algorithm::Block);
    let slowdown = unified / explicit;
    assert!(
        (5.0..25.0).contains(&slowdown),
        "unified slowdown {slowdown:.1}x out of the paper's ballpark"
    );
}

#[test]
fn cutoff_keeps_gpus_for_matmul_on_full_node() {
    // Table V: compute-heavy kernels keep the GPUs after CUTOFF.
    let m = Machine::full_node();
    let mut rt = Runtime::new(m.clone(), 3);
    let spec = KernelSpec::MatMul(6_144);
    let region = spec.region((0..7).collect(), Algorithm::Model1 { cutoff: Some(0.15) });
    let mut k = PhantomKernel::new(spec.intensity());
    let report = rt.offload(&region, &mut k).run().unwrap();
    let gpus: Vec<u32> = m.by_type(homp_sim::DeviceType::NvGpu);
    for g in gpus {
        assert!(report.kept_devices.contains(&g), "GPU {g} must survive CUTOFF for matmul");
    }
    let mics = m.by_type(homp_sim::DeviceType::IntelMic);
    for mic in mics {
        assert!(
            !report.kept_devices.contains(&mic),
            "MIC {mic} should fall below the 15% cutoff for matmul"
        );
    }
}

#[test]
fn heuristics_never_catastrophic_on_large_kernels() {
    // §VI-D: the selected algorithm should be within 2x of the oracle
    // best for the three large kernels on every machine.
    for machine in [Machine::four_k40(), Machine::two_cpus_two_mics(), Machine::full_node()] {
        for spec in
            [KernelSpec::Axpy(10_000_000), KernelSpec::MatMul(6_144), KernelSpec::Sum(300_000_000)]
        {
            let rt = Runtime::new(machine.clone(), 1);
            let chosen = rt.resolve_auto(
                Algorithm::Auto { cutoff: None },
                &spec.intensity(),
                &(0..machine.len() as u32).collect::<Vec<_>>(),
            );
            let t_chosen = mean_time(&machine, spec, chosen);
            let t_best = Algorithm::paper_suite()
                .into_iter()
                .map(|a| mean_time(&machine, spec, a))
                .fold(f64::INFINITY, f64::min);
            assert!(
                t_chosen <= t_best * 2.0,
                "{} on {}: heuristic {chosen} = {t_chosen:.3} ms vs best {t_best:.3} ms",
                spec.label(),
                machine.name
            );
        }
    }
}

#[test]
fn dynamic_chunking_fixes_irregular_loops() {
    // §IV-A.2: "Static chunking may not achieve good load balance when
    // the work performed by each iteration varies. … faster devices will
    // likely perform more works" under dynamic chunking. Triangular
    // iteration cost on identical GPUs: BLOCK's last device gets ~1.75x
    // the work; dynamic flattens it.
    fn triangular(i: u64) -> f64 {
        2.0 * i as f64 / 1_000_000.0
    }
    let intensity = KernelIntensity {
        flops_per_iter: 2_000.0,
        mem_elems_per_iter: 2.0,
        data_elems_per_iter: 2.0,
        elem_bytes: 8.0,
    };
    let run = |alg: Algorithm| {
        let mut rt = Runtime::new(Machine::four_k40(), 9);
        let region = homp::core::OffloadRegion::builder("tri")
            .trip_count(1_000_000)
            .devices(vec![0, 1, 2, 3])
            .algorithm(alg)
            .map_1d(
                "x",
                homp::lang::MapDir::To,
                1_000_000,
                8,
                homp::lang::DistPolicy::Align { target: "loop".into(), ratio: 1 },
            )
            .cost_profile(triangular)
            .build();
        let mut k = FnKernel::new(intensity, |_r: Range| {});
        rt.offload(&region, &mut k).run().unwrap()
    };
    let block = run(Algorithm::Block);
    let dynamic = run(Algorithm::Dynamic { chunk_pct: 2.0 });
    assert!(block.imbalance_pct > 20.0, "BLOCK imbalance {:.1}%", block.imbalance_pct);
    assert!(dynamic.imbalance_pct < 10.0, "dynamic imbalance {:.1}%", dynamic.imbalance_pct);
    assert!(dynamic.makespan < block.makespan);
    // Under dynamic chunking the device holding the cheap head processes
    // more iterations than the one stuck with the expensive tail.
    let max = dynamic.counts.iter().max().unwrap();
    let min = dynamic.counts.iter().min().unwrap();
    assert!(max > min, "faster-progressing devices take more iterations");
}
