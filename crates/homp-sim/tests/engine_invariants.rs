//! Property tests of the simulation engine's resource invariants: no
//! resource ever runs two operations at once, time never flows
//! backwards, and replays are bit-identical.

use homp_model::KernelIntensity;
use homp_sim::{ChunkWork, Dir, Engine, Machine, NoiseModel, OpKind, SimTime, Trace, TraceEvent};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Transfer { dev: u32, bytes: u64, dir: Dir, after_ms: f64 },
    Compute { dev: u32, iters: u64, after_ms: f64 },
    Launch { dev: u32, after_ms: f64 },
}

fn arb_op(n_dev: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n_dev, 1u64..100_000_000, prop_oneof![Just(Dir::H2D), Just(Dir::D2H)], 0.0f64..10.0)
            .prop_map(|(dev, bytes, dir, after_ms)| Op::Transfer { dev, bytes, dir, after_ms }),
        (0..n_dev, 1u64..50_000_000, 0.0f64..10.0).prop_map(|(dev, iters, after_ms)| Op::Compute {
            dev,
            iters,
            after_ms
        }),
        (0..n_dev, 0.0f64..10.0).prop_map(|(dev, after_ms)| Op::Launch { dev, after_ms }),
    ]
}

fn intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 10.0,
        mem_elems_per_iter: 2.0,
        data_elems_per_iter: 2.0,
        elem_bytes: 8.0,
    }
}

fn apply(engine: &mut Engine, ops: &[Op]) -> Vec<SimTime> {
    let k = intensity();
    ops.iter()
        .map(|op| match op {
            Op::Transfer { dev, bytes, dir, after_ms } => {
                engine.transfer(*dev, *bytes, *dir, SimTime::from_secs(after_ms * 1e-3), "t")
            }
            Op::Compute { dev, iters, after_ms } => engine.compute(
                *dev,
                &ChunkWork::new(*iters, &k),
                SimTime::from_secs(after_ms * 1e-3),
                "c",
            ),
            Op::Launch { dev, after_ms } => {
                engine.try_launch(*dev, SimTime::from_secs(after_ms * 1e-3), "l").unwrap()
            }
        })
        .collect()
}

/// Which exclusive resource an event occupies.
fn resource(e: &TraceEvent) -> Option<(u32, u8)> {
    match e.kind {
        // Failed launches/kernels and failover bookkeeping hold the
        // compute engine like their successful counterparts.
        OpKind::Kernel | OpKind::Init | OpKind::Failover => Some((e.device, 0)),
        OpKind::H2D => Some((e.device, 1)),
        OpKind::D2H => Some((e.device, 2)),
        // Faults are charged to whichever engine ran the failed op; the
        // overlap check below cannot attribute them, so skip (they are
        // exercised by the dedicated fault tests). Backoff holds no
        // device resource at all.
        OpKind::Sync | OpKind::Fault | OpKind::Backoff => None,
    }
}

/// Reference recompute of the no-fault scheduling rules with the *old*
/// `HashMap<(group, Dir), SimTime>` bus calendar, for checking the
/// engine's flat dense-array calendar against. Pricing (pure spans,
/// noise draws) is shared with the engine; only the calendar
/// bookkeeping is re-derived.
fn reference_replay(engine: &Engine, noise: &NoiseModel, ops: &[Op]) -> Trace {
    let k = intensity();
    let n = engine.n_devices();
    let mut compute_free = vec![SimTime::ZERO; n];
    let mut h2d_free = vec![SimTime::ZERO; n];
    let mut d2h_free = vec![SimTime::ZERO; n];
    let mut op_seq = vec![0u64; n];
    let mut bus: std::collections::HashMap<(u32, Dir), SimTime> = std::collections::HashMap::new();
    let mut tr = Trace::new();
    for op in ops {
        match *op {
            Op::Transfer { dev, bytes, dir, after_ms } => {
                let ready = SimTime::from_secs(after_ms * 1e-3);
                let span = engine.pure_transfer_span(dev, bytes);
                if span == homp_sim::SimSpan::ZERO {
                    continue;
                }
                op_seq[dev as usize] += 1;
                let span = span.scale(noise.factor(dev, op_seq[dev as usize]));
                let group =
                    engine.machine().devices[dev as usize].link.expect("linked device").bus_group;
                let bus_free = *bus.get(&(group, dir)).unwrap_or(&SimTime::ZERO);
                let engine_free = match dir {
                    Dir::H2D => h2d_free[dev as usize],
                    Dir::D2H => d2h_free[dev as usize],
                };
                let start = ready.max(engine_free).max(bus_free);
                let end = start + span;
                match dir {
                    Dir::H2D => h2d_free[dev as usize] = end,
                    Dir::D2H => d2h_free[dev as usize] = end,
                }
                bus.insert((group, dir), end);
                let kind = match dir {
                    Dir::H2D => OpKind::H2D,
                    Dir::D2H => OpKind::D2H,
                };
                tr.record(dev, kind, start, end, bytes, "t");
            }
            Op::Compute { dev, iters, after_ms } => {
                let ready = SimTime::from_secs(after_ms * 1e-3);
                if iters == 0 {
                    continue;
                }
                op_seq[dev as usize] += 1;
                let span = engine
                    .pure_compute_span(dev, &ChunkWork::new(iters, &k))
                    .scale(noise.factor(dev, op_seq[dev as usize]));
                let start = ready.max(compute_free[dev as usize]);
                let end = start + span;
                compute_free[dev as usize] = end;
                tr.record(dev, OpKind::Kernel, start, end, iters, "c");
            }
            Op::Launch { dev, after_ms } => {
                let ready = SimTime::from_secs(after_ms * 1e-3);
                let span = homp_sim::SimSpan::from_secs(
                    engine.machine().devices[dev as usize].launch_overhead,
                );
                let start = ready.max(compute_free[dev as usize]);
                let end = start + span;
                compute_free[dev as usize] = end;
                tr.record(dev, OpKind::Init, start, end, 0, "l");
            }
        }
    }
    tr
}

/// A K40 machine with arbitrary (possibly sparse, repeated) bus group
/// ids — the shapes a machine description file may produce.
fn arb_grouped_machine() -> impl Strategy<Value = Machine> {
    proptest::collection::vec(
        prop_oneof![Just(0u32), Just(1), Just(3), Just(7), Just(100), Just(9999)],
        1..9,
    )
    .prop_map(|groups| {
        let devices = groups
            .iter()
            .enumerate()
            .map(|(i, &g)| homp_sim::device::nvidia_k40(i as u32, g))
            .collect();
        Machine::new("grouped", devices)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_bus_calendar_matches_hashmap_reference(
        machine in arb_grouped_machine(),
        mut ops in proptest::collection::vec(arb_op(64), 1..60),
        seed in 0u64..1000,
    ) {
        // Ops are drawn for up to 64 devices; fold them onto the
        // machine that was actually generated.
        let n = machine.devices.len() as u32;
        for op in &mut ops {
            match op {
                Op::Transfer { dev, .. } | Op::Compute { dev, .. } | Op::Launch { dev, .. } => {
                    *dev %= n;
                }
            }
        }
        let noise = NoiseModel::new(seed, 0.05);
        let mut e = Engine::new(machine, noise);
        apply(&mut e, &ops);
        let expect = reference_replay(&e, &noise, &ops);
        // Byte-identical traces: same starts, ends, order, amounts.
        prop_assert_eq!(e.trace().to_csv(), expect.to_csv());
    }

    #[test]
    fn no_resource_overlap_and_monotone_time(
        ops in proptest::collection::vec(arb_op(4), 1..60),
        seed in 0u64..1000,
    ) {
        let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(seed, 0.05));
        let ends = apply(&mut e, &ops);

        // Completions are valid instants at or after the requested start.
        for end in &ends {
            prop_assert!(end.as_secs() >= 0.0);
            prop_assert!(end.as_secs().is_finite());
        }

        // Per exclusive resource, events never overlap.
        let mut by_resource: std::collections::HashMap<(u32, u8), Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for ev in e.trace().events() {
            prop_assert!(ev.end >= ev.start, "event ends before start");
            if let Some(r) = resource(ev) {
                by_resource.entry(r).or_default().push((ev.start.as_secs(), ev.end.as_secs()));
            }
        }
        for ((dev, res), mut spans) in by_resource {
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1 - 1e-12,
                    "dev {dev} resource {res}: {:?} overlaps {:?}",
                    w[0],
                    w[1]
                );
            }
        }

        // Makespan is the max event end.
        let max_end = e
            .trace()
            .events()
            .iter()
            .map(|ev| ev.end.as_secs())
            .fold(0.0f64, f64::max);
        prop_assert!((e.trace().makespan().as_secs() - max_end).abs() < 1e-15);
    }

    #[test]
    fn reset_replays_identically(
        ops in proptest::collection::vec(arb_op(4), 1..40),
        seed in 0u64..1000,
    ) {
        let mut e = Engine::new(Machine::four_k40(), NoiseModel::new(seed, 0.06));
        let a = apply(&mut e, &ops);
        let trace_a: Vec<_> = e.trace().events().to_vec();
        e.reset();
        let b = apply(&mut e, &ops);
        let trace_b: Vec<_> = e.trace().events().to_vec();
        prop_assert_eq!(a, b);
        prop_assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn noise_bounds_respected(
        ops in proptest::collection::vec(arb_op(2), 1..30),
        seed in 0u64..100,
    ) {
        // With ±8% noise every op duration is within ±8% of its pure span.
        let mut noisy = Engine::new(Machine::four_k40(), NoiseModel::new(seed, 0.08));
        let mut pure = Engine::noiseless(Machine::four_k40());
        apply(&mut noisy, &ops);
        apply(&mut pure, &ops);
        for (n, p) in noisy.trace().events().iter().zip(pure.trace().events()) {
            let dn = (n.end - n.start).as_secs();
            let dp = (p.end - p.start).as_secs();
            prop_assert!(dn >= dp * 0.92 - 1e-15 && dn <= dp * 1.08 + 1e-15,
                "noisy {dn} vs pure {dp}");
        }
    }
}
