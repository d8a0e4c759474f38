//! `DataPlan::new` against a verbatim copy of its earlier version.
//!
//! `reference` keeps the `HashMap` alignment graph and the planner as
//! they were before the graph became borrowed nodes searched linearly
//! (`ArrayMap::total_bytes` and `slab_bytes` inlined as they were then).
//! Every region here is planned by both. A plan must agree accessor by
//! accessor, the per-iteration floats bit for bit; an error must be the
//! same value. The regions: the Table V suite at 1–8 devices, Jacobi's
//! update, copy and data regions, directive-compiled Fig. 5 cells and a
//! `nowait`/`depend` chain, loop-to-array alignment and ratio chains,
//! malformed regions, and a few thousand generated ones. No region's
//! byte counts come near `u64::MAX`: there the two planners differ by
//! design (the reference wraps). The reference predates the reduction
//! copy-back, so the planner's fixed D2H bytes are the reference's plus
//! the region's reduction bytes.

use homp_core::map::{ArrayCostKind, PlanError};
use homp_core::{compile, Algorithm, ArrayMap, CompileOptions, DataPlan, OffloadRegion};
use homp_kernels::jacobi::Jacobi;
use homp_kernels::KernelSpec;
use homp_lang::{parse_directive, DistPolicy, Env, MapDir};
use homp_sim::{DeviceId, Machine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations (`alloc`, `alloc_zeroed`
/// and `realloc`) per thread, so concurrently running tests do not see
/// each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator can run while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

mod reference {
    use homp_core::align::AlignError;
    use homp_core::dist::Distribution;
    use homp_core::map::{ArrayCost, ArrayCostKind, HaloPlan, PlanError};
    use homp_core::{ArrayMap, OffloadRegion};
    use homp_lang::DistPolicy;
    use std::collections::HashMap;

    fn total_bytes(a: &ArrayMap) -> u64 {
        a.dims.iter().product::<u64>() * a.elem_bytes
    }

    fn slab_bytes(a: &ArrayMap, dim: usize) -> u64 {
        let others: u64 =
            a.dims.iter().enumerate().filter(|(i, _)| *i != dim).map(|(_, d)| *d).product();
        others * a.elem_bytes
    }

    /// A node in the alignment graph.
    #[derive(Debug, Clone)]
    struct Node {
        policy: DistPolicy,
    }

    /// The alignment graph for one offload region (the parts
    /// `DataPlan::new` used).
    #[derive(Debug, Clone, Default)]
    pub struct AlignGraph {
        nodes: HashMap<String, Node>,
    }

    impl AlignGraph {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn add(
            &mut self,
            name: impl Into<String>,
            policy: DistPolicy,
        ) -> Result<(), AlignError> {
            let name = name.into();
            if self.nodes.contains_key(&name) {
                return Err(AlignError::Duplicate(name));
            }
            self.nodes.insert(name, Node { policy });
            Ok(())
        }

        pub fn resolve_root(&self, name: &str) -> Result<(String, u64, DistPolicy), AlignError> {
            let mut path = vec![name.to_string()];
            let mut current = name.to_string();
            let mut ratio = 1u64;
            loop {
                let node = self.nodes.get(&current).ok_or_else(|| AlignError::UnknownTarget {
                    from: path[path.len().saturating_sub(2).min(path.len() - 1)].clone(),
                    target: current.clone(),
                })?;
                match &node.policy {
                    DistPolicy::Align { target, ratio: r } => {
                        ratio *= r;
                        if path.contains(target) {
                            path.push(target.clone());
                            return Err(AlignError::Cycle(path));
                        }
                        path.push(target.clone());
                        current = target.clone();
                    }
                    concrete => return Ok((current.clone(), ratio, concrete.clone())),
                }
            }
        }
    }

    /// Byte-accounting plan for one offload region on `n_devices` devices.
    #[derive(Debug, Clone)]
    pub struct DataPlan {
        n_devices: usize,
        h2d_fixed: Vec<u64>,
        d2h_fixed: Vec<u64>,
        alloc_fixed: Vec<u64>,
        h2d_per_iter: f64,
        d2h_per_iter: f64,
        alloc_per_iter: f64,
        halos: Vec<HaloPlan>,
        scalar_bytes: u64,
        per_array: Vec<ArrayCost>,
    }

    impl DataPlan {
        pub fn new(region: &OffloadRegion, n_devices: usize) -> Result<DataPlan, PlanError> {
            // ---- alignment graph -------------------------------------------
            let mut graph = AlignGraph::new();
            let loop_policy = match &region.loop_align {
                Some((target, ratio)) => {
                    DistPolicy::Align { target: target.clone(), ratio: *ratio }
                }
                None => DistPolicy::Auto,
            };
            graph.add(region.loop_label.clone(), loop_policy)?;
            for a in &region.arrays {
                let policy = match a.distributed_dim() {
                    Some(d) => {
                        // Reject a second distributed dimension.
                        if a.partition
                            .iter()
                            .enumerate()
                            .any(|(i, p)| i != d && !matches!(p, DistPolicy::Full))
                        {
                            return Err(PlanError::MultipleDistributedDims(a.name.clone()));
                        }
                        a.partition[d].clone()
                    }
                    None => DistPolicy::Full,
                };
                if matches!(policy, DistPolicy::Auto) {
                    return Err(PlanError::AutoOnArray(a.name.clone()));
                }
                graph.add(a.name.clone(), policy)?;
            }

            let (loop_root, loop_ratio, _) = graph.resolve_root(&region.loop_label)?;

            let mut plan = DataPlan {
                n_devices,
                h2d_fixed: vec![region.scalar_bytes; n_devices],
                d2h_fixed: vec![0; n_devices],
                alloc_fixed: vec![region.scalar_bytes; n_devices],
                h2d_per_iter: 0.0,
                d2h_per_iter: 0.0,
                alloc_per_iter: 0.0,
                halos: Vec::new(),
                scalar_bytes: region.scalar_bytes,
                per_array: Vec::new(),
            };

            for a in &region.arrays {
                let dd = a.distributed_dim();
                // Collect halo requirements on the distributed dimension.
                if let Some(d) = dd {
                    if let Some(w) = a.halo[d] {
                        plan.halos.push(HaloPlan {
                            array: a.name.clone(),
                            width: w,
                            slab_bytes: slab_bytes(a, d),
                        });
                    }
                }
                match dd {
                    None => {
                        // Replicated: whole array to every device.
                        let b = total_bytes(a);
                        for s in 0..n_devices {
                            if a.copies_in() {
                                plan.h2d_fixed[s] += b;
                            }
                            if a.copies_out() {
                                plan.d2h_fixed[s] += b;
                            }
                            plan.alloc_fixed[s] += b;
                        }
                        plan.per_array.push(ArrayCost {
                            name: a.name.clone(),
                            kind: ArrayCostKind::Replicated,
                            copies_in: a.copies_in(),
                            copies_out: a.copies_out(),
                            total_bytes: b,
                        });
                    }
                    Some(d) => {
                        let (root, ratio, root_policy) = graph.resolve_root(&a.name)?;
                        if root == loop_root {
                            // Loop-aligned: bytes per loop iteration.
                            // extent * loop_ratio must equal trip * ratio.
                            let extent = a.dims[d];
                            if extent * loop_ratio != region.trip_count * ratio {
                                return Err(PlanError::ExtentMismatch {
                                    array: a.name.clone(),
                                    extent,
                                    expected: region.trip_count * ratio / loop_ratio.max(1),
                                });
                            }
                            let per_iter =
                                slab_bytes(a, d) as f64 * ratio as f64 / loop_ratio as f64;
                            if a.copies_in() {
                                plan.h2d_per_iter += per_iter;
                            }
                            if a.copies_out() {
                                plan.d2h_per_iter += per_iter;
                            }
                            plan.alloc_per_iter += per_iter;
                            plan.per_array.push(ArrayCost {
                                name: a.name.clone(),
                                kind: ArrayCostKind::LoopAligned { bytes_per_iter: per_iter },
                                copies_in: a.copies_in(),
                                copies_out: a.copies_out(),
                                total_bytes: total_bytes(a),
                            });
                        } else {
                            // Independent root: concrete distribution now.
                            let dist = match root_policy {
                                DistPolicy::Block => Distribution::block(a.dims[d], n_devices),
                                DistPolicy::Full => Distribution::full(a.dims[d], n_devices),
                                other => {
                                    // AUTO rejected above; ALIGN cannot be a
                                    // root by construction.
                                    unreachable!("non-concrete root policy {other:?}")
                                }
                            };
                            let slab = slab_bytes(a, d);
                            let mut per_slot = Vec::with_capacity(n_devices);
                            for s in 0..n_devices {
                                let b = dist.range(s).len() * slab;
                                if a.copies_in() {
                                    plan.h2d_fixed[s] += b;
                                }
                                if a.copies_out() {
                                    plan.d2h_fixed[s] += b;
                                }
                                plan.alloc_fixed[s] += b;
                                per_slot.push(b);
                            }
                            plan.per_array.push(ArrayCost {
                                name: a.name.clone(),
                                kind: ArrayCostKind::Independent { per_slot },
                                copies_in: a.copies_in(),
                                copies_out: a.copies_out(),
                                total_bytes: total_bytes(a),
                            });
                        }
                    }
                }
            }
            Ok(plan)
        }

        pub fn n_devices(&self) -> usize {
            self.n_devices
        }

        pub fn h2d_bytes(&self, s: usize, iters: u64) -> u64 {
            self.h2d_fixed[s] + (self.h2d_per_iter * iters as f64).round() as u64
        }

        pub fn d2h_bytes(&self, s: usize, iters: u64) -> u64 {
            self.d2h_fixed[s] + (self.d2h_per_iter * iters as f64).round() as u64
        }

        pub fn alloc_bytes(&self, s: usize, iters: u64) -> u64 {
            self.alloc_fixed[s] + (self.alloc_per_iter * iters as f64).round() as u64
        }

        pub fn h2d_chunk_bytes(&self, iters: u64) -> u64 {
            (self.h2d_per_iter * iters as f64).round() as u64
        }

        pub fn d2h_chunk_bytes(&self, iters: u64) -> u64 {
            (self.d2h_per_iter * iters as f64).round() as u64
        }

        pub fn h2d_fixed_bytes(&self, s: usize) -> u64 {
            self.h2d_fixed[s]
        }

        pub fn d2h_fixed_bytes(&self, s: usize) -> u64 {
            self.d2h_fixed[s]
        }

        pub fn h2d_per_iter(&self) -> f64 {
            self.h2d_per_iter
        }

        pub fn d2h_per_iter(&self) -> f64 {
            self.d2h_per_iter
        }

        pub fn halos(&self) -> &[HaloPlan] {
            &self.halos
        }

        pub fn scalar_bytes(&self) -> u64 {
            self.scalar_bytes
        }

        pub fn per_array(&self) -> &[ArrayCost] {
            &self.per_array
        }
    }
}

/// Plan `region` on `n` slots with both planners and require the same
/// plan or the same error.
fn assert_same(region: &OffloadRegion, n: usize, label: &str) {
    match (DataPlan::new(region, n), reference::DataPlan::new(region, n)) {
        (Ok(p), Ok(r)) => assert_same_plan(&p, &r, region, label),
        (Err(e), Err(f)) => assert_eq!(e, f, "{label}"),
        (p, r) => panic!("{label}: planner gave {p:?}, reference gave {r:?}"),
    }
}

fn assert_same_plan(p: &DataPlan, r: &reference::DataPlan, region: &OffloadRegion, label: &str) {
    let n = r.n_devices();
    assert_eq!(p.n_devices(), n, "{label}");
    assert_eq!(p.h2d_per_iter().to_bits(), r.h2d_per_iter().to_bits(), "{label}");
    assert_eq!(p.d2h_per_iter().to_bits(), r.d2h_per_iter().to_bits(), "{label}");
    assert_eq!(p.scalar_bytes(), r.scalar_bytes(), "{label}");
    assert_eq!(p.halos(), r.halos(), "{label}");
    assert_eq!(p.per_array().len(), r.per_array().len(), "{label}");
    for (a, b) in p.per_array().iter().zip(r.per_array()) {
        let at = format!("{label}: array {}", b.name);
        assert_eq!(a.name, b.name, "{at}");
        assert_eq!((a.copies_in, a.copies_out), (b.copies_in, b.copies_out), "{at}");
        assert_eq!(a.total_bytes, b.total_bytes, "{at}");
        match (&a.kind, &b.kind) {
            (ArrayCostKind::Replicated, ArrayCostKind::Replicated) => {}
            (
                ArrayCostKind::LoopAligned { bytes_per_iter: x },
                ArrayCostKind::LoopAligned { bytes_per_iter: y },
            ) => assert_eq!(x.to_bits(), y.to_bits(), "{at}"),
            (
                ArrayCostKind::Independent { per_slot: x },
                ArrayCostKind::Independent { per_slot: y },
            ) => assert_eq!(x, y, "{at}"),
            (x, y) => panic!("{at}: kind {x:?} vs {y:?}"),
        }
    }
    let trip = region.trip_count;
    let iters = [0, 1, 7, trip / n.max(1) as u64, trip, 1 << 32];
    for &i in &iters {
        assert_eq!(p.h2d_chunk_bytes(i), r.h2d_chunk_bytes(i), "{label} chunk {i}");
        assert_eq!(p.d2h_chunk_bytes(i), r.d2h_chunk_bytes(i), "{label} chunk {i}");
    }
    let red = region.reduction_bytes;
    for s in 0..n {
        assert_eq!(p.h2d_fixed_bytes(s), r.h2d_fixed_bytes(s), "{label} slot {s}");
        assert_eq!(p.d2h_fixed_bytes(s), r.d2h_fixed_bytes(s) + red, "{label} slot {s}");
        for &i in &iters {
            assert_eq!(p.h2d_bytes(s, i), r.h2d_bytes(s, i), "{label} slot {s} iters {i}");
            assert_eq!(p.d2h_bytes(s, i), r.d2h_bytes(s, i) + red, "{label} slot {s} iters {i}");
            assert_eq!(p.alloc_bytes(s, i), r.alloc_bytes(s, i), "{label} slot {s} iters {i}");
        }
    }
}

fn devices(n: usize) -> Vec<DeviceId> {
    (0..n as DeviceId).collect()
}

fn aligned(target: &str, ratio: u64) -> DistPolicy {
    DistPolicy::Align { target: target.into(), ratio }
}

fn array(name: &str, dir: MapDir, dims: &[u64], partition: &[DistPolicy]) -> ArrayMap {
    ArrayMap {
        name: name.into(),
        dir,
        dims: dims.to_vec(),
        elem_bytes: 8,
        partition: partition.to_vec(),
        halo: vec![None; dims.len()],
    }
}

/// A region over `trip` iterations with the given loop alignment and
/// arrays; fields are set after `build`, which rejects some of them.
fn region(trip: u64, loop_align: Option<(&str, u64)>, arrays: Vec<ArrayMap>) -> OffloadRegion {
    let mut r = OffloadRegion::builder("ref").trip_count(1).devices(vec![0]).scalars(16).build();
    r.trip_count = trip;
    r.loop_align = loop_align.map(|(t, k)| (t.to_string(), k));
    r.arrays = arrays;
    r
}

#[test]
fn table_v_suite_at_one_to_eight_devices() {
    for spec in KernelSpec::paper_suite() {
        for size in [spec, spec.test_size()] {
            for n in 1..=8 {
                let r = size.region(devices(n), Algorithm::Block);
                assert_same(&r, n, &format!("{} on {n}", size.label()));
            }
        }
    }
}

/// The copy loop's region as `Jacobi::run_per_offload` builds it.
fn jacobi_copy_region(n: u64, m: u64, slots: Vec<DeviceId>) -> OffloadRegion {
    OffloadRegion::builder("jacobi-copy")
        .loop_label("loop1")
        .trip_count(n)
        .devices(slots)
        .algorithm(Algorithm::Block)
        .map_2d("u", MapDir::To, n, m, 8, aligned("loop1", 1), DistPolicy::Full, None)
        .map_2d("uold", MapDir::Alloc, n, m, 8, aligned("loop1", 1), DistPolicy::Full, Some(1))
        .build()
}

#[test]
fn jacobi_update_copy_and_data_regions() {
    for (rows, cols) in [(64, 48), (512, 512)] {
        let j = Jacobi::new(rows, cols);
        for n in 1..=8 {
            let label = format!("jacobi {rows}x{cols} on {n}");
            let update = j.update_region(devices(n), Algorithm::Model2 { cutoff: None });
            assert_same(&update, n, &format!("{label} update"));
            assert_same(&j.data_region(devices(n)), n, &format!("{label} data"));
            let copy = jacobi_copy_region(rows as u64, cols as u64, devices(n));
            assert_same(&copy, n, &format!("{label} copy"));
        }
    }
}

/// The data directive of one paper kernel, mapping what
/// `KernelSpec::region` maps, with the variables it names.
fn data_directive(spec: KernelSpec) -> (String, Env) {
    use homp_kernels::block_matching::{BLOCK, SEARCH};
    use homp_kernels::stencil::RADIUS;
    let mut env = Env::new();
    let maps = match spec {
        KernelSpec::Axpy(n) => {
            env.insert("n".into(), n as i64);
            "map(to: x[0:n] partition([ALIGN(loop)])) \
             map(tofrom: y[0:n] partition([ALIGN(loop)])) map(to: a, n)"
                .to_string()
        }
        KernelSpec::MatVec(n) => {
            env.insert("n".into(), n as i64);
            "map(to: A[0:n][0:n] partition([ALIGN(loop)], FULL), x[0:n]) \
             map(from: y[0:n] partition([ALIGN(loop)])) map(to: n)"
                .to_string()
        }
        KernelSpec::MatMul(n) => {
            env.insert("n".into(), n as i64);
            "map(to: A[0:n][0:n] partition([ALIGN(loop)], FULL), B[0:n][0:n]) \
             map(from: C[0:n][0:n] partition([ALIGN(loop)], FULL)) map(to: n)"
                .to_string()
        }
        KernelSpec::Stencil2d(n) => {
            env.insert("n".into(), n as i64);
            format!(
                "map(to: u[0:n][0:n] partition([ALIGN(loop)], FULL) halo({RADIUS},)) \
                 map(from: u_next[0:n][0:n] partition([ALIGN(loop)], FULL)) map(to: n)"
            )
        }
        KernelSpec::Sum(n) => {
            env.insert("n".into(), n as i64);
            "map(to: x[0:n] partition([ALIGN(loop)]), s)".to_string()
        }
        KernelSpec::BlockMatching(n) => {
            let rows = spec.trip_count() as i64;
            env.insert("n".into(), n as i64);
            env.insert("r".into(), rows);
            env.insert("w".into(), 2 * rows);
            format!(
                "map(to: frame[0:n][0:n] partition([ALIGN(loop,{BLOCK})], FULL) halo({SEARCH},), \
                 reference[0:n][0:n] partition([ALIGN(loop,{BLOCK})], FULL) halo({SEARCH},)) \
                 map(from: motion[0:r][0:w] partition([ALIGN(loop)], FULL)) map(to: n, r)"
            )
        }
    };
    (format!("#pragma omp parallel target device(*) {maps}"), env)
}

#[test]
fn directive_compiled_cells_and_a_nowait_chain() {
    let machine = Machine::full_node();
    let types: Vec<&str> = machine.devices.iter().map(|d| d.dev_type.homp_name()).collect();
    let kinds = [
        "BLOCK",
        "SCHED_DYNAMIC,2%",
        "SCHED_GUIDED,20%",
        "MODEL_1_AUTO",
        "MODEL_2_AUTO",
        "SCHED_PROFILE_AUTO,10%",
        "MODEL_PROFILE_AUTO,10%",
        "AUTO",
    ];
    for spec in KernelSpec::paper_suite() {
        let (data, env) = data_directive(spec);
        let data = parse_directive(&data).unwrap();
        for kind in kinds {
            let text =
                format!("#pragma omp parallel for distribute dist_schedule(target:[{kind}])");
            let lp = parse_directive(&text).unwrap();
            let opts = CompileOptions::for_kernel(&spec);
            let r = compile(&[&data, &lp], &env, &types, &opts).unwrap();
            assert_same(&r, r.devices.len(), &format!("{} {kind}", spec.label()));
        }
    }

    // A depth-8 chain: stage i reads g{i} and writes g{i+1}.
    let mut env = Env::new();
    env.insert("n".into(), 400_000);
    for i in 0..8 {
        let j = i + 1;
        let nowait = if j < 8 { " nowait" } else { "" };
        let text = format!(
            "#pragma omp parallel for target device(*){nowait} depend(in: g{i}) \
             depend(out: g{j}) map(to: g{i}[0:n] partition([ALIGN(loop)])) \
             map(tofrom: g{j}[0:n] partition([ALIGN(loop)])) \
             distribute dist_schedule(target:[BLOCK])"
        );
        let d = parse_directive(&text).unwrap();
        let opts = CompileOptions::for_loop(format!("chain{i}"), 400_000);
        let r = compile(&[&d], &env, &types, &opts).unwrap();
        assert_same(&r, r.devices.len(), &format!("chain stage {i}"));
    }

    // The loop copies a BLOCK array's distribution: dist_schedule ALIGN.
    let mut env = Env::new();
    env.insert("n".into(), 10_000);
    let text = "#pragma omp parallel for target device(*) \
                map(to: x[0:n] partition([BLOCK])) map(tofrom: y[0:n] partition([ALIGN(x)])) \
                distribute dist_schedule(target:[ALIGN(x)])";
    let d = parse_directive(text).unwrap();
    let r = compile(&[&d], &env, &types, &CompileOptions::for_loop("v1", 10_000)).unwrap();
    assert_same(&r, r.devices.len(), "directive ALIGN(x)");
}

#[test]
fn loop_alignment_and_ratio_chains() {
    use MapDir::*;
    let t = 1_000;
    let cases = [
        // axpy_homp_v1: x, y BLOCK; the loop ALIGN(x); y independent.
        region(
            t,
            Some(("x", 1)),
            vec![
                array("x", To, &[t], &[DistPolicy::Block]),
                array("y", ToFrom, &[t], &[DistPolicy::Block]),
            ],
        ),
        // The loop covers every second element of x.
        region(t, Some(("x", 2)), vec![array("x", To, &[t / 2], &[DistPolicy::Block])]),
        // Ratios multiply along a chain: y → x → loop.
        region(
            t,
            None,
            vec![
                array("x", To, &[2 * t], &[aligned("loop", 2)]),
                array("y", From, &[6 * t], &[aligned("x", 3)]),
                array("z", Alloc, &[6 * t, 3], &[aligned("y", 1), DistPolicy::Full]),
            ],
        ),
        // Relinking through the loop: z → loop → x, y → x.
        region(
            t,
            Some(("x", 1)),
            vec![
                array("x", To, &[t], &[DistPolicy::Block]),
                array("y", ToFrom, &[t], &[aligned("x", 1)]),
                array("z", From, &[t], &[aligned("loop", 1)]),
            ],
        ),
        // Independent chains: y → w (BLOCK) and v → f (FULL).
        region(
            t,
            None,
            vec![
                array("w", To, &[77], &[DistPolicy::Block]),
                array("y", ToFrom, &[33, 5], &[aligned("w", 1), DistPolicy::Full]),
                array("f", To, &[9], &[DistPolicy::Full]),
                array("v", To, &[4, 12], &[DistPolicy::Full, aligned("f", 1)]),
            ],
        ),
        // The second dimension is the distributed one.
        region(t, None, vec![array("a", ToFrom, &[3, t], &[DistPolicy::Full, aligned("loop", 1)])]),
        // Empty loop, empty arrays, zero-byte elements.
        region(0, None, vec![array("x", To, &[0], &[aligned("loop", 1)])]),
        region(
            t,
            None,
            vec![ArrayMap { elem_bytes: 0, ..array("x", To, &[t], &[aligned("loop", 1)]) }],
        ),
        // The loop ALIGN(x, 3) with x's extent off by one.
        region(t, Some(("x", 3)), vec![array("x", To, &[t / 3 + 1], &[DistPolicy::Block])]),
    ];
    for (i, r) in cases.iter().enumerate() {
        for n in 1..=8 {
            assert_same(r, n, &format!("case {i} on {n}"));
        }
    }

    // Halos on aligned and independent arrays.
    let mut r = cases[4].clone();
    r.arrays[1].halo[0] = Some(2);
    r.arrays[3].halo[1] = Some(1);
    for n in 1..=8 {
        assert_same(&r, n, &format!("halos on {n}"));
    }
}

/// Which error a malformed region must give.
type ErrorClass = fn(&PlanError) -> bool;

#[test]
fn malformed_regions_fail_alike() {
    use MapDir::*;
    let t = 100;
    let x = |p: DistPolicy| array("x", To, &[t], &[p]);
    let y = |p: DistPolicy| array("y", To, &[t], &[p]);
    let z = |p: DistPolicy| array("z", To, &[t], &[p]);
    let cases: Vec<(&str, OffloadRegion, ErrorClass)> = vec![
        (
            "duplicate array",
            region(t, None, vec![x(DistPolicy::Block), x(DistPolicy::Full)]),
            |e| matches!(e, PlanError::Align(homp_core::align::AlignError::Duplicate(_))),
        ),
        (
            "array named like the loop",
            region(t, None, vec![array("loop", To, &[t], &[DistPolicy::Full])]),
            |e| matches!(e, PlanError::Align(homp_core::align::AlignError::Duplicate(_))),
        ),
        ("unknown array target", region(t, None, vec![x(aligned("ghost", 1))]), |e| {
            matches!(e, PlanError::Align(homp_core::align::AlignError::UnknownTarget { .. }))
        }),
        ("unknown loop target", region(t, Some(("ghost", 1)), vec![x(DistPolicy::Block)]), |e| {
            matches!(e, PlanError::Align(homp_core::align::AlignError::UnknownTarget { .. }))
        }),
        ("2-cycle", region(t, None, vec![x(aligned("y", 1)), y(aligned("x", 1))]), |e| {
            matches!(e, PlanError::Align(homp_core::align::AlignError::Cycle(_)))
        }),
        (
            "3-cycle",
            region(t, None, vec![x(aligned("y", 1)), y(aligned("z", 2)), z(aligned("x", 1))]),
            |e| matches!(e, PlanError::Align(homp_core::align::AlignError::Cycle(_))),
        ),
        (
            "chain into a cycle",
            region(t, None, vec![z(aligned("x", 1)), x(aligned("y", 1)), y(aligned("x", 1))]),
            |e| matches!(e, PlanError::Align(homp_core::align::AlignError::Cycle(_))),
        ),
        ("cycle through the loop", region(t, Some(("x", 1)), vec![x(aligned("loop", 1))]), |e| {
            matches!(e, PlanError::Align(homp_core::align::AlignError::Cycle(_)))
        }),
        ("self-alignment", region(t, None, vec![x(aligned("x", 1))]), |e| {
            matches!(e, PlanError::Align(homp_core::align::AlignError::Cycle(_)))
        }),
        (
            "loop aligned with itself",
            region(t, Some(("loop", 1)), vec![x(DistPolicy::Full)]),
            |e| matches!(e, PlanError::Align(homp_core::align::AlignError::Cycle(_))),
        ),
        ("AUTO on an array", region(t, None, vec![x(DistPolicy::Auto)]), |e| {
            matches!(e, PlanError::AutoOnArray(_))
        }),
        (
            "two distributed dimensions",
            region(
                t,
                None,
                vec![array("u", From, &[t, t], &[aligned("loop", 1), DistPolicy::Block])],
            ),
            |e| matches!(e, PlanError::MultipleDistributedDims(_)),
        ),
        (
            "extent mismatch",
            region(t, None, vec![array("x", To, &[t / 2], &[aligned("loop", 1)])]),
            |e| matches!(e, PlanError::ExtentMismatch { .. }),
        ),
        (
            "extent mismatch under a ratio",
            region(t, None, vec![x(aligned("loop", 1)), array("y", To, &[t], &[aligned("x", 3)])]),
            |e| matches!(e, PlanError::ExtentMismatch { .. }),
        ),
    ];
    for (label, r, expected) in &cases {
        let err = DataPlan::new(r, 4).expect_err(label);
        assert!(expected(&err), "{label}: {err:?}");
        for n in 1..=8 {
            assert_same(r, n, label);
        }
    }
}

/// A small deterministic generator (64-bit LCG, high bits).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }
}

/// Regions drawn over a few names, so duplicates, dangling targets,
/// cycles, chains, ratios, extent mismatches and second distributed
/// dimensions all occur; every outcome class must show up.
#[test]
fn generated_regions_agree() {
    let mut rng = Lcg(42);
    let names = ["loop", "a", "b", "c", "ghost"];
    let mut outcomes = std::collections::BTreeSet::new();
    for case in 0..4_000 {
        let trip = rng.pick(&[0, 1, 10, 96, 1_000]);
        let loop_align = match rng.below(3) {
            0 => Some((rng.pick(&names[1..]), 1 + rng.below(3))),
            _ => None,
        };
        let mut arrays = Vec::new();
        for _ in 0..rng.below(5) {
            let ndims = 1 + rng.below(2) as usize;
            let mut dims = Vec::new();
            let mut partition = Vec::new();
            let mut halo = Vec::new();
            for _ in 0..ndims {
                let k = rng.pick(&[1, 1, 1, 2, 3, 6]);
                dims.push(match rng.below(6) {
                    0 => rng.below(20),
                    1 => trip / k,
                    _ => trip * k,
                });
                partition.push(match rng.below(6) {
                    0 | 1 => DistPolicy::Full,
                    2 => DistPolicy::Block,
                    3 => DistPolicy::Auto,
                    _ => aligned(rng.pick(&names), rng.pick(&[1, 1, 2, 3])),
                });
                halo.push(if rng.below(4) == 0 { Some(1 + rng.below(3)) } else { None });
            }
            arrays.push(ArrayMap {
                name: rng.pick(&names[..4]).to_string(),
                dir: rng.pick(&[MapDir::To, MapDir::From, MapDir::ToFrom, MapDir::Alloc]),
                dims,
                elem_bytes: rng.pick(&[1, 4, 8]),
                partition,
                halo,
            });
        }
        let r = region(trip, loop_align, arrays);
        let n = 1 + rng.below(8) as usize;
        assert_same(&r, n, &format!("generated case {case}: {r:?}"));
        let outcome = match DataPlan::new(&r, n) {
            Ok(_) => "Ok".to_string(),
            Err(PlanError::Align(e)) => format!("{e:?}"),
            Err(e) => format!("{e:?}"),
        };
        outcomes.insert(outcome.split(['(', ' ']).next().unwrap().to_string());
    }
    let expected = [
        "Ok",
        "Duplicate",
        "UnknownTarget",
        "Cycle",
        "AutoOnArray",
        "MultipleDistributedDims",
        "ExtentMismatch",
    ];
    assert_eq!(outcomes, expected.iter().map(|s| s.to_string()).collect(), "outcome classes");
}

/// What a plan of these regions owns: three per-slot byte vectors, the
/// per-array list with each array's name, and the halo list with each
/// halo's array name; plus the alignment graph's one vector. (An
/// independently distributed array would add its distribution and a
/// per-slot vector; none of these regions has one.)
fn allocation_ceiling(r: &OffloadRegion) -> u64 {
    let halos = r
        .arrays
        .iter()
        .filter(|a| a.distributed_dim().is_some_and(|d| a.halo[d].is_some()))
        .count() as u64;
    1 + 3 + 1 + r.arrays.len() as u64 + u64::from(halos > 0) + halos
}

/// Planning allocates its output and the graph's vector, nothing more:
/// a `HashMap` or a `String` clone back on the plan path fails here.
/// The earlier planner (20–44 allocations on these regions) exceeds
/// every ceiling.
#[test]
fn planning_allocates_only_the_plan() {
    let j = Jacobi::new(64, 48);
    for n in [1, 4, 8] {
        let mut regions: Vec<(String, OffloadRegion)> = KernelSpec::paper_suite()
            .iter()
            .map(|s| (s.label(), s.region(devices(n), Algorithm::Block)))
            .collect();
        regions.push(("jacobi update".into(), j.update_region(devices(n), Algorithm::Block)));
        regions.push(("jacobi data".into(), j.data_region(devices(n))));
        regions.push(("jacobi copy".into(), jacobi_copy_region(64, 48, devices(n))));
        for (label, r) in &regions {
            let ceiling = allocation_ceiling(r);
            let (planner, plan) = allocations(|| DataPlan::new(r, n));
            plan.unwrap();
            let (earlier, plan) = allocations(|| reference::DataPlan::new(r, n));
            plan.unwrap();
            assert!(planner <= ceiling, "{label} on {n}: {planner} allocations > {ceiling}");
            assert!(earlier > ceiling, "{label} on {n}: earlier planner {earlier} <= {ceiling}");
        }
    }
}
