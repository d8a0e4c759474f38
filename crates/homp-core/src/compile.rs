//! Lowering parsed HOMP directives into [`OffloadRegion`]s.
//!
//! The paper's compiler (Section V-A) outlines each annotated region and
//! "transforms the usage of HOMP syntax to runtime calls". This module
//! is that transformation: it takes the parsed directives covering a
//! loop (a `parallel target [data] device(…) map(…)` part and a
//! `parallel for distribute dist_schedule(…)` part — or one combined
//! directive), evaluates every array-section expression against the
//! caller's variable bindings, resolves the device specifier against the
//! machine, and produces the runtime's region descriptor.

use crate::offload::{ArrayMap, OffloadRegion};
use crate::sched::Algorithm;
use homp_lang::{
    resolve_devices_with_env, Clause, Directive, DistPolicy, Env, EvalError, MapItem, ResolveError,
    ScheduleKind,
};
use homp_model::KernelIntensity;

/// A typed description of the kernel a directive set covers: what the
/// stringly `CompileOptions::for_loop("axpy", 1_000)` used to smuggle as a
/// bare name and number, plus the per-iteration intensity the models
/// need. `homp-kernels`' `KernelSpec` implements this; tests can use
/// [`KernelInfo`] for ad-hoc descriptors.
pub trait KernelDescriptor {
    /// Kernel label, used for trace labels and history keys.
    fn label(&self) -> String;
    /// Outer-loop trip count.
    fn trip_count(&self) -> u64;
    /// Per-outer-iteration intensity (inner loops folded in).
    fn intensity(&self) -> KernelIntensity;
}

/// A plain-struct [`KernelDescriptor`] for kernels that exist only as a
/// closure (tests, examples, one-off loops).
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// Kernel label.
    pub label: String,
    /// Outer-loop trip count.
    pub trip_count: u64,
    /// Per-iteration intensity.
    pub intensity: KernelIntensity,
}

impl KernelInfo {
    /// Build from parts.
    pub fn new(label: impl Into<String>, trip_count: u64, intensity: KernelIntensity) -> Self {
        Self { label: label.into(), trip_count, intensity }
    }
}

impl KernelDescriptor for KernelInfo {
    fn label(&self) -> String {
        self.label.clone()
    }
    fn trip_count(&self) -> u64 {
        self.trip_count
    }
    fn intensity(&self) -> KernelIntensity {
        self.intensity
    }
}

/// Element size of every mapped array and scalar: the paper's `REAL`.
const ELEM_BYTES: u64 = 8;

/// Options the source code supplies around the directives.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Kernel name for traces.
    pub kernel_name: String,
    /// Label of the distributed loop (ALIGN target), default `"loop"`.
    pub loop_label: String,
    /// Outer-loop trip count.
    pub trip_count: u64,
    /// Per-iteration intensity when the options came from a
    /// [`KernelDescriptor`]; `None` for anonymous loops.
    intensity: Option<KernelIntensity>,
}

impl CompileOptions {
    /// Options derived from a typed kernel descriptor — name, trip count
    /// and intensity all come from one place, so they cannot disagree.
    pub fn for_kernel(kernel: &dyn KernelDescriptor) -> Self {
        Self {
            kernel_name: kernel.label(),
            loop_label: "loop".into(),
            trip_count: kernel.trip_count(),
            intensity: Some(kernel.intensity()),
        }
    }

    /// Options for an anonymous loop with no kernel descriptor (no
    /// intensity attached).
    pub fn for_loop(kernel_name: impl Into<String>, trip_count: u64) -> Self {
        Self {
            kernel_name: kernel_name.into(),
            loop_label: "loop".into(),
            trip_count,
            intensity: None,
        }
    }

    /// Override the loop label.
    pub fn with_loop_label(mut self, label: impl Into<String>) -> Self {
        self.loop_label = label.into();
        self
    }

    /// The kernel intensity carried by [`CompileOptions::for_kernel`],
    /// if any.
    pub fn intensity(&self) -> Option<&KernelIntensity> {
        self.intensity.as_ref()
    }
}

/// Error lowering directives.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Expression evaluation failed (unbound variable, overflow, …).
    Eval(EvalError),
    /// Device-specifier resolution failed.
    Resolve(ResolveError),
    /// No `device(...)` clause found in any directive.
    NoDeviceClause,
    /// An array dimension evaluated to a negative length.
    NegativeDim {
        /// Array name.
        array: String,
        /// The evaluated length.
        value: i64,
    },
    /// The directive handed to a `target data` entry point is not a
    /// `target data` construct.
    NotTargetData,
    /// The directive handed to [`compile_update`] is not a
    /// `target update` construct.
    NotTargetUpdate,
    /// A `CUTOFF(p%)` ratio outside `[0, 1)`, i.e. `p` of 100 or more.
    InvalidCutoff(f64),
    /// A schedule percentage outside its range: `SCHED_DYNAMIC`,
    /// `SCHED_GUIDED`, `SCHED_PROFILE_AUTO` and `MODEL_PROFILE_AUTO`
    /// take `(0, 100]`, `WORK_ASSIST` takes `[0, 100]`.
    InvalidPercent {
        /// `chunk_pct`, `sample_pct` or `min_assist_pct`.
        param: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl From<EvalError> for CompileError {
    fn from(e: EvalError) -> Self {
        CompileError::Eval(e)
    }
}

impl From<ResolveError> for CompileError {
    fn from(e: ResolveError) -> Self {
        CompileError::Resolve(e)
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Eval(e) => write!(f, "{e}"),
            CompileError::Resolve(e) => write!(f, "{e}"),
            CompileError::NoDeviceClause => write!(f, "no device(...) clause in directives"),
            CompileError::NegativeDim { array, value } => {
                write!(f, "array `{array}` dimension evaluates to {value}")
            }
            CompileError::NotTargetData => {
                write!(f, "directive is not a `target data` construct")
            }
            CompileError::NotTargetUpdate => {
                write!(f, "directive is not a `target update` construct")
            }
            CompileError::InvalidCutoff(r) => write!(f, "CUTOFF ratio {r} is outside [0, 1)"),
            CompileError::InvalidPercent { param, value } => {
                let range = if *param == "min_assist_pct" { "[0, 100]" } else { "(0, 100]" };
                write!(f, "{param} = {value}% is outside {range}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Eval(e) => Some(e),
            CompileError::Resolve(e) => Some(e),
            _ => None,
        }
    }
}

/// Lower one or more directives that jointly describe an offload region.
///
/// `device_types[i]` names the type of machine device `i`
/// (`HOMP_DEVICE_*`), as produced by
/// [`homp_sim::DeviceType::homp_name`].
pub fn compile(
    directives: &[&Directive],
    env: &Env,
    device_types: &[&str],
    opts: &CompileOptions,
) -> Result<OffloadRegion, CompileError> {
    // ---- devices -------------------------------------------------------
    let spec = directives.iter().find_map(|d| d.device()).ok_or(CompileError::NoDeviceClause)?;
    let devices = resolve_devices_with_env(spec, device_types, env)?;

    // ---- schedule ------------------------------------------------------
    let mut algorithm = Algorithm::Auto { cutoff: None };
    let mut loop_align = None;
    let mut team_sched = homp_sim::TeamSched::Aggregate;
    for d in directives {
        // Teams-level schedule: within-device distribution.
        for c in &d.clauses {
            if let Clause::DistSchedule(s) = c {
                if s.level == homp_lang::ScheduleLevel::Teams {
                    team_sched = match s.kind {
                        ScheduleKind::Block => homp_sim::TeamSched::Block,
                        ScheduleKind::Dynamic { .. } | ScheduleKind::Guided { .. } => {
                            homp_sim::TeamSched::Dynamic
                        }
                        _ => homp_sim::TeamSched::Aggregate,
                    };
                }
            }
        }
        if let Some(s) = d.dist_schedule() {
            match &s.kind {
                ScheduleKind::Align { target, ratio } => {
                    loop_align = Some((target.clone(), *ratio));
                    algorithm = Algorithm::Block; // alignment implies static
                }
                kind => {
                    algorithm = Algorithm::from_schedule_kind(kind, s.cutoff_pct)
                        .expect("non-ALIGN kinds lower to algorithms");
                    if let Some(r) = algorithm.invalid_cutoff() {
                        return Err(CompileError::InvalidCutoff(r));
                    }
                    if let Some((param, value)) = algorithm.invalid_pct() {
                        return Err(CompileError::InvalidPercent { param, value });
                    }
                }
            }
        }
    }

    // ---- maps ----------------------------------------------------------
    let mut arrays = Vec::new();
    let mut scalar_bytes = 0u64;
    for d in directives {
        for m in d.maps() {
            for item in &m.items {
                match item {
                    MapItem::Scalar(_) => scalar_bytes += ELEM_BYTES,
                    MapItem::Array { section, partition, halo } => {
                        let mut dims = Vec::with_capacity(section.dims.len());
                        for dim in &section.dims {
                            let len = dim.len.eval(env)?;
                            if len < 0 {
                                return Err(CompileError::NegativeDim {
                                    array: section.name.clone(),
                                    value: len,
                                });
                            }
                            dims.push(len as u64);
                        }
                        let ndims = dims.len();
                        let mut policies: Vec<DistPolicy> = match partition {
                            Some(p) => p.dims.iter().map(|(pol, _)| pol.clone()).collect(),
                            None => vec![DistPolicy::Full; ndims],
                        };
                        policies.resize(ndims, DistPolicy::Full);
                        let mut widths: Vec<Option<u64>> = match halo {
                            Some(h) => h.widths.clone(),
                            None => vec![None; ndims],
                        };
                        widths.resize(ndims, None);
                        arrays.push(ArrayMap {
                            name: section.name.clone(),
                            dir: m.dir,
                            dims,
                            elem_bytes: ELEM_BYTES,
                            partition: policies,
                            halo: widths,
                        });
                    }
                }
            }
        }
    }

    // ---- reductions: each device copies its partials back --------------
    let reduction_vars: u64 = directives
        .iter()
        .flat_map(|d| &d.clauses)
        .map(|c| match c {
            Clause::Reduction { vars, .. } => vars.len() as u64,
            _ => 0,
        })
        .sum();

    let parallel_offload = directives.iter().any(|d| d.is_parallel_target());

    let mut region = OffloadRegion::builder(opts.kernel_name.clone())
        .loop_label(opts.loop_label.clone())
        .trip_count(opts.trip_count)
        .algorithm(algorithm)
        .devices(devices)
        .scalars(scalar_bytes)
        .reduction(reduction_vars * ELEM_BYTES);
    region = region.team_sched(team_sched);
    if let Some((target, ratio)) = loop_align {
        region = region.align_loop_with(target, ratio);
    }
    if !parallel_offload {
        region = region.serialized_offload();
    }
    for a in arrays {
        region = region.map_array(a);
    }
    // ---- pipeline clauses (`nowait` / `depend`) ------------------------
    if directives.iter().any(|d| d.is_nowait()) {
        region = region.nowait();
    }
    for d in directives {
        for name in d.depends_in() {
            region = region.depend_in(name);
        }
        for name in d.depends_out() {
            region = region.depend_out(name);
        }
    }
    Ok(region.build())
}

/// A lowered `#pragma omp target update` directive: which arrays to
/// force-refresh on the devices (`to`) and which to copy back (`from`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateSpec {
    /// Arrays to re-upload host→device.
    pub to: Vec<String>,
    /// Arrays to copy back device→host.
    pub from: Vec<String>,
}

/// Lower a `target update` directive. Array sections in the clauses are
/// accepted but only the names matter — the data environment knows each
/// array's resident span per device and moves exactly that.
pub fn compile_update(directive: &Directive) -> Result<UpdateSpec, CompileError> {
    if !directive.is_target_update() {
        return Err(CompileError::NotTargetUpdate);
    }
    let name_of = |item: &MapItem| match item {
        MapItem::Scalar(n) => n.clone(),
        MapItem::Array { section, .. } => section.name.clone(),
    };
    Ok(UpdateSpec {
        to: directive.update_to().map(name_of).collect(),
        from: directive.update_from().map(name_of).collect(),
    })
}

/// Lower a `target data` directive set into the region descriptor that
/// opens a persistent data environment scope. Identical lowering to
/// [`compile`], but the *first* directive must be a `target data`
/// construct — the one whose maps define what becomes resident.
pub fn compile_data_region(
    directives: &[&Directive],
    env: &Env,
    device_types: &[&str],
    opts: &CompileOptions,
) -> Result<OffloadRegion, CompileError> {
    if !directives.first().is_some_and(|d| d.is_target_data()) {
        return Err(CompileError::NotTargetData);
    }
    compile(directives, env, device_types, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_lang::parse_directive;

    const FULL: &[&str] = &[
        "HOMP_DEVICE_HOSTCPU",
        "HOMP_DEVICE_NVGPU",
        "HOMP_DEVICE_NVGPU",
        "HOMP_DEVICE_NVGPU",
        "HOMP_DEVICE_NVGPU",
        "HOMP_DEVICE_ITLMIC",
        "HOMP_DEVICE_ITLMIC",
    ];

    fn env_n(n: i64) -> Env {
        let mut e = Env::new();
        e.insert("n".into(), n);
        e
    }

    #[test]
    fn compiles_axpy_v2() {
        let data = parse_directive(
            "#pragma omp parallel target device (*) \
             map(tofrom: y[0:n] partition([ALIGN(loop)])) \
             map(to: x[0:n] partition([ALIGN(loop)]),a,n)",
        )
        .unwrap();
        let lp =
            parse_directive("#pragma omp parallel for distribute dist_schedule(target:[AUTO])")
                .unwrap();
        let region =
            compile(&[&data, &lp], &env_n(1000), FULL, &CompileOptions::for_loop("axpy", 1000))
                .unwrap();
        assert_eq!(region.devices.len(), 7);
        assert_eq!(region.trip_count, 1000);
        assert_eq!(region.arrays.len(), 2);
        assert_eq!(region.scalar_bytes, 16);
        assert_eq!(region.algorithm, Algorithm::Auto { cutoff: None });
        assert!(region.parallel_offload);
        let y = region.array("y").unwrap();
        assert_eq!(y.dims, vec![1000]);
        assert_eq!(y.partition[0], DistPolicy::Align { target: "loop".into(), ratio: 1 });
    }

    #[test]
    fn compiles_axpy_v1_with_loop_align() {
        let data = parse_directive(
            "#pragma omp parallel target device (*) \
             map(tofrom: y[0:n] partition([BLOCK])) \
             map(to: x[0:n] partition([BLOCK]),a,n)",
        )
        .unwrap();
        let lp =
            parse_directive("#pragma omp parallel for distribute dist_schedule(target:[ALIGN(x)])")
                .unwrap();
        let region =
            compile(&[&data, &lp], &env_n(500), FULL, &CompileOptions::for_loop("axpy", 500))
                .unwrap();
        assert_eq!(region.loop_align, Some(("x".into(), 1)));
    }

    #[test]
    fn compiles_jacobi_with_halo_and_2d() {
        let data = parse_directive(
            "#pragma omp parallel target data device(*) \
             map(to:n, m, omega, ax, ay, b, \
               f[0:n][0:m] partition([ALIGN(loop1)], FULL)) \
             map(tofrom:u[0:n][0:m] partition([ALIGN(loop1)], FULL)) \
             map(alloc:uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
        )
        .unwrap();
        let lp = parse_directive(
            "#pragma omp parallel for target device(*) reduction(+:error) \
             distribute dist_schedule(target:[AUTO])",
        )
        .unwrap();
        let mut env = env_n(64);
        env.insert("m".into(), 32);
        let region = compile(
            &[&data, &lp],
            &env,
            FULL,
            &CompileOptions::for_loop("jacobi", 64).with_loop_label("loop1"),
        )
        .unwrap();
        assert_eq!(region.arrays.len(), 3);
        let uold = region.array("uold").unwrap();
        assert_eq!(uold.dims, vec![64, 32]);
        assert_eq!(uold.halo, vec![Some(1), None]);
        assert_eq!(region.scalar_bytes, 6 * 8);
        assert_eq!(region.reduction_bytes, 8, "reduction(+:error) copies one REAL back");
    }

    #[test]
    fn device_filter_narrows_targets() {
        let d = parse_directive(
            "#pragma omp parallel target device(0:*:HOMP_DEVICE_NVGPU) \
             map(to: x[0:n] partition([ALIGN(loop)]))",
        )
        .unwrap();
        let region =
            compile(&[&d], &env_n(100), FULL, &CompileOptions::for_loop("k", 100)).unwrap();
        assert_eq!(region.devices, vec![1, 2, 3, 4]);
    }

    #[test]
    fn schedule_with_cutoff_lowers() {
        let d = parse_directive(
            "#pragma omp parallel for target device(*) \
             map(to: x[0:n] partition([ALIGN(loop)])) \
             distribute dist_schedule(target:[MODEL_2_AUTO], CUTOFF(15%))",
        )
        .unwrap();
        let region =
            compile(&[&d], &env_n(100), FULL, &CompileOptions::for_loop("k", 100)).unwrap();
        assert_eq!(region.algorithm, Algorithm::Model2 { cutoff: Some(0.15) });
    }

    #[test]
    fn missing_device_clause_is_error() {
        let d = parse_directive("#pragma omp parallel for map(to: x[0:n])").unwrap();
        assert_eq!(
            compile(&[&d], &env_n(10), FULL, &CompileOptions::for_loop("k", 10)).unwrap_err(),
            CompileError::NoDeviceClause
        );
    }

    #[test]
    fn unbound_variable_is_error() {
        let d = parse_directive("#pragma omp target device(*) map(to: x[0:missing])").unwrap();
        match compile(&[&d], &Env::new(), FULL, &CompileOptions::for_loop("k", 10)) {
            Err(CompileError::Eval(EvalError::Unbound(v))) => assert_eq!(v, "missing"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overflowing_section_length_is_error() {
        let d = parse_directive(
            "#pragma omp target device(*) map(to: x[0:(0-9223372036854775807-1)/(0-1)])",
        )
        .unwrap();
        assert_eq!(
            compile(&[&d], &Env::new(), FULL, &CompileOptions::for_loop("k", 10)).unwrap_err(),
            CompileError::Eval(EvalError::Overflow)
        );
        let err =
            parse_directive("#pragma omp target device(*) map(to: x[0:18446744073709551615])")
                .unwrap_err();
        assert_eq!(err.message, "integer literal overflows i64");
    }

    #[test]
    fn negative_dim_is_error() {
        let d = parse_directive("#pragma omp target device(*) map(to: x[0:n-50])").unwrap();
        match compile(&[&d], &env_n(10), FULL, &CompileOptions::for_loop("k", 10)) {
            Err(CompileError::NegativeDim { array, value }) => {
                assert_eq!(array, "x");
                assert_eq!(value, -40);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn teams_level_schedule_lowers() {
        let d = parse_directive(
            "#pragma omp parallel for target device(*) \
             map(to: x[0:n] partition([ALIGN(loop)])) \
             distribute dist_schedule(teams:[SCHED_DYNAMIC,2%]) \
             dist_schedule(target:[BLOCK])",
        )
        .unwrap();
        let region =
            compile(&[&d], &env_n(100), FULL, &CompileOptions::for_loop("k", 100)).unwrap();
        assert_eq!(region.team_sched, homp_sim::TeamSched::Dynamic);
        assert_eq!(region.algorithm, Algorithm::Block);
    }

    #[test]
    fn teams_block_lowers() {
        let d = parse_directive(
            "target device(*) map(to: x[0:n] partition([ALIGN(loop)])) \
             distribute dist_schedule(teams:[BLOCK])",
        )
        .unwrap();
        let region =
            compile(&[&d], &env_n(100), FULL, &CompileOptions::for_loop("k", 100)).unwrap();
        assert_eq!(region.team_sched, homp_sim::TeamSched::Block);
    }

    #[test]
    fn for_kernel_carries_intensity() {
        let spec = KernelInfo::new(
            "axpy",
            1_000,
            KernelIntensity {
                flops_per_iter: 2.0,
                mem_elems_per_iter: 3.0,
                data_elems_per_iter: 3.0,
                elem_bytes: 8.0,
            },
        );
        let opts = CompileOptions::for_kernel(&spec);
        assert_eq!(opts.kernel_name, "axpy");
        assert_eq!(opts.trip_count, 1_000);
        assert_eq!(opts.intensity().unwrap().flops_per_iter, 2.0);
        // Anonymous loops carry no intensity.
        assert!(CompileOptions::for_loop("k", 10).intensity().is_none());
    }

    #[test]
    fn for_loop_lowers_trip_count() {
        let d = parse_directive(
            "#pragma omp target device(*) map(to: x[0:n] partition([ALIGN(loop)]))",
        )
        .unwrap();
        let region =
            compile(&[&d], &env_n(100), FULL, &CompileOptions::for_loop("k", 100)).unwrap();
        assert_eq!(region.trip_count, 100);
    }

    #[test]
    fn lowers_target_update() {
        let d =
            parse_directive("#pragma omp target update to(f[0:n], coeffs) from(u[0:n])").unwrap();
        let spec = compile_update(&d).unwrap();
        assert_eq!(spec.to, vec!["f".to_string(), "coeffs".to_string()]);
        assert_eq!(spec.from, vec!["u".to_string()]);

        let not_update = parse_directive("#pragma omp parallel for").unwrap();
        assert_eq!(compile_update(&not_update), Err(CompileError::NotTargetUpdate));
    }

    #[test]
    fn data_region_requires_target_data() {
        let data = parse_directive(
            "#pragma omp parallel target data device(*) \
             map(tofrom: u[0:n] partition([ALIGN(loop)]))",
        )
        .unwrap();
        let region = compile_data_region(
            &[&data],
            &env_n(100),
            FULL,
            &CompileOptions::for_loop("region", 100),
        )
        .unwrap();
        assert_eq!(region.arrays.len(), 1);

        let plain = parse_directive(
            "#pragma omp target device(*) map(to: x[0:n] partition([ALIGN(loop)]))",
        )
        .unwrap();
        assert_eq!(
            compile_data_region(
                &[&plain],
                &env_n(100),
                FULL,
                &CompileOptions::for_loop("region", 100)
            )
            .unwrap_err(),
            CompileError::NotTargetData
        );
    }

    #[test]
    fn serialized_without_parallel_target() {
        // A plain `target` (not `parallel target`) directive serializes
        // the per-device offloads.
        let d = parse_directive(
            "#pragma omp target device(*) map(to: x[0:n] partition([ALIGN(loop)]))",
        )
        .unwrap();
        let region =
            compile(&[&d], &env_n(100), FULL, &CompileOptions::for_loop("k", 100)).unwrap();
        assert!(!region.parallel_offload);
    }
}
