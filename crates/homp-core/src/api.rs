//! High-level facade: parse → compile → offload in three calls.
//!
//! ```
//! use homp_core::api::Homp;
//! use homp_core::{FnKernel, Range};
//! use homp_lang::Env;
//! use homp_model::KernelIntensity;
//! use homp_sim::Machine;
//!
//! let mut homp = Homp::new(Machine::four_k40());
//! let mut env = Env::new();
//! env.insert("n".into(), 1_000);
//!
//! let region = homp
//!     .compile_source(
//!         &[
//!             "#pragma omp parallel target device(*) \
//!               map(tofrom: y[0:n] partition([ALIGN(loop)])) \
//!               map(to: x[0:n] partition([ALIGN(loop)]), a, n)",
//!             "#pragma omp parallel for distribute dist_schedule(target:[AUTO])",
//!         ],
//!         &env,
//!         homp_core::compile::CompileOptions::for_loop("axpy", 1_000),
//!     )
//!     .unwrap();
//!
//! let a = 2.0f64;
//! let x: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
//! let mut y = vec![1.0f64; 1_000];
//! let intensity = KernelIntensity {
//!     flops_per_iter: 2.0,
//!     mem_elems_per_iter: 3.0,
//!     data_elems_per_iter: 3.0,
//!     elem_bytes: 8.0,
//! };
//! let report = {
//!     let mut kernel = FnKernel::new(intensity, |r: Range| {
//!         for i in r.start..r.end {
//!             y[i as usize] += a * x[i as usize];
//!         }
//!     });
//!     homp.offload(&region, &mut kernel).run().unwrap()
//! };
//! assert_eq!(y[10], 1.0 + 2.0 * 10.0);
//! assert!(report.time_ms() > 0.0);
//! ```

use crate::compile::{compile, compile_data_region, compile_update, CompileError, CompileOptions};
use crate::map::PlanError;
use crate::offload::OffloadRegion;
use crate::pipeline::{Pipeline, PipelineKernel, PipelineReport};
use crate::runtime::{
    DataRegionReport, LoopKernel, OffloadBuilder, OffloadError, Runtime, UpdateReport,
};
use homp_lang::{parse_directive, Env, ParseError};
use homp_sim::{Machine, TransferStats};

/// Error from the facade: parse, compile or offload failure.
#[derive(Debug)]
pub enum HompError {
    /// Directive text failed to parse.
    Parse(ParseError),
    /// Lowering failed.
    Compile(CompileError),
    /// Offload failed.
    Offload(OffloadError),
    /// A `halo_exchange` directive did not match the region.
    HaloExchange(String),
}

impl From<ParseError> for HompError {
    fn from(e: ParseError) -> Self {
        HompError::Parse(e)
    }
}

impl From<CompileError> for HompError {
    fn from(e: CompileError) -> Self {
        HompError::Compile(e)
    }
}

impl From<OffloadError> for HompError {
    fn from(e: OffloadError) -> Self {
        HompError::Offload(e)
    }
}

impl std::fmt::Display for HompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HompError::Parse(e) => write!(f, "parse: {e}"),
            HompError::Compile(e) => write!(f, "compile: {e}"),
            HompError::Offload(e) => write!(f, "offload: {e}"),
            HompError::HaloExchange(msg) => write!(f, "halo_exchange: {msg}"),
        }
    }
}

impl std::error::Error for HompError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HompError::Parse(e) => Some(e),
            HompError::Compile(e) => Some(e),
            HompError::Offload(e) => Some(e),
            HompError::HaloExchange(_) => None,
        }
    }
}

/// The HOMP system: a machine, its runtime, and the directive pipeline.
pub struct Homp {
    runtime: Runtime,
    type_names: Vec<&'static str>,
}

impl Homp {
    /// HOMP over `machine`, on a runtime with default noise at seed 42.
    pub fn new(machine: Machine) -> Self {
        Self::with_runtime(Runtime::new(machine, 42))
    }

    /// HOMP over an existing runtime (keeps its noise, fault,
    /// decision-log and trace settings).
    pub fn with_runtime(runtime: Runtime) -> Self {
        let type_names = runtime.machine().devices.iter().map(|d| d.dev_type.homp_name()).collect();
        Self { runtime, type_names }
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Parse directive sources and lower them to a region.
    pub fn compile_source(
        &self,
        sources: &[&str],
        env: &Env,
        opts: CompileOptions,
    ) -> Result<OffloadRegion, HompError> {
        let parsed: Vec<_> =
            sources.iter().map(|s| parse_directive(s)).collect::<Result<_, _>>()?;
        let refs: Vec<&_> = parsed.iter().collect();
        Ok(compile(&refs, env, &self.type_names, &opts)?)
    }

    /// Offload a region: returns the unified [`OffloadBuilder`] — chain
    /// options ([`OffloadBuilder::at`]) and finish with
    /// [`OffloadBuilder::run`]. The builder's error is
    /// [`OffloadError`], which converts into [`HompError`], so `?`
    /// works in facade-level code.
    pub fn offload<'r, 'k>(
        &'r mut self,
        region: &'r OffloadRegion,
        kernel: &'k mut dyn LoopKernel,
    ) -> OffloadBuilder<'r, 'k> {
        self.runtime.offload(region, kernel)
    }

    /// Run a [`Pipeline`] of offload stages (see
    /// [`Runtime::offload_pipeline`]).
    pub fn offload_pipeline(
        &mut self,
        pipeline: &Pipeline,
        kernel: &mut dyn PipelineKernel,
    ) -> Result<PipelineReport, HompError> {
        Ok(self.runtime.offload_pipeline(pipeline, kernel)?)
    }

    /// Execute a `#pragma omp halo_exchange (var)` directive against a
    /// region: looks up `var`'s halo width and row size in the region's
    /// maps, plans the pairwise boundary sends for `dist`, and simulates
    /// them. Returns the exchange's virtual duration; `Ok(SimSpan::ZERO)`
    /// when the devices share memory. A split without one range per
    /// device of the region is [`OffloadError::AlignSlots`], a replicated
    /// one [`OffloadError::AlignReplicated`], and a device the region
    /// names twice [`OffloadError::DuplicateDevice`].
    pub fn halo_exchange(
        &mut self,
        directive_src: &str,
        region: &OffloadRegion,
        dist: &crate::dist::Distribution,
    ) -> Result<homp_sim::SimSpan, HompError> {
        let d = parse_directive(directive_src)?;
        if !d.constructs.contains(&homp_lang::ConstructKeyword::HaloExchange) {
            return Err(HompError::HaloExchange("directive is not a halo_exchange".into()));
        }
        let var = d.halo_exchange_var.clone().ok_or_else(|| {
            HompError::HaloExchange("halo_exchange needs a variable: halo_exchange (v)".into())
        })?;
        let array = region.array(&var).ok_or_else(|| {
            HompError::HaloExchange(format!("array `{var}` is not mapped in this region"))
        })?;
        let dim = array.distributed_dim().unwrap_or(0);
        let width = array.halo.get(dim).copied().flatten().ok_or_else(|| {
            HompError::HaloExchange(format!("array `{var}` was mapped without halo(…)"))
        })?;
        // A send moves at most `width` rows.
        let slab = array.slab_bytes(dim).filter(|b| b.checked_mul(width).is_some());
        let slab = slab.ok_or_else(|| OffloadError::Plan(PlanError::Overflow(var.clone())))?;
        Ok(self.runtime.exchange_halo(&region.devices, dist, width, slab)?)
    }

    /// Open a persistent `target data` region from directive text and
    /// return a scoped guard. The first source must be a `target data`
    /// directive; its maps define what becomes resident. Offloads issued
    /// through the guard (or through [`Homp::offload`] while the guard
    /// lives) reuse resident device data: uploads are elided when the
    /// data is already on-device, split changes move only the delta, and
    /// `from`/`tofrom` copy-backs are deferred until
    /// [`DataRegion::close`] or an explicit `target update from`.
    ///
    /// Dropping the guard without calling `close` flushes best-effort
    /// and discards the close report.
    pub fn data_region(
        &mut self,
        sources: &[&str],
        env: &Env,
        opts: CompileOptions,
    ) -> Result<DataRegion<'_>, HompError> {
        let parsed: Vec<_> =
            sources.iter().map(|s| parse_directive(s)).collect::<Result<_, _>>()?;
        let refs: Vec<&_> = parsed.iter().collect();
        let spec = compile_data_region(&refs, env, &self.type_names, &opts)?;
        Ok(self.enter_data_region(spec))
    }

    /// Open a `target data` region from an already-built region
    /// descriptor (the programmatic twin of [`Homp::data_region`]).
    pub fn enter_data_region(&mut self, spec: OffloadRegion) -> DataRegion<'_> {
        self.runtime.data_region_begin(&spec);
        DataRegion { homp: self, spec, open: true }
    }

    /// Cumulative transfer accounting of the persistent data
    /// environment: transferred vs. elided bytes per direction plus
    /// redistribution traffic. All zeros until a data region opens.
    pub fn transfer_stats(&self) -> &TransferStats {
        self.runtime.transfer_stats()
    }
}

/// Scoped handle to an open `target data` region. Offloads issued
/// through it reuse resident device buffers; [`DataRegion::close`]
/// flushes deferred copy-backs and reports what moved. The guard
/// borrows the [`Homp`] session exclusively, so region nesting is
/// explicit and a region cannot outlive its session.
pub struct DataRegion<'h> {
    homp: &'h mut Homp,
    spec: OffloadRegion,
    open: bool,
}

impl DataRegion<'_> {
    /// The region descriptor whose maps opened this environment.
    pub fn spec(&self) -> &OffloadRegion {
        &self.spec
    }

    /// Offload a region inside this data environment. Arrays mapped by
    /// the environment elide transfers for resident data; arrays the
    /// environment does not know behave as in a plain offload. Returns
    /// the unified [`OffloadBuilder`]; finish with
    /// [`OffloadBuilder::run`].
    pub fn offload<'r, 'k>(
        &'r mut self,
        region: &'r OffloadRegion,
        kernel: &'k mut dyn LoopKernel,
    ) -> OffloadBuilder<'r, 'k> {
        self.homp.runtime.offload(region, kernel)
    }

    /// Offload the data region's own loop spec (trip count, algorithm,
    /// devices and maps as declared by the `target data` directives).
    pub fn offload_here<'r, 'k>(
        &'r mut self,
        kernel: &'k mut dyn LoopKernel,
    ) -> OffloadBuilder<'r, 'k> {
        let DataRegion { homp, spec, .. } = self;
        homp.runtime.offload(spec, kernel)
    }

    /// Run a [`Pipeline`] inside this data environment (see
    /// [`Runtime::offload_pipeline`]).
    pub fn offload_pipeline(
        &mut self,
        pipeline: &Pipeline,
        kernel: &mut dyn PipelineKernel,
    ) -> Result<PipelineReport, HompError> {
        Ok(self.homp.runtime.offload_pipeline(pipeline, kernel)?)
    }

    /// Execute a `#pragma omp target update to(…) from(…)` directive:
    /// force-refresh the named arrays' device copies from the host and/or
    /// copy device data back, regardless of dirty state.
    pub fn update(&mut self, directive_src: &str) -> Result<UpdateReport, HompError> {
        let d = parse_directive(directive_src)?;
        let spec = compile_update(&d)?;
        let to: Vec<&str> = spec.to.iter().map(String::as_str).collect();
        let from: Vec<&str> = spec.from.iter().map(String::as_str).collect();
        Ok(self.homp.runtime.target_update(&to, &from)?)
    }

    /// Execute a halo-exchange directive against a region (see
    /// [`Homp::halo_exchange`]).
    pub fn halo_exchange(
        &mut self,
        directive_src: &str,
        region: &OffloadRegion,
        dist: &crate::dist::Distribution,
    ) -> Result<homp_sim::SimSpan, HompError> {
        self.homp.halo_exchange(directive_src, region, dist)
    }

    /// Cumulative environment transfer accounting.
    pub fn stats(&self) -> &TransferStats {
        self.homp.runtime.transfer_stats()
    }

    /// Close the region: flush deferred dirty copy-backs, release the
    /// persistent device allocations, and report what moved.
    pub fn close(mut self) -> Result<DataRegionReport, HompError> {
        self.open = false;
        Ok(self.homp.runtime.data_region_end()?)
    }
}

impl Drop for DataRegion<'_> {
    fn drop(&mut self) {
        if self.open {
            let _ = self.homp.runtime.data_region_end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::FnKernel;
    use crate::Range;
    use homp_model::KernelIntensity;

    #[test]
    fn end_to_end_from_directive_text() {
        let mut homp = Homp::new(Machine::full_node());
        let mut env = Env::new();
        env.insert("n".into(), 5_000);
        let region = homp
            .compile_source(
                &[
                    "#pragma omp parallel target device(*) \
                     map(tofrom: y[0:n] partition([ALIGN(loop)])) \
                     map(to: x[0:n] partition([ALIGN(loop)]), a, n)",
                    "#pragma omp parallel for distribute \
                     dist_schedule(target:[SCHED_DYNAMIC,2%])",
                ],
                &env,
                CompileOptions::for_loop("axpy", 5_000),
            )
            .unwrap();
        let mut executed = 0u64;
        let intensity = KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        };
        let report = {
            let mut kernel = FnKernel::new(intensity, |r: Range| executed += r.len());
            homp.offload(&region, &mut kernel).run().unwrap()
        };
        assert_eq!(executed, 5_000);
        assert_eq!(report.counts.iter().sum::<u64>(), 5_000);
    }

    #[test]
    fn bad_directive_surfaces_parse_error() {
        let homp = Homp::new(Machine::four_k40());
        let err = homp
            .compile_source(
                &["#pragma omp frobnicate"],
                &Env::new(),
                CompileOptions::for_loop("k", 1),
            )
            .unwrap_err();
        assert!(matches!(err, HompError::Parse(_)));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::runtime::{FnKernel, RuntimeConfig};
    use crate::Range;
    use homp_model::KernelIntensity;

    fn noiseless() -> Homp {
        Homp::with_runtime(RuntimeConfig::new().noiseless().build(Machine::four_k40()))
    }

    fn intensity() -> KernelIntensity {
        KernelIntensity {
            flops_per_iter: 2.0,
            mem_elems_per_iter: 3.0,
            data_elems_per_iter: 3.0,
            elem_bytes: 8.0,
        }
    }

    #[test]
    fn resident_offload_through_facade() {
        let mut homp = noiseless();
        let mut env = Env::new();
        env.insert("n".into(), 10_000);
        let sources = [
            "#pragma omp parallel target data device(*) \
             map(to: big[0:n*64]) \
             map(tofrom: y[0:n] partition([ALIGN(loop)]))",
            "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
        ];
        let opts = CompileOptions::for_loop("resident", 10_000);
        let region = homp.compile_source(&sources, &env, opts.clone()).unwrap();
        let mut k = FnKernel::new(intensity(), |_r: Range| {});
        let cold = homp.offload(&region, &mut k).run().unwrap().makespan;
        // The region's first offload uploads; the second finds the
        // replicated `big` already on every device.
        let mut data = homp.data_region(&sources, &env, opts).unwrap();
        data.offload_here(&mut k).run().unwrap();
        let warm = data.offload_here(&mut k).run().unwrap().makespan;
        assert!(data.stats().h2d_elided_bytes >= 4 * 10_000 * 64 * 8);
        data.close().unwrap();
        assert!(warm < cold, "resident {warm} !< cold {cold}");
    }

    #[test]
    fn error_display_is_prefixed_by_stage() {
        let homp = Homp::new(Machine::four_k40());
        let parse_err = homp
            .compile_source(&["@@@"], &Env::new(), crate::compile::CompileOptions::for_loop("k", 1))
            .unwrap_err();
        assert!(parse_err.to_string().starts_with("parse:"), "{parse_err}");

        let compile_err = homp
            .compile_source(
                &["#pragma omp parallel for map(to: x[0:n])"],
                &Env::new(),
                crate::compile::CompileOptions::for_loop("k", 1),
            )
            .unwrap_err();
        assert!(compile_err.to_string().starts_with("compile:"), "{compile_err}");
    }

    #[test]
    fn halo_exchange_directive_executes() {
        let mut homp = noiseless();
        let mut env = Env::new();
        env.insert("n".into(), 64);
        env.insert("m".into(), 32);
        let region = homp
            .compile_source(
                &[
                    "#pragma omp parallel target data device(*)                      map(alloc: uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
                ],
                &env,
                crate::compile::CompileOptions::for_loop("jacobi", 64).with_loop_label("loop1"),
            )
            .unwrap();
        let dist = crate::dist::Distribution::block(64, 4);
        let span = homp.halo_exchange("#pragma omp halo_exchange (uold)", &region, &dist).unwrap();
        assert!(span.as_secs() > 0.0, "GPUs pay for boundary rows");

        let err =
            homp.halo_exchange("#pragma omp halo_exchange (ghost)", &region, &dist).unwrap_err();
        assert!(err.to_string().contains("not mapped"), "{err}");

        let err = homp.halo_exchange("#pragma omp parallel for", &region, &dist).unwrap_err();
        assert!(err.to_string().contains("not a halo_exchange"), "{err}");
    }

    #[test]
    fn halo_exchange_requires_halo_clause() {
        let mut homp = noiseless();
        let mut env = Env::new();
        env.insert("n".into(), 64);
        let region = homp
            .compile_source(
                &["#pragma omp target device(*) map(to: u[0:n] partition([ALIGN(loop)]))"],
                &env,
                crate::compile::CompileOptions::for_loop("k", 64),
            )
            .unwrap();
        let dist = crate::dist::Distribution::block(64, 4);
        let err = homp.halo_exchange("#pragma omp halo_exchange (u)", &region, &dist).unwrap_err();
        assert!(err.to_string().contains("without halo"), "{err}");
    }

    #[test]
    fn data_region_elides_repeat_transfers() {
        let mut homp = noiseless();
        let mut env = Env::new();
        env.insert("n".into(), 10_000);
        let mut region = homp
            .data_region(
                &[
                    "#pragma omp parallel target data device(*) \
                     map(to: x[0:n] partition([ALIGN(loop)]), a, n) \
                     map(tofrom: y[0:n] partition([ALIGN(loop)]))",
                    "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
                ],
                &env,
                CompileOptions::for_loop("axpy", 10_000),
            )
            .unwrap();
        let mut k1 = FnKernel::new(intensity(), |_r: Range| {});
        let cold = region.offload_here(&mut k1).run().unwrap();
        let mut k2 = FnKernel::new(intensity(), |_r: Range| {});
        let warm = region.offload_here(&mut k2).run().unwrap();
        assert!(warm.makespan < cold.makespan, "warm {} !< cold {}", warm.makespan, cold.makespan);
        // Second offload moved nothing: everything was resident.
        let stats = *region.stats();
        assert!(stats.h2d_elided_bytes >= 10_000 * 16, "elided {}", stats.h2d_elided_bytes);
        // Copy-backs were deferred; close flushes y once.
        let report = region.close().unwrap();
        assert_eq!(report.flushed_bytes, 10_000 * 8);
        // After close, the environment is inactive: a fresh offload pays
        // full price again (no stale residency).
        assert!(!homp.runtime().data_env().active());
    }

    #[test]
    fn target_update_moves_resident_spans() {
        let mut homp = noiseless();
        let mut env = Env::new();
        env.insert("n".into(), 1_000);
        let mut region = homp
            .data_region(
                &[
                    "#pragma omp parallel target data device(*) \
                     map(to: x[0:n] partition([ALIGN(loop)])) \
                     map(tofrom: y[0:n] partition([ALIGN(loop)]))",
                    "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
                ],
                &env,
                CompileOptions::for_loop("axpy", 1_000),
            )
            .unwrap();
        let mut k = FnKernel::new(intensity(), |_r: Range| {});
        region.offload_here(&mut k).run().unwrap();
        let up = region.update("#pragma omp target update to(x)").unwrap();
        assert_eq!(up.h2d_bytes, 1_000 * 8);
        assert_eq!(up.d2h_bytes, 0);
        let down = region.update("#pragma omp target update from(y)").unwrap();
        assert_eq!(down.d2h_bytes, 1_000 * 8);
        // The explicit `update from` drained the dirty bit: nothing left
        // to flush at close.
        let report = region.close().unwrap();
        assert_eq!(report.flushed_bytes, 0);

        // Updates against unmapped arrays fail cleanly.
        let mut region = homp
            .data_region(
                &["#pragma omp parallel target data device(*) \
                     map(to: x[0:n] partition([ALIGN(loop)]))"],
                &env,
                CompileOptions::for_loop("axpy", 1_000),
            )
            .unwrap();
        let err = region.update("#pragma omp target update to(ghost)").unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn dropping_region_guard_closes_it() {
        let mut homp = noiseless();
        let mut env = Env::new();
        env.insert("n".into(), 100);
        {
            let _region = homp
                .data_region(
                    &["#pragma omp parallel target data device(*) \
                         map(to: x[0:n] partition([ALIGN(loop)]))"],
                    &env,
                    CompileOptions::for_loop("k", 100),
                )
                .unwrap();
        }
        assert!(!homp.runtime().data_env().active());
    }

    #[test]
    fn device_variable_resolves_through_facade() {
        // Fig. 1's standard-OpenMP `device(devid)` form.
        let mut homp = Homp::new(Machine::four_k40());
        let mut env = Env::new();
        env.insert("n".into(), 1_000);
        env.insert("devid".into(), 2);
        let region = homp
            .compile_source(
                &["#pragma omp target device(devid) \
                     map(to: x[0:n] partition([ALIGN(loop)]))"],
                &env,
                crate::compile::CompileOptions::for_loop("single", 1_000),
            )
            .unwrap();
        assert_eq!(region.devices, vec![2]);
        let mut k = FnKernel::new(intensity(), |_r: Range| {});
        let rep = homp.offload(&region, &mut k).run().unwrap();
        assert_eq!(rep.counts, vec![1_000]);
    }
}
