//! Parser for the HOMP directive language — the OpenMP extensions of
//! Section III of the paper.
//!
//! The paper's compiler (built on ROSE) lowers `#pragma omp` directives
//! extended with multi-device `device(...)` specifiers,
//! `map(... partition(...) halo(...))` clauses and
//! `distribute dist_schedule(target: ...)` into runtime calls. This
//! crate implements the front half of that pipeline: a lexer
//! ([`token`]), a typed AST ([`ast`]), a recursive-descent parser
//! ([`parser`]) and device-specifier resolution ([`device_spec`]).
//! `homp-core` consumes the AST and performs the lowering.
//!
//! ```
//! use homp_lang::parse_directive;
//! let d = parse_directive(
//!     "#pragma omp parallel target device(*) \
//!      map(tofrom: y[0:n] partition([BLOCK]))").unwrap();
//! assert!(d.is_parallel_target());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ast;
pub mod device_spec;
pub mod parser;
pub mod token;

pub use ast::{
    ArraySection, BinOp, Clause, ConstructKeyword, Count, DependKind, DeviceEntry, DeviceSpecifier,
    Directive, DistPolicy, DistSchedule, Env, EvalError, Expr, HaloSpec, MapClause, MapDir,
    MapItem, PartitionSpec, ReductionOp, ScheduleKind, ScheduleLevel, SectionDim,
};
pub use device_spec::{resolve_devices, resolve_devices_with_env, ResolveError};
pub use parser::{parse_algorithm_notation, parse_directive, ParseError};
