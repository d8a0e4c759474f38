//! Abstract syntax of the HOMP directive language.
//!
//! These types model, verbatim, the extensions of Section III:
//! multi-device `device(...)` specifiers, `map(...)` clauses with
//! `partition(...)` and `halo(...)` parameters, the
//! `distribute dist_schedule(target: ...)` clause, reductions, and the
//! `parallel target` composite construct.
//!
//! Every node implements `Display`, printing canonical directive text;
//! the parser accepts that text back (round-trip property tests live in
//! the parser module).

use std::collections::HashMap;
use std::fmt;

/// Integer expression appearing in array bounds and clause arguments
/// (`y[0:n]`, `num_threads(ndev)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Literal.
    Int(i64),
    /// Variable reference, resolved at offload time.
    Ident(String),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// Binary arithmetic operators allowed in directive expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division)
    Div,
}

/// Variable bindings for expression evaluation at offload time.
pub type Env = HashMap<String, i64>;

/// Error evaluating an [`Expr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An identifier had no binding in the environment.
    Unbound(String),
    /// Division by zero.
    DivideByZero,
    /// Arithmetic overflow.
    Overflow,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unbound(n) => write!(f, "unbound variable `{n}`"),
            EvalError::DivideByZero => write!(f, "division by zero"),
            EvalError::Overflow => write!(f, "arithmetic overflow"),
        }
    }
}

impl std::error::Error for EvalError {}

impl Expr {
    /// Evaluate under `env`.
    pub fn eval(&self, env: &Env) -> Result<i64, EvalError> {
        match self {
            Expr::Int(v) => Ok(*v),
            Expr::Ident(name) => {
                env.get(name).copied().ok_or_else(|| EvalError::Unbound(name.clone()))
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = lhs.eval(env)?;
                let r = rhs.eval(env)?;
                match op {
                    BinOp::Add => l.checked_add(r).ok_or(EvalError::Overflow),
                    BinOp::Sub => l.checked_sub(r).ok_or(EvalError::Overflow),
                    BinOp::Mul => l.checked_mul(r).ok_or(EvalError::Overflow),
                    BinOp::Div => {
                        if r == 0 {
                            Err(EvalError::DivideByZero)
                        } else {
                            // `i64::MIN / -1` is the one other quotient that does not fit.
                            l.checked_div(r).ok_or(EvalError::Overflow)
                        }
                    }
                }
            }
        }
    }

    /// All identifiers referenced by the expression.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Int(_) => {}
            Expr::Ident(n) => {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.free_vars(out);
                rhs.free_vars(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Ident(n) => write!(f, "{n}"),
            Expr::Binary { op, lhs, rhs } => {
                let ops = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                write!(f, "({lhs}{ops}{rhs})")
            }
        }
    }
}

/// One dimension of an array section: `[start:len]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionDim {
    /// First index mapped.
    pub start: Expr,
    /// Number of elements mapped.
    pub len: Expr,
}

impl fmt::Display for SectionDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}]", self.start, self.len)
    }
}

/// An array section `name[0:n][0:m]…`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySection {
    /// Variable name.
    pub name: String,
    /// One entry per dimension, outermost first.
    pub dims: Vec<SectionDim>,
}

impl fmt::Display for ArraySection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for d in &self.dims {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// A distribution policy (Table I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistPolicy {
    /// Whole range on every device (the default).
    Full,
    /// Contiguous even blocks.
    Block,
    /// Runtime decides, to balance load (loops only).
    Auto,
    /// Copy the referenced distribution, scaled by `ratio`.
    Align {
        /// Name of the loop or array whose distribution is copied.
        target: String,
        /// Scale factor (default 1).
        ratio: u64,
    },
}

impl fmt::Display for DistPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistPolicy::Full => write!(f, "FULL"),
            DistPolicy::Block => write!(f, "BLOCK"),
            DistPolicy::Auto => write!(f, "AUTO"),
            DistPolicy::Align { target, ratio } => {
                if *ratio == 1 {
                    write!(f, "ALIGN({target})")
                } else {
                    write!(f, "ALIGN({target},{ratio})")
                }
            }
        }
    }
}

/// `partition(policy, policy, …)` — one policy per array dimension. The
/// paper brackets the distributed dimension (`partition([BLOCK])`,
/// `partition([ALIGN(loop1)], FULL)`); the flag records that spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Per-dimension policies with their bracketing flag.
    pub dims: Vec<(DistPolicy, bool)>,
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "partition(")?;
        for (i, (p, bracketed)) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if *bracketed {
                write!(f, "[{p}]")?;
            } else {
                write!(f, "{p}")?;
            }
        }
        write!(f, ")")
    }
}

/// `halo(w, …)` — per-dimension ghost-region widths; an omitted width
/// (`halo(1,)`) means no halo in that dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloSpec {
    /// Halo width per dimension; `None` for dimensions without halo.
    pub widths: Vec<Option<u64>>,
}

impl fmt::Display for HaloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "halo(")?;
        for (i, w) in self.widths.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if let Some(w) = w {
                write!(f, "{w}")?;
            }
        }
        write!(f, ")")
    }
}

/// Mapping direction of a `map` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapDir {
    /// Copy host→device before the region.
    To,
    /// Copy device→host after the region.
    From,
    /// Both directions.
    ToFrom,
    /// Allocate on the device without copies.
    Alloc,
}

impl fmt::Display for MapDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapDir::To => write!(f, "to"),
            MapDir::From => write!(f, "from"),
            MapDir::ToFrom => write!(f, "tofrom"),
            MapDir::Alloc => write!(f, "alloc"),
        }
    }
}

/// One item of a `map` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapItem {
    /// A scalar variable (`a`, `n`): replicated to every device.
    Scalar(String),
    /// An array section, optionally partitioned and haloed.
    Array {
        /// The section being mapped.
        section: ArraySection,
        /// Distribution of the section across devices.
        partition: Option<PartitionSpec>,
        /// Ghost regions for neighbourhood communication.
        halo: Option<HaloSpec>,
    },
}

impl fmt::Display for MapItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapItem::Scalar(n) => write!(f, "{n}"),
            MapItem::Array { section, partition, halo } => {
                write!(f, "{section}")?;
                if let Some(p) = partition {
                    write!(f, " {p}")?;
                }
                if let Some(h) = halo {
                    write!(f, " {h}")?;
                }
                Ok(())
            }
        }
    }
}

/// A full `map(dir: items…)` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapClause {
    /// Direction.
    pub dir: MapDir,
    /// Mapped items.
    pub items: Vec<MapItem>,
}

impl fmt::Display for MapClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "map({}: ", self.dir)?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, ")")
    }
}

/// How many devices a [`DeviceEntry`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Exactly one device (the default when `:nums` is omitted).
    One,
    /// `nums` devices starting from the initial ID.
    N(u64),
    /// All devices from the initial ID (`*`).
    All,
}

/// One `device_specifier`: `initial_devid[:nums][:dev_type_filter]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceEntry {
    /// Bare `*`: every device in the system.
    All,
    /// A scalar variable (`device(devid)` in standard OpenMP), resolved
    /// against the environment at lowering time.
    Var(String),
    /// A range with optional count and type filter.
    Range {
        /// First device ID.
        start: u64,
        /// How many consecutive devices.
        count: Count,
        /// Optional type filter name (`HOMP_DEVICE_NVGPU` …).
        filter: Option<String>,
    },
}

impl fmt::Display for DeviceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceEntry::All => write!(f, "*"),
            DeviceEntry::Var(v) => write!(f, "{v}"),
            DeviceEntry::Range { start, count, filter } => {
                write!(f, "{start}")?;
                match count {
                    Count::One => {}
                    Count::N(n) => write!(f, ":{n}")?,
                    Count::All => write!(f, ":*")?,
                }
                if let Some(t) = filter {
                    write!(f, ":{t}")?;
                }
                Ok(())
            }
        }
    }
}

/// The whole `device(…)` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpecifier {
    /// Entries, in order. Resolution concatenates and de-duplicates.
    pub entries: Vec<DeviceEntry>,
}

impl fmt::Display for DeviceSpecifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device(")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Schedule kinds accepted by `dist_schedule(target: …)` — the Table I
/// policies plus the Table II algorithm notations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Even static chunks.
    Block,
    /// Runtime picks (the AUTO policy); resolves per the §VI-D
    /// heuristics.
    Auto,
    /// Align the loop distribution with a mapped array's distribution.
    Align {
        /// Array (or loop) whose distribution is copied.
        target: String,
        /// Scale ratio, default 1.
        ratio: u64,
    },
    /// `SCHED_DYNAMIC[,chunk%]`.
    Dynamic {
        /// Chunk size as percent of the trip count (default 2%).
        chunk_pct: Option<u64>,
    },
    /// `SCHED_GUIDED[,first-chunk%]`.
    Guided {
        /// Initial chunk percent (default 20%).
        chunk_pct: Option<u64>,
    },
    /// `MODEL_1_AUTO` — compute-only analytical model.
    Model1,
    /// `MODEL_2_AUTO` — compute + data-movement analytical model.
    Model2,
    /// `SCHED_PROFILE_AUTO[,sample%]` — constant-size sample profiling.
    ProfileAuto {
        /// Stage-1 sample size percent (default 10%).
        sample_pct: Option<u64>,
    },
    /// `MODEL_PROFILE_AUTO[,sample%]` — model-sized sample profiling.
    ModelProfile {
        /// Stage-1 sample size percent (default 10%).
        sample_pct: Option<u64>,
    },
    /// `WORK_ASSIST[,min%]` — model-derived initial shares with
    /// dynamic tail-stealing rescue of stragglers.
    WorkAssist {
        /// Smallest stealable tail percent (default 5%).
        min_pct: Option<u64>,
    },
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleKind::Block => write!(f, "BLOCK"),
            ScheduleKind::Auto => write!(f, "AUTO"),
            ScheduleKind::Align { target, ratio } => {
                if *ratio == 1 {
                    write!(f, "ALIGN({target})")
                } else {
                    write!(f, "ALIGN({target},{ratio})")
                }
            }
            ScheduleKind::Dynamic { chunk_pct } => match chunk_pct {
                Some(c) => write!(f, "SCHED_DYNAMIC,{c}%"),
                None => write!(f, "SCHED_DYNAMIC"),
            },
            ScheduleKind::Guided { chunk_pct } => match chunk_pct {
                Some(c) => write!(f, "SCHED_GUIDED,{c}%"),
                None => write!(f, "SCHED_GUIDED"),
            },
            ScheduleKind::Model1 => write!(f, "MODEL_1_AUTO"),
            ScheduleKind::Model2 => write!(f, "MODEL_2_AUTO"),
            ScheduleKind::ProfileAuto { sample_pct } => match sample_pct {
                Some(s) => write!(f, "SCHED_PROFILE_AUTO,{s}%"),
                None => write!(f, "SCHED_PROFILE_AUTO"),
            },
            ScheduleKind::ModelProfile { sample_pct } => match sample_pct {
                Some(s) => write!(f, "MODEL_PROFILE_AUTO,{s}%"),
                None => write!(f, "MODEL_PROFILE_AUTO"),
            },
            ScheduleKind::WorkAssist { min_pct } => match min_pct {
                Some(m) => write!(f, "WORK_ASSIST,{m}%"),
                None => write!(f, "WORK_ASSIST"),
            },
        }
    }
}

/// Which level the schedule applies to: between devices (`target`) or
/// between the teams of one device (`teams`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleLevel {
    /// Distribution among target devices — the HOMP extension.
    Target,
    /// Distribution among teams within a device — standard OpenMP.
    Teams,
}

impl fmt::Display for ScheduleLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleLevel::Target => write!(f, "target"),
            ScheduleLevel::Teams => write!(f, "teams"),
        }
    }
}

/// `dist_schedule(level: [kind][, CUTOFF%])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistSchedule {
    /// Target or teams level.
    pub level: ScheduleLevel,
    /// The schedule kind.
    pub kind: ScheduleKind,
    /// Optional CUTOFF ratio percentage for the model/profile kinds.
    pub cutoff_pct: Option<u64>,
}

impl fmt::Display for DistSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dist_schedule({}:[{}]", self.level, self.kind)?;
        if let Some(c) = self.cutoff_pct {
            write!(f, ", CUTOFF({c}%)")?;
        }
        write!(f, ")")
    }
}

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionOp {
    /// `+`
    Sum,
    /// `*`
    Prod,
    /// `max`
    Max,
    /// `min`
    Min,
}

impl fmt::Display for ReductionOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReductionOp::Sum => write!(f, "+"),
            ReductionOp::Prod => write!(f, "*"),
            ReductionOp::Max => write!(f, "max"),
            ReductionOp::Min => write!(f, "min"),
        }
    }
}

/// One clause of a directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clause {
    /// `device(…)`
    Device(DeviceSpecifier),
    /// `map(…)`
    Map(MapClause),
    /// `dist_schedule(…)`
    DistSchedule(DistSchedule),
    /// `collapse(n)`
    Collapse(u64),
    /// `reduction(op: vars…)`
    Reduction {
        /// Operator.
        op: ReductionOp,
        /// Reduced variables.
        vars: Vec<String>,
    },
    /// `num_threads(expr)`
    NumThreads(Expr),
    /// `shared(vars…)`
    Shared(Vec<String>),
    /// `private(vars…)`
    Private(Vec<String>),
    /// `to(items…)` motion clause on a `target update` directive:
    /// force-refresh device copies from the host.
    UpdateTo(Vec<MapItem>),
    /// `from(items…)` motion clause on a `target update` directive:
    /// force-copy device data back to the host.
    UpdateFrom(Vec<MapItem>),
    /// `nowait` — the offload does not end at a barrier: a downstream
    /// pipeline stage may consume produced chunks as they land.
    Nowait,
    /// `depend(in|out|inout: vars…)` — explicit dependency arrays for
    /// pipeline edge inference, overriding map-direction inference.
    Depend {
        /// Dependence direction.
        kind: DependKind,
        /// The named arrays.
        vars: Vec<String>,
    },
}

/// Direction of a `depend(…)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependKind {
    /// `depend(in: …)` — the stage reads these arrays.
    In,
    /// `depend(out: …)` — the stage writes these arrays.
    Out,
    /// `depend(inout: …)` — the stage both reads and writes them.
    InOut,
}

impl fmt::Display for DependKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DependKind::In => write!(f, "in"),
            DependKind::Out => write!(f, "out"),
            DependKind::InOut => write!(f, "inout"),
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clause::Device(d) => write!(f, "{d}"),
            Clause::Map(m) => write!(f, "{m}"),
            Clause::DistSchedule(s) => write!(f, "{s}"),
            Clause::Collapse(n) => write!(f, "collapse({n})"),
            Clause::Reduction { op, vars } => write!(f, "reduction({op}:{})", vars.join(",")),
            Clause::NumThreads(e) => write!(f, "num_threads({e})"),
            Clause::Shared(v) => write!(f, "shared({})", v.join(", ")),
            Clause::Private(v) => write!(f, "private({})", v.join(", ")),
            Clause::UpdateTo(items) => {
                write!(f, "to(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Clause::UpdateFrom(items) => {
                write!(f, "from(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Clause::Nowait => write!(f, "nowait"),
            Clause::Depend { kind, vars } => {
                write!(f, "depend({kind}: {})", vars.join(", "))
            }
        }
    }
}

/// Construct keywords a directive is made of (`parallel target`,
/// `parallel for target distribute`, `halo_exchange`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstructKeyword {
    /// `parallel`
    Parallel,
    /// `for`
    For,
    /// `target`
    Target,
    /// `data`
    Data,
    /// `distribute`
    Distribute,
    /// `teams`
    Teams,
    /// `halo_exchange`
    HaloExchange,
    /// `update` (as in `target update`)
    Update,
}

impl fmt::Display for ConstructKeyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstructKeyword::Parallel => write!(f, "parallel"),
            ConstructKeyword::For => write!(f, "for"),
            ConstructKeyword::Target => write!(f, "target"),
            ConstructKeyword::Data => write!(f, "data"),
            ConstructKeyword::Distribute => write!(f, "distribute"),
            ConstructKeyword::Teams => write!(f, "teams"),
            ConstructKeyword::HaloExchange => write!(f, "halo_exchange"),
            ConstructKeyword::Update => write!(f, "update"),
        }
    }
}

/// A parsed directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// Construct keywords in source order.
    pub constructs: Vec<ConstructKeyword>,
    /// Clauses in source order.
    pub clauses: Vec<Clause>,
    /// Argument of `halo_exchange (var)` if this is that directive.
    pub halo_exchange_var: Option<String>,
}

impl Directive {
    /// Whether the directive is the `parallel target` composite
    /// (concurrent offload to all targets, Section III-4).
    pub fn is_parallel_target(&self) -> bool {
        self.constructs.contains(&ConstructKeyword::Parallel)
            && self.constructs.contains(&ConstructKeyword::Target)
    }

    /// First `device` clause, if any.
    pub fn device(&self) -> Option<&DeviceSpecifier> {
        self.clauses.iter().find_map(|c| match c {
            Clause::Device(d) => Some(d),
            _ => None,
        })
    }

    /// All `map` clauses.
    pub fn maps(&self) -> impl Iterator<Item = &MapClause> {
        self.clauses.iter().filter_map(|c| match c {
            Clause::Map(m) => Some(m),
            _ => None,
        })
    }

    /// First target-level `dist_schedule`, if any.
    pub fn dist_schedule(&self) -> Option<&DistSchedule> {
        self.clauses.iter().find_map(|c| match c {
            Clause::DistSchedule(s) if s.level == ScheduleLevel::Target => Some(s),
            _ => None,
        })
    }

    /// Whether this is a `target data` directive (a structured
    /// device-data region, not an executable offload).
    pub fn is_target_data(&self) -> bool {
        self.constructs.contains(&ConstructKeyword::Target)
            && self.constructs.contains(&ConstructKeyword::Data)
    }

    /// Whether this is a `target update` directive (forced host↔device
    /// refresh inside a data region).
    pub fn is_target_update(&self) -> bool {
        self.constructs.contains(&ConstructKeyword::Target)
            && self.constructs.contains(&ConstructKeyword::Update)
    }

    /// Items of every `to(...)` motion clause (on `target update`).
    pub fn update_to(&self) -> impl Iterator<Item = &MapItem> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::UpdateTo(items) => Some(items.iter()),
                _ => None,
            })
            .flatten()
    }

    /// Items of every `from(...)` motion clause (on `target update`).
    pub fn update_from(&self) -> impl Iterator<Item = &MapItem> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::UpdateFrom(items) => Some(items.iter()),
                _ => None,
            })
            .flatten()
    }

    /// `collapse(n)` argument, defaulting to 1.
    pub fn collapse(&self) -> u64 {
        self.clauses
            .iter()
            .find_map(|c| match c {
                Clause::Collapse(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(1)
    }

    /// Whether the directive carries a `nowait` clause.
    pub fn is_nowait(&self) -> bool {
        self.clauses.iter().any(|c| matches!(c, Clause::Nowait))
    }

    /// Arrays named in `depend(in: …)` and `depend(inout: …)` clauses,
    /// in source order.
    pub fn depends_in(&self) -> impl Iterator<Item = &str> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::Depend { kind: DependKind::In | DependKind::InOut, vars } => {
                    Some(vars.iter().map(String::as_str))
                }
                _ => None,
            })
            .flatten()
    }

    /// Arrays named in `depend(out: …)` and `depend(inout: …)` clauses,
    /// in source order.
    pub fn depends_out(&self) -> impl Iterator<Item = &str> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::Depend { kind: DependKind::Out | DependKind::InOut, vars } => {
                    Some(vars.iter().map(String::as_str))
                }
                _ => None,
            })
            .flatten()
    }
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#pragma omp")?;
        for c in &self.constructs {
            write!(f, " {c}")?;
        }
        if let Some(v) = &self.halo_exchange_var {
            write!(f, " ({v})")?;
        }
        for c in &self.clauses {
            write!(f, " {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval_and_vars() {
        let e = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::Ident("n".into())),
            rhs: Box::new(Expr::Int(2)),
        };
        let mut env = Env::new();
        env.insert("n".into(), 10);
        assert_eq!(e.eval(&env), Ok(5));
        let mut vars = Vec::new();
        e.free_vars(&mut vars);
        assert_eq!(vars, vec!["n".to_string()]);
    }

    #[test]
    fn eval_errors() {
        let unbound = Expr::Ident("missing".into());
        assert_eq!(unbound.eval(&Env::new()), Err(EvalError::Unbound("missing".into())));
        let div0 = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::Int(1)),
            rhs: Box::new(Expr::Int(0)),
        };
        assert_eq!(div0.eval(&Env::new()), Err(EvalError::DivideByZero));
        let ovf = Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(Expr::Int(i64::MAX)),
            rhs: Box::new(Expr::Int(2)),
        };
        assert_eq!(ovf.eval(&Env::new()), Err(EvalError::Overflow));
        let min_by_minus_one = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::Int(i64::MIN)),
            rhs: Box::new(Expr::Int(-1)),
        };
        assert_eq!(min_by_minus_one.eval(&Env::new()), Err(EvalError::Overflow));
    }

    #[test]
    fn display_forms() {
        let sec = ArraySection {
            name: "y".into(),
            dims: vec![SectionDim { start: Expr::Int(0), len: Expr::Ident("n".into()) }],
        };
        assert_eq!(sec.to_string(), "y[0:n]");
        let p = PartitionSpec { dims: vec![(DistPolicy::Block, true)] };
        assert_eq!(p.to_string(), "partition([BLOCK])");
        let h = HaloSpec { widths: vec![Some(1), None] };
        assert_eq!(h.to_string(), "halo(1,)");
        let d = DeviceSpecifier {
            entries: vec![
                DeviceEntry::Range { start: 0, count: Count::N(2), filter: None },
                DeviceEntry::Range {
                    start: 4,
                    count: Count::All,
                    filter: Some("HOMP_DEVICE_NVGPU".into()),
                },
            ],
        };
        assert_eq!(d.to_string(), "device(0:2, 4:*:HOMP_DEVICE_NVGPU)");
        let s = DistSchedule {
            level: ScheduleLevel::Target,
            kind: ScheduleKind::Dynamic { chunk_pct: Some(2) },
            cutoff_pct: Some(15),
        };
        assert_eq!(s.to_string(), "dist_schedule(target:[SCHED_DYNAMIC,2%], CUTOFF(15%))");
    }

    #[test]
    fn directive_accessors() {
        let d = Directive {
            constructs: vec![ConstructKeyword::Parallel, ConstructKeyword::Target],
            clauses: vec![
                Clause::Device(DeviceSpecifier { entries: vec![DeviceEntry::All] }),
                Clause::Collapse(2),
            ],
            halo_exchange_var: None,
        };
        assert!(d.is_parallel_target());
        assert!(d.device().is_some());
        assert_eq!(d.collapse(), 2);
        assert!(d.dist_schedule().is_none());
    }
}
