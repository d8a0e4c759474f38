//! Recursive-descent parser for HOMP directives.
//!
//! Accepts every directive in the paper's listings (Figures 1–3),
//! including the extended `device`, `map … partition … halo`,
//! `distribute dist_schedule(target: …)` and `halo_exchange` forms, and
//! produces the [`crate::ast`] types. Errors carry the byte offset of
//! the offending token.

use crate::ast::*;
use crate::token::{lex, strip_pragma, Token, TokenKind};

/// Parse error with source offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the (pragma-stripped) directive text.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one directive (with or without the `#pragma omp` prefix,
/// line-continuation backslashes allowed).
pub fn parse_directive(src: &str) -> Result<Directive, ParseError> {
    let text = strip_pragma(src);
    let tokens = lex(&text).map_err(|e| ParseError { offset: e.offset, message: e.message })?;
    Parser { tokens, pos: 0 }.directive()
}

/// Parse the evaluation-notation algorithm strings of Table II, e.g.
/// `"SCHED_DYNAMIC,2%"`, `"MODEL_1_AUTO,-1,15%"`,
/// `"SCHED_PROFILE_AUTO,10%,15%"`. Returns the schedule kind and the
/// optional CUTOFF percentage.
pub fn parse_algorithm_notation(src: &str) -> Result<(ScheduleKind, Option<u64>), ParseError> {
    let tokens = lex(src).map_err(|e| ParseError { offset: e.offset, message: e.message })?;
    let mut p = Parser { tokens, pos: 0 };
    let name = p.expect_ident()?;
    let mut first: Option<Option<u64>> = None; // Some(None) = explicit -1
    let mut second: Option<u64> = None;
    if p.eat(&TokenKind::Comma) {
        first = Some(p.notation_param()?);
        if p.eat(&TokenKind::Comma) {
            second = p.notation_param()?;
        }
    }
    p.expect(&TokenKind::Eof)?;
    let chunk = first.flatten();
    let kind = match name {
        "BLOCK" => ScheduleKind::Block,
        "AUTO" => ScheduleKind::Auto,
        "SCHED_DYNAMIC" | "SCED_DYNAMIC" => ScheduleKind::Dynamic { chunk_pct: chunk },
        "SCHED_GUIDED" | "SCED_GUIDED" => ScheduleKind::Guided { chunk_pct: chunk },
        "MODEL_1_AUTO" => ScheduleKind::Model1,
        "MODEL_2_AUTO" => ScheduleKind::Model2,
        "SCHED_PROFILE_AUTO" | "SCED_PROFILE_AUTO" => {
            ScheduleKind::ProfileAuto { sample_pct: chunk }
        }
        "MODEL_PROFILE_AUTO" => ScheduleKind::ModelProfile { sample_pct: chunk },
        "WORK_ASSIST" => ScheduleKind::WorkAssist { min_pct: chunk },
        other => {
            return Err(ParseError { offset: 0, message: format!("unknown algorithm `{other}`") })
        }
    };
    Ok((kind, second))
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> TokenKind<'a> {
        self.tokens[self.pos].kind
    }

    fn peek2(&self) -> TokenKind<'a> {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind<'a> {
        let k = self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == *kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { offset: self.offset(), message }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// An identifier the AST keeps, copied out of the directive text.
    fn expect_name(&mut self) -> Result<String, ParseError> {
        self.expect_ident().map(str::to_string)
    }

    fn expect_int(&mut self) -> Result<u64, ParseError> {
        match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            other => Err(self.err(format!("expected integer, found {other}"))),
        }
    }

    /// Table-II parameter: `N%`, `N`, or `-1` (meaning "unused").
    fn notation_param(&mut self) -> Result<Option<u64>, ParseError> {
        match self.peek() {
            TokenKind::Percent(v) => {
                self.bump();
                Ok(Some(v))
            }
            TokenKind::Int(v) => {
                self.bump();
                Ok(Some(v))
            }
            TokenKind::Minus => {
                self.bump();
                self.expect_int()?;
                Ok(None)
            }
            other => Err(self.err(format!("expected parameter, found {other}"))),
        }
    }

    fn directive(&mut self) -> Result<Directive, ParseError> {
        let mut constructs = Vec::new();
        let mut halo_exchange_var = None;

        // Construct keywords come first, as bare identifiers.
        while let TokenKind::Ident(word) = self.peek() {
            let kw = match word {
                "parallel" => Some(ConstructKeyword::Parallel),
                "for" => Some(ConstructKeyword::For),
                "target" => Some(ConstructKeyword::Target),
                "data" => Some(ConstructKeyword::Data),
                "distribute" => Some(ConstructKeyword::Distribute),
                "teams" => Some(ConstructKeyword::Teams),
                "halo_exchange" => Some(ConstructKeyword::HaloExchange),
                "update" => Some(ConstructKeyword::Update),
                _ => None,
            };
            match kw {
                Some(k) => {
                    self.bump();
                    constructs.push(k);
                    if k == ConstructKeyword::HaloExchange && self.eat(&TokenKind::LParen) {
                        halo_exchange_var = Some(self.expect_name()?);
                        self.expect(&TokenKind::RParen)?;
                    }
                }
                None => break,
            }
        }
        if constructs.is_empty() {
            return Err(self.err("directive must start with a construct keyword".into()));
        }

        let mut clauses = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Ident(word) => {
                    // Construct keywords may appear between clauses (the
                    // paper writes `collapse(2) distribute dist_schedule`).
                    let late_kw = match word {
                        "parallel" => Some(ConstructKeyword::Parallel),
                        "for" => Some(ConstructKeyword::For),
                        "target" => Some(ConstructKeyword::Target),
                        "data" => Some(ConstructKeyword::Data),
                        "distribute" => Some(ConstructKeyword::Distribute),
                        "teams" => Some(ConstructKeyword::Teams),
                        "update" => Some(ConstructKeyword::Update),
                        _ => None,
                    };
                    if let Some(k) = late_kw {
                        self.bump();
                        if !constructs.contains(&k) {
                            constructs.push(k);
                        }
                        continue;
                    }
                    let clause = match word {
                        "device" => self.device_clause()?,
                        "map" => self.map_clause()?,
                        "dist_schedule" => self.dist_schedule_clause()?,
                        "collapse" => self.collapse_clause()?,
                        "reduction" => self.reduction_clause()?,
                        "num_threads" => self.num_threads_clause()?,
                        "shared" => Clause::Shared(self.ident_list_clause()?),
                        "private" => Clause::Private(self.ident_list_clause()?),
                        "nowait" => {
                            self.bump();
                            Clause::Nowait
                        }
                        "depend" => self.depend_clause()?,
                        // `to(...)` / `from(...)` are motion clauses and
                        // only mean something on `target update`; anywhere
                        // else they stay unknown (map directions live
                        // *inside* `map(...)`).
                        "to" if constructs.contains(&ConstructKeyword::Update) => {
                            Clause::UpdateTo(self.update_items()?)
                        }
                        "from" if constructs.contains(&ConstructKeyword::Update) => {
                            Clause::UpdateFrom(self.update_items()?)
                        }
                        other => {
                            return Err(self.err(format!("unknown clause `{other}`")));
                        }
                    };
                    clauses.push(clause);
                }
                other => return Err(self.err(format!("expected a clause, found {other}"))),
            }
        }
        Ok(Directive { constructs, clauses, halo_exchange_var })
    }

    fn device_clause(&mut self) -> Result<Clause, ParseError> {
        self.bump(); // device
        self.expect(&TokenKind::LParen)?;
        let mut entries = Vec::new();
        loop {
            entries.push(self.device_entry()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Clause::Device(DeviceSpecifier { entries }))
    }

    fn device_entry(&mut self) -> Result<DeviceEntry, ParseError> {
        if self.eat(&TokenKind::Star) {
            return Ok(DeviceEntry::All);
        }
        if let TokenKind::Ident(name) = self.peek() {
            // Standard OpenMP `device(devid)`: a scalar variable.
            self.bump();
            return Ok(DeviceEntry::Var(name.to_string()));
        }
        let start = self.expect_int()?;
        let mut count = Count::One;
        let mut filter = None;
        if self.eat(&TokenKind::Colon) {
            match self.peek() {
                TokenKind::Star => {
                    self.bump();
                    count = Count::All;
                }
                TokenKind::Int(v) => {
                    self.bump();
                    count = Count::N(v);
                }
                TokenKind::Ident(_) => {
                    // `0:HOMP_DEVICE_NVGPU` — count omitted, filter given.
                    filter = Some(self.expect_name()?);
                    return Ok(DeviceEntry::Range { start, count, filter });
                }
                other => return Err(self.err(format!("expected count or filter, found {other}"))),
            }
            if self.eat(&TokenKind::Colon) {
                filter = Some(self.expect_name()?);
            }
        }
        Ok(DeviceEntry::Range { start, count, filter })
    }

    fn map_clause(&mut self) -> Result<Clause, ParseError> {
        self.bump(); // map
        self.expect(&TokenKind::LParen)?;
        let dir_word = self.expect_ident()?;
        let dir = match dir_word {
            "to" => MapDir::To,
            "from" => MapDir::From,
            "tofrom" => MapDir::ToFrom,
            "alloc" => MapDir::Alloc,
            other => return Err(self.err(format!("unknown map direction `{other}`"))),
        };
        self.expect(&TokenKind::Colon)?;
        let mut items = Vec::new();
        loop {
            items.push(self.map_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Clause::Map(MapClause { dir, items }))
    }

    /// Item list of a `target update` motion clause: `to(a, b[0:n])`.
    /// Items reuse the map-item grammar (sections allowed, partitions
    /// meaningless but tolerated by the shared parser).
    fn update_items(&mut self) -> Result<Vec<MapItem>, ParseError> {
        self.bump(); // to | from
        self.expect(&TokenKind::LParen)?;
        let mut items = Vec::new();
        loop {
            items.push(self.map_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(items)
    }

    fn map_item(&mut self) -> Result<MapItem, ParseError> {
        let name = self.expect_name()?;
        if self.peek() != TokenKind::LBracket {
            return Ok(MapItem::Scalar(name));
        }
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            let start = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let len = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            dims.push(SectionDim { start, len });
        }
        let mut partition = None;
        let mut halo = None;
        loop {
            match self.peek() {
                TokenKind::Ident("partition") if partition.is_none() => {
                    partition = Some(self.partition_spec()?);
                }
                TokenKind::Ident("halo") if halo.is_none() => {
                    halo = Some(self.halo_spec()?);
                }
                _ => break,
            }
        }
        Ok(MapItem::Array { section: ArraySection { name, dims }, partition, halo })
    }

    fn partition_spec(&mut self) -> Result<PartitionSpec, ParseError> {
        self.bump(); // partition
        self.expect(&TokenKind::LParen)?;
        let mut dims = Vec::new();
        loop {
            let bracketed = self.eat(&TokenKind::LBracket);
            let policy = self.dist_policy()?;
            if bracketed {
                self.expect(&TokenKind::RBracket)?;
            }
            dims.push((policy, bracketed));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(PartitionSpec { dims })
    }

    fn dist_policy(&mut self) -> Result<DistPolicy, ParseError> {
        let name = self.expect_ident()?;
        match name {
            "FULL" => Ok(DistPolicy::Full),
            "BLOCK" => Ok(DistPolicy::Block),
            "AUTO" => Ok(DistPolicy::Auto),
            "ALIGN" => {
                self.expect(&TokenKind::LParen)?;
                let target = self.expect_name()?;
                let ratio = if self.eat(&TokenKind::Comma) { self.expect_int()? } else { 1 };
                self.expect(&TokenKind::RParen)?;
                Ok(DistPolicy::Align { target, ratio })
            }
            other => Err(self.err(format!("unknown distribution policy `{other}`"))),
        }
    }

    fn halo_spec(&mut self) -> Result<HaloSpec, ParseError> {
        self.bump(); // halo
        self.expect(&TokenKind::LParen)?;
        let mut widths = Vec::new();
        if self.peek() != TokenKind::RParen {
            loop {
                match self.peek() {
                    TokenKind::Int(v) => {
                        self.bump();
                        widths.push(Some(v));
                    }
                    _ => widths.push(None),
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
                // `halo(1,)` — a trailing comma adds an empty width.
                if self.peek() == TokenKind::RParen {
                    widths.push(None);
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(HaloSpec { widths })
    }

    fn dist_schedule_clause(&mut self) -> Result<Clause, ParseError> {
        self.bump(); // dist_schedule
        self.expect(&TokenKind::LParen)?;
        let level_word = self.expect_ident()?;
        let level = match level_word {
            "target" => ScheduleLevel::Target,
            "teams" => ScheduleLevel::Teams,
            other => return Err(self.err(format!("unknown schedule level `{other}`"))),
        };
        self.expect(&TokenKind::Colon)?;
        let bracketed = self.eat(&TokenKind::LBracket);
        let kind = self.schedule_kind(bracketed)?;
        if bracketed {
            self.expect(&TokenKind::RBracket)?;
        }
        let mut cutoff_pct = None;
        if self.eat(&TokenKind::Comma) {
            match self.peek() {
                TokenKind::Ident("CUTOFF") => {
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    cutoff_pct = Some(self.expect_pct()?);
                    self.expect(&TokenKind::RParen)?;
                }
                TokenKind::Percent(v) => {
                    self.bump();
                    cutoff_pct = Some(v);
                }
                other => return Err(self.err(format!("expected CUTOFF, found {other}"))),
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Clause::DistSchedule(DistSchedule { level, kind, cutoff_pct }))
    }

    fn expect_pct(&mut self) -> Result<u64, ParseError> {
        match self.peek() {
            TokenKind::Percent(v) => {
                self.bump();
                Ok(v)
            }
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            other => Err(self.err(format!("expected percentage, found {other}"))),
        }
    }

    fn schedule_kind(&mut self, in_brackets: bool) -> Result<ScheduleKind, ParseError> {
        let name = self.expect_ident()?;
        let trailing_pct = |p: &mut Self| -> Result<Option<u64>, ParseError> {
            if in_brackets
                && p.peek() == TokenKind::Comma
                && matches!(p.peek2(), TokenKind::Percent(_) | TokenKind::Int(_))
            {
                p.bump();
                Ok(Some(p.expect_pct()?))
            } else {
                Ok(None)
            }
        };
        match name {
            "BLOCK" => Ok(ScheduleKind::Block),
            "AUTO" => Ok(ScheduleKind::Auto),
            "ALIGN" => {
                self.expect(&TokenKind::LParen)?;
                let target = self.expect_name()?;
                let ratio = if self.eat(&TokenKind::Comma) { self.expect_int()? } else { 1 };
                self.expect(&TokenKind::RParen)?;
                Ok(ScheduleKind::Align { target, ratio })
            }
            "SCHED_DYNAMIC" | "SCED_DYNAMIC" => {
                Ok(ScheduleKind::Dynamic { chunk_pct: trailing_pct(self)? })
            }
            "SCHED_GUIDED" | "SCED_GUIDED" => {
                Ok(ScheduleKind::Guided { chunk_pct: trailing_pct(self)? })
            }
            "MODEL_1_AUTO" => Ok(ScheduleKind::Model1),
            "MODEL_2_AUTO" => Ok(ScheduleKind::Model2),
            "SCHED_PROFILE_AUTO" | "SCED_PROFILE_AUTO" => {
                Ok(ScheduleKind::ProfileAuto { sample_pct: trailing_pct(self)? })
            }
            "MODEL_PROFILE_AUTO" => {
                Ok(ScheduleKind::ModelProfile { sample_pct: trailing_pct(self)? })
            }
            "WORK_ASSIST" => Ok(ScheduleKind::WorkAssist { min_pct: trailing_pct(self)? }),
            other => Err(self.err(format!("unknown schedule kind `{other}`"))),
        }
    }

    fn collapse_clause(&mut self) -> Result<Clause, ParseError> {
        self.bump(); // collapse
        self.expect(&TokenKind::LParen)?;
        let n = self.expect_int()?;
        self.expect(&TokenKind::RParen)?;
        if n == 0 {
            return Err(self.err("collapse depth must be at least 1".into()));
        }
        Ok(Clause::Collapse(n))
    }

    fn reduction_clause(&mut self) -> Result<Clause, ParseError> {
        self.bump(); // reduction
        self.expect(&TokenKind::LParen)?;
        let op = match self.bump() {
            TokenKind::Plus => ReductionOp::Sum,
            TokenKind::Star => ReductionOp::Prod,
            TokenKind::Ident("max") => ReductionOp::Max,
            TokenKind::Ident("min") => ReductionOp::Min,
            other => return Err(self.err(format!("unknown reduction operator {other}"))),
        };
        self.expect(&TokenKind::Colon)?;
        let mut vars = vec![self.expect_name()?];
        while self.eat(&TokenKind::Comma) {
            vars.push(self.expect_name()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Clause::Reduction { op, vars })
    }

    /// `depend(in: a, b)` / `depend(out: c)` / `depend(inout: d)`.
    fn depend_clause(&mut self) -> Result<Clause, ParseError> {
        self.bump(); // depend
        self.expect(&TokenKind::LParen)?;
        let kind_word = self.expect_ident()?;
        let kind = match kind_word {
            "in" => DependKind::In,
            "out" => DependKind::Out,
            "inout" => DependKind::InOut,
            other => return Err(self.err(format!("unknown depend kind `{other}`"))),
        };
        self.expect(&TokenKind::Colon)?;
        let mut vars = vec![self.expect_name()?];
        while self.eat(&TokenKind::Comma) {
            vars.push(self.expect_name()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Clause::Depend { kind, vars })
    }

    fn num_threads_clause(&mut self) -> Result<Clause, ParseError> {
        self.bump(); // num_threads
        self.expect(&TokenKind::LParen)?;
        let e = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Clause::NumThreads(e))
    }

    fn ident_list_clause(&mut self) -> Result<Vec<String>, ParseError> {
        self.bump(); // shared / private
        self.expect(&TokenKind::LParen)?;
        let mut vars = vec![self.expect_name()?];
        while self.eat(&TokenKind::Comma) {
            vars.push(self.expect_name()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(vars)
    }

    // expr := term (("+"|"-") term)*
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.term()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    // term := factor (("*"|"/") factor)*
    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.factor()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            TokenKind::Int(v) => {
                let v = i64::try_from(v)
                    .map_err(|_| self.err("integer literal overflows i64".into()))?;
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::Ident(n) => {
                self.bump();
                Ok(Expr::Ident(n.to_string()))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_axpy_homp_v1_map() {
        let d = parse_directive(
            "#pragma omp parallel target device (*) \
             map(tofrom: y[0:n] partition([BLOCK])) \
             map(to: x[0:n] partition([BLOCK]),a,n)",
        )
        .unwrap();
        assert!(d.is_parallel_target());
        assert_eq!(d.device().unwrap().entries, vec![DeviceEntry::All]);
        let maps: Vec<_> = d.maps().collect();
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].dir, MapDir::ToFrom);
        assert_eq!(maps[1].items.len(), 3);
        match &maps[1].items[0] {
            MapItem::Array { section, partition, halo } => {
                assert_eq!(section.name, "x");
                assert_eq!(section.dims.len(), 1);
                assert_eq!(partition.as_ref().unwrap().dims, vec![(DistPolicy::Block, true)]);
                assert!(halo.is_none());
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(maps[1].items[1], MapItem::Scalar("a".into()));
    }

    #[test]
    fn parses_nowait_and_depend() {
        let d = parse_directive(
            "#pragma omp parallel for target device(*) nowait \
             depend(in: u) depend(out: unew, resid) depend(inout: scratch)",
        )
        .unwrap();
        assert!(d.is_nowait());
        let ins: Vec<_> = d.depends_in().collect();
        let outs: Vec<_> = d.depends_out().collect();
        assert_eq!(ins, ["u", "scratch"]);
        assert_eq!(outs, ["unew", "resid", "scratch"]);
        // Canonical form round-trips through the parser.
        let printed = d.to_string();
        let again = parse_directive(&printed).unwrap();
        assert_eq!(d, again);
    }

    #[test]
    fn depend_without_nowait_and_vice_versa() {
        let d = parse_directive("target nowait").unwrap();
        assert!(d.is_nowait());
        assert_eq!(d.depends_in().count(), 0);
        let d = parse_directive("target depend(in: a)").unwrap();
        assert!(!d.is_nowait());
        assert_eq!(d.depends_in().collect::<Vec<_>>(), ["a"]);
    }

    #[test]
    fn rejects_unknown_depend_kind() {
        let err = parse_directive("target depend(sideways: a)").unwrap_err();
        assert!(err.message.contains("depend kind"), "{err}");
    }

    #[test]
    fn parses_dist_schedule_align() {
        let d =
            parse_directive("#pragma omp parallel for distribute dist_schedule(target:[ALIGN(x)])")
                .unwrap();
        let s = d.dist_schedule().unwrap();
        assert_eq!(s.level, ScheduleLevel::Target);
        assert_eq!(s.kind, ScheduleKind::Align { target: "x".into(), ratio: 1 });
    }

    #[test]
    fn parses_dist_schedule_auto_with_cutoff() {
        let d = parse_directive(
            "parallel for target distribute dist_schedule(target:[AUTO], CUTOFF(15%))",
        )
        .unwrap();
        let s = d.dist_schedule().unwrap();
        assert_eq!(s.kind, ScheduleKind::Auto);
        assert_eq!(s.cutoff_pct, Some(15));
    }

    #[test]
    fn parses_dynamic_with_chunk() {
        let d = parse_directive(
            "parallel for target distribute dist_schedule(target:[SCHED_DYNAMIC,2%])",
        )
        .unwrap();
        assert_eq!(d.dist_schedule().unwrap().kind, ScheduleKind::Dynamic { chunk_pct: Some(2) });
    }

    #[test]
    fn parses_jacobi_data_directive() {
        let d = parse_directive(
            "#pragma omp parallel target data device(*) \
             map(to:n, m, omega, ax, ay, b, \
               f[0:n][0:m] partition([ALIGN(loop1)], FULL)) \
             map(tofrom:u[0:n][0:m] partition([ALIGN(loop1)], FULL)) \
             map(alloc:uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
        )
        .unwrap();
        assert!(d.constructs.contains(&ConstructKeyword::Data));
        let maps: Vec<_> = d.maps().collect();
        assert_eq!(maps.len(), 3);
        assert_eq!(maps[0].items.len(), 7);
        match &maps[2].items[0] {
            MapItem::Array { section, partition, halo } => {
                assert_eq!(section.name, "uold");
                assert_eq!(section.dims.len(), 2);
                let p = partition.as_ref().unwrap();
                assert_eq!(p.dims.len(), 2);
                assert_eq!(
                    p.dims[0],
                    (DistPolicy::Align { target: "loop1".into(), ratio: 1 }, true)
                );
                assert_eq!(p.dims[1], (DistPolicy::Full, false));
                assert_eq!(halo.as_ref().unwrap().widths, vec![Some(1), None]);
            }
            other => panic!("expected uold array, got {other:?}"),
        }
    }

    #[test]
    fn parses_target_update() {
        let d = parse_directive("#pragma omp target update to(u[0:n][0:m], f) from(uold)").unwrap();
        assert!(d.is_target_update());
        let to: Vec<_> = d.update_to().collect();
        assert_eq!(to.len(), 2);
        match to[0] {
            MapItem::Array { section, .. } => assert_eq!(section.name, "u"),
            other => panic!("expected array item, got {other:?}"),
        }
        assert_eq!(to[1], &MapItem::Scalar("f".into()));
        let from: Vec<_> = d.update_from().collect();
        assert_eq!(from, vec![&MapItem::Scalar("uold".into())]);
        // Display round-trips through the parser.
        let again = parse_directive(&d.to_string()).unwrap();
        assert_eq!(again, d);
    }

    #[test]
    fn to_from_clauses_rejected_outside_update() {
        let err = parse_directive("#pragma omp target to(u)").unwrap_err();
        assert!(err.to_string().contains("unknown clause"), "{err}");
    }

    #[test]
    fn parses_halo_exchange() {
        let d = parse_directive("#pragma omp halo_exchange (uold)").unwrap();
        assert_eq!(d.constructs, vec![ConstructKeyword::HaloExchange]);
        assert_eq!(d.halo_exchange_var, Some("uold".into()));
    }

    #[test]
    fn parses_collapse_and_reduction() {
        let d = parse_directive(
            "#pragma omp parallel for target device(*) collapse(2) \
             reduction(+:error) distribute dist_schedule(target:[AUTO])",
        )
        .unwrap();
        assert_eq!(d.collapse(), 2);
        assert!(d
            .clauses
            .iter()
            .any(|c| matches!(c, Clause::Reduction { op: ReductionOp::Sum, vars } if vars == &["error".to_string()])));
    }

    #[test]
    fn parses_device_specifier_forms() {
        let forms: &[(&str, usize)] = &[
            ("device(0:*)", 1),
            ("device(0, 2, 3, 5)", 4),
            ("device(0:2, 4:2)", 2),
            ("device(0:*:HOMP_DEVICE_NVGPU)", 1),
        ];
        for (src, n) in forms {
            let d = parse_directive(&format!("target {src}")).unwrap();
            assert_eq!(d.device().unwrap().entries.len(), *n, "{src}");
        }
        let d = parse_directive("target device(0:2, 4:2)").unwrap();
        assert_eq!(
            d.device().unwrap().entries[1],
            DeviceEntry::Range { start: 4, count: Count::N(2), filter: None }
        );
    }

    #[test]
    fn parses_expressions_in_sections() {
        let d = parse_directive("target map(to: y[start:size/2+1])").unwrap();
        let m = d.maps().next().unwrap();
        match &m.items[0] {
            MapItem::Array { section, .. } => {
                let dim = &section.dims[0];
                let mut env = Env::new();
                env.insert("start".into(), 4);
                env.insert("size".into(), 10);
                assert_eq!(dim.start.eval(&env), Ok(4));
                assert_eq!(dim.len.eval(&env), Ok(6));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_directive("parallel for floop(3)").unwrap_err();
        assert!(err.message.contains("floop"));
        assert!(err.offset > 0);
    }

    #[test]
    fn rejects_empty_directive() {
        assert!(parse_directive("#pragma omp").is_err());
    }

    #[test]
    fn rejects_collapse_zero() {
        assert!(parse_directive("parallel for collapse(0)").is_err());
    }

    #[test]
    fn rejects_unknown_map_direction() {
        let err = parse_directive("target map(upward: x)").unwrap_err();
        assert!(err.message.contains("upward"));
    }

    #[test]
    fn table_ii_notations_parse() {
        let cases: &[(&str, ScheduleKind, Option<u64>)] = &[
            ("BLOCK", ScheduleKind::Block, None),
            ("SCED_DYNAMIC,2%", ScheduleKind::Dynamic { chunk_pct: Some(2) }, None),
            ("SCED_GUIDED,20%", ScheduleKind::Guided { chunk_pct: Some(20) }, None),
            ("MODEL_1_AUTO,-1,15%", ScheduleKind::Model1, Some(15)),
            ("MODEL_2_AUTO,-1,15%", ScheduleKind::Model2, Some(15)),
            (
                "SCED_PROFILE_AUTO,10%,15%",
                ScheduleKind::ProfileAuto { sample_pct: Some(10) },
                Some(15),
            ),
            (
                "MODEL_PROFILE_AUTO,10%,15%",
                ScheduleKind::ModelProfile { sample_pct: Some(10) },
                Some(15),
            ),
            ("WORK_ASSIST", ScheduleKind::WorkAssist { min_pct: None }, None),
            ("WORK_ASSIST,5%,15%", ScheduleKind::WorkAssist { min_pct: Some(5) }, Some(15)),
        ];
        for (src, kind, cutoff) in cases {
            let (k, c) = parse_algorithm_notation(src).unwrap();
            assert_eq!(&k, kind, "{src}");
            assert_eq!(&c, cutoff, "{src}");
        }
    }

    #[test]
    fn roundtrip_canonical_display() {
        let sources = [
            "#pragma omp parallel target device(*) map(tofrom: y[0:n] partition([BLOCK]))",
            "#pragma omp parallel for distribute dist_schedule(target:[AUTO])",
            "#pragma omp parallel for target device(0:2, 4:*:HOMP_DEVICE_NVGPU) collapse(2) reduction(+:error) distribute dist_schedule(target:[SCHED_DYNAMIC,2%], CUTOFF(15%))",
            "#pragma omp parallel for distribute dist_schedule(target:[WORK_ASSIST,5%], CUTOFF(15%))",
            "#pragma omp halo_exchange (uold)",
            "#pragma omp parallel target data device(*) map(alloc: uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
        ];
        for src in sources {
            let d1 = parse_directive(src).unwrap();
            let printed = d1.to_string();
            let d2 = parse_directive(&printed)
                .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
            assert_eq!(d1, d2, "roundtrip mismatch for `{src}`");
        }
    }
}

#[cfg(test)]
mod expr_tests {
    use super::*;

    fn eval_section_len(src: &str, env: &Env) -> i64 {
        let d = parse_directive(&format!("target map(to: x[0:{src}])")).unwrap();
        let m = d.maps().next().unwrap().clone();
        match &m.items[0] {
            MapItem::Array { section, .. } => section.dims[0].len.eval(env).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let env = Env::new();
        assert_eq!(eval_section_len("2+3*4", &env), 14);
        assert_eq!(eval_section_len("2*3+4", &env), 10);
        assert_eq!(eval_section_len("(2+3)*4", &env), 20);
    }

    #[test]
    fn left_associative_division() {
        let env = Env::new();
        assert_eq!(eval_section_len("100/5/2", &env), 10);
        assert_eq!(eval_section_len("100-20-30", &env), 50);
    }

    #[test]
    fn mixed_variables_and_parens() {
        let mut env = Env::new();
        env.insert("n".into(), 12);
        env.insert("m".into(), 5);
        assert_eq!(eval_section_len("(n+m)*2-n/3", &env), 30);
    }

    #[test]
    fn nested_parens() {
        let env = Env::new();
        assert_eq!(eval_section_len("((((7))))", &env), 7);
    }

    #[test]
    fn overflowing_quotient_is_a_typed_error() {
        let d = parse_directive("target map(to: x[0:(0-9223372036854775807-1)/(0-1)])").unwrap();
        let m = d.maps().next().unwrap();
        match &m.items[0] {
            MapItem::Array { section, .. } => {
                assert_eq!(section.dims[0].len.eval(&Env::new()), Err(EvalError::Overflow));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn literal_above_i64_max_is_a_parse_error() {
        for big in ["18446744073709551615", "9223372036854775808"] {
            let err = parse_directive(&format!("target map(to: x[0:{big}])")).unwrap_err();
            assert_eq!(err.offset, 19, "{big}");
            assert_eq!(err.message, "integer literal overflows i64", "{big}");
        }
        assert_eq!(eval_section_len("9223372036854775807", &Env::new()), i64::MAX);
    }

    #[test]
    fn expr_display_parenthesizes_unambiguously() {
        let d = parse_directive("target map(to: x[0:a+b*c])").unwrap();
        let printed = d.to_string();
        let d2 = parse_directive(&printed).unwrap();
        assert_eq!(d, d2, "printed form `{printed}` must reparse identically");
    }
}
