//! `parse_directive` and `parse_algorithm_notation` against a verbatim
//! copy of the lexer and parser whose tokens own their text (a `String`
//! per identifier, cloned again on each peek and bump).
//!
//! Every input here is parsed by both. The results must be equal: ASTs
//! by `==`, errors in offset and message. The inputs:
//! - every directive string in the repository's tests, examples, bench
//!   bins and docs, with the format strings among them expanded;
//! - directive_grid's data, loop and chain-stage directives, rebuilt from
//!   the benchmark's format strings;
//! - every prefix of each of those, and each with one byte replaced by
//!   each of [`REPLACEMENTS`], so that the error paths are covered;
//! - generated word lists, valid and invalid;
//! - `parse_algorithm_notation` over every Table II notation, its
//!   prefixes and replacements.
//!
//! Tokens now borrow the directive text, so parsing allocates little more
//! than the AST keeps; a counting global allocator caps what one parse of
//! directive_grid's axpy data directive may allocate.

use homp_lang::{parse_algorithm_notation, parse_directive};
use proptest::prelude::*;
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

/// Allocations and reallocations one parse of the axpy data directive
/// may make: the token buffer and its growth, plus the AST's vectors and
/// names.
const AXPY_ALLOCATION_CAP: u64 = 25;

mod reference {
    use homp_lang::ast::*;
    use homp_lang::ParseError;

    /// A lexical token with its byte offset in the source.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Token {
        /// What kind of token.
        pub kind: TokenKind,
        /// Byte offset of the first character, for error messages.
        pub offset: usize,
    }

    /// Token kinds.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TokenKind {
        /// Identifier or keyword: `parallel`, `map`, `tofrom`, `BLOCK`, …
        Ident(String),
        /// Unsigned integer literal.
        Int(u64),
        /// Integer percentage, e.g. `15%` (used by schedule parameters).
        Percent(u64),
        /// `(`
        LParen,
        /// `)`
        RParen,
        /// `[`
        LBracket,
        /// `]`
        RBracket,
        /// `,`
        Comma,
        /// `:`
        Colon,
        /// `*`
        Star,
        /// `+`
        Plus,
        /// `-`
        Minus,
        /// `/`
        Slash,
        /// End of input.
        Eof,
    }

    impl std::fmt::Display for TokenKind {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
                TokenKind::Int(v) => write!(f, "integer `{v}`"),
                TokenKind::Percent(v) => write!(f, "percentage `{v}%`"),
                TokenKind::LParen => write!(f, "`(`"),
                TokenKind::RParen => write!(f, "`)`"),
                TokenKind::LBracket => write!(f, "`[`"),
                TokenKind::RBracket => write!(f, "`]`"),
                TokenKind::Comma => write!(f, "`,`"),
                TokenKind::Colon => write!(f, "`:`"),
                TokenKind::Star => write!(f, "`*`"),
                TokenKind::Plus => write!(f, "`+`"),
                TokenKind::Minus => write!(f, "`-`"),
                TokenKind::Slash => write!(f, "`/`"),
                TokenKind::Eof => write!(f, "end of directive"),
            }
        }
    }

    /// Lexing error.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LexError {
        /// Byte offset of the offending character.
        pub offset: usize,
        /// Description.
        pub message: String,
    }

    impl std::fmt::Display for LexError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "lex error at byte {}: {}", self.offset, self.message)
        }
    }

    impl std::error::Error for LexError {}

    /// Strip an optional `#pragma omp` (or `#pragma homp`) prefix and
    /// line-continuation backslashes, returning the clause text.
    pub fn strip_pragma(src: &str) -> String {
        let joined: String = src.replace("\\\n", " ").replace('\\', " ");
        let trimmed = joined.trim();
        let without = trimmed
            .strip_prefix("#pragma")
            .map(str::trim_start)
            .map(|rest| {
                rest.strip_prefix("omp")
                    .or_else(|| rest.strip_prefix("homp"))
                    .map(str::trim_start)
                    .unwrap_or(rest)
            })
            .unwrap_or(trimmed);
        without.to_string()
    }

    /// Tokenize directive text (after [`strip_pragma`]).
    pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
        let bytes = src.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            let start = i;
            match c {
                ' ' | '\t' | '\n' | '\r' => {
                    i += 1;
                }
                '(' => {
                    out.push(Token { kind: TokenKind::LParen, offset: start });
                    i += 1;
                }
                ')' => {
                    out.push(Token { kind: TokenKind::RParen, offset: start });
                    i += 1;
                }
                '[' => {
                    out.push(Token { kind: TokenKind::LBracket, offset: start });
                    i += 1;
                }
                ']' => {
                    out.push(Token { kind: TokenKind::RBracket, offset: start });
                    i += 1;
                }
                ',' => {
                    out.push(Token { kind: TokenKind::Comma, offset: start });
                    i += 1;
                }
                ':' => {
                    out.push(Token { kind: TokenKind::Colon, offset: start });
                    i += 1;
                }
                '*' => {
                    out.push(Token { kind: TokenKind::Star, offset: start });
                    i += 1;
                }
                '+' => {
                    out.push(Token { kind: TokenKind::Plus, offset: start });
                    i += 1;
                }
                '-' => {
                    out.push(Token { kind: TokenKind::Minus, offset: start });
                    i += 1;
                }
                '/' => {
                    out.push(Token { kind: TokenKind::Slash, offset: start });
                    i += 1;
                }
                '0'..='9' => {
                    let mut v: u64 = 0;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        v = v
                            .checked_mul(10)
                            .and_then(|v| v.checked_add((bytes[i] - b'0') as u64))
                            .ok_or(LexError {
                                offset: start,
                                message: "integer literal overflows u64".into(),
                            })?;
                        i += 1;
                    }
                    if i < bytes.len() && bytes[i] == b'%' {
                        i += 1;
                        out.push(Token { kind: TokenKind::Percent(v), offset: start });
                    } else {
                        out.push(Token { kind: TokenKind::Int(v), offset: start });
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    out.push(Token {
                        kind: TokenKind::Ident(src[start..i].to_string()),
                        offset: start,
                    });
                }
                _ => {
                    // Every arm above consumes ASCII, so `start` is a char
                    // boundary: name the whole character, not its first byte.
                    let other = src[start..].chars().next().unwrap_or_default();
                    return Err(LexError {
                        offset: start,
                        message: format!("unexpected character `{other}`"),
                    });
                }
            }
        }
        out.push(Token { kind: TokenKind::Eof, offset: bytes.len() });
        Ok(out)
    }

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
        let kind = match name.as_str() {
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
                return Err(ParseError {
                    offset: 0,
                    message: format!("unknown algorithm `{other}`"),
                })
            }
        };
        Ok((kind, second))
    }

    struct Parser {
        tokens: Vec<Token>,
        pos: usize,
    }

    impl Parser {
        fn peek(&self) -> &TokenKind {
            &self.tokens[self.pos].kind
        }

        fn peek2(&self) -> &TokenKind {
            &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
        }

        fn offset(&self) -> usize {
            self.tokens[self.pos].offset
        }

        fn bump(&mut self) -> TokenKind {
            let k = self.tokens[self.pos].kind.clone();
            if self.pos + 1 < self.tokens.len() {
                self.pos += 1;
            }
            k
        }

        fn eat(&mut self, kind: &TokenKind) -> bool {
            if self.peek() == kind {
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

        fn expect_ident(&mut self) -> Result<String, ParseError> {
            match self.peek().clone() {
                TokenKind::Ident(s) => {
                    self.bump();
                    Ok(s)
                }
                other => Err(self.err(format!("expected identifier, found {other}"))),
            }
        }

        fn expect_int(&mut self) -> Result<u64, ParseError> {
            match *self.peek() {
                TokenKind::Int(v) => {
                    self.bump();
                    Ok(v)
                }
                ref other => Err(self.err(format!("expected integer, found {other}"))),
            }
        }

        /// Table-II parameter: `N%`, `N`, or `-1` (meaning "unused").
        fn notation_param(&mut self) -> Result<Option<u64>, ParseError> {
            match *self.peek() {
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
                ref other => Err(self.err(format!("expected parameter, found {other}"))),
            }
        }

        fn directive(&mut self) -> Result<Directive, ParseError> {
            let mut constructs = Vec::new();
            let mut halo_exchange_var = None;

            // Construct keywords come first, as bare identifiers.
            while let TokenKind::Ident(word) = self.peek().clone() {
                let kw = match word.as_str() {
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
                            halo_exchange_var = Some(self.expect_ident()?);
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
                match self.peek().clone() {
                    TokenKind::Eof => break,
                    TokenKind::Ident(word) => {
                        // Construct keywords may appear between clauses (the
                        // paper writes `collapse(2) distribute dist_schedule`).
                        let late_kw = match word.as_str() {
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
                        let clause = match word.as_str() {
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
            if let TokenKind::Ident(name) = self.peek().clone() {
                // Standard OpenMP `device(devid)`: a scalar variable.
                self.bump();
                return Ok(DeviceEntry::Var(name));
            }
            let start = self.expect_int()?;
            let mut count = Count::One;
            let mut filter = None;
            if self.eat(&TokenKind::Colon) {
                match self.peek().clone() {
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
                        filter = Some(self.expect_ident()?);
                        return Ok(DeviceEntry::Range { start, count, filter });
                    }
                    other => {
                        return Err(self.err(format!("expected count or filter, found {other}")))
                    }
                }
                if self.eat(&TokenKind::Colon) {
                    filter = Some(self.expect_ident()?);
                }
            }
            Ok(DeviceEntry::Range { start, count, filter })
        }

        fn map_clause(&mut self) -> Result<Clause, ParseError> {
            self.bump(); // map
            self.expect(&TokenKind::LParen)?;
            let dir_word = self.expect_ident()?;
            let dir = match dir_word.as_str() {
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
            let name = self.expect_ident()?;
            if *self.peek() != TokenKind::LBracket {
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
                match self.peek().clone() {
                    TokenKind::Ident(w) if w == "partition" && partition.is_none() => {
                        partition = Some(self.partition_spec()?);
                    }
                    TokenKind::Ident(w) if w == "halo" && halo.is_none() => {
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
            match name.as_str() {
                "FULL" => Ok(DistPolicy::Full),
                "BLOCK" => Ok(DistPolicy::Block),
                "AUTO" => Ok(DistPolicy::Auto),
                "ALIGN" => {
                    self.expect(&TokenKind::LParen)?;
                    let target = self.expect_ident()?;
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
            if *self.peek() != TokenKind::RParen {
                loop {
                    match *self.peek() {
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
                    if *self.peek() == TokenKind::RParen {
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
            let level = match level_word.as_str() {
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
                match self.peek().clone() {
                    TokenKind::Ident(w) if w == "CUTOFF" => {
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
            match *self.peek() {
                TokenKind::Percent(v) => {
                    self.bump();
                    Ok(v)
                }
                TokenKind::Int(v) => {
                    self.bump();
                    Ok(v)
                }
                ref other => Err(self.err(format!("expected percentage, found {other}"))),
            }
        }

        fn schedule_kind(&mut self, in_brackets: bool) -> Result<ScheduleKind, ParseError> {
            let name = self.expect_ident()?;
            let trailing_pct = |p: &mut Self| -> Result<Option<u64>, ParseError> {
                if in_brackets
                    && *p.peek() == TokenKind::Comma
                    && matches!(p.peek2(), TokenKind::Percent(_) | TokenKind::Int(_))
                {
                    p.bump();
                    Ok(Some(p.expect_pct()?))
                } else {
                    Ok(None)
                }
            };
            match name.as_str() {
                "BLOCK" => Ok(ScheduleKind::Block),
                "AUTO" => Ok(ScheduleKind::Auto),
                "ALIGN" => {
                    self.expect(&TokenKind::LParen)?;
                    let target = self.expect_ident()?;
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
                TokenKind::Ident(w) if w == "max" => ReductionOp::Max,
                TokenKind::Ident(w) if w == "min" => ReductionOp::Min,
                other => return Err(self.err(format!("unknown reduction operator {other}"))),
            };
            self.expect(&TokenKind::Colon)?;
            let mut vars = vec![self.expect_ident()?];
            while self.eat(&TokenKind::Comma) {
                vars.push(self.expect_ident()?);
            }
            self.expect(&TokenKind::RParen)?;
            Ok(Clause::Reduction { op, vars })
        }

        /// `depend(in: a, b)` / `depend(out: c)` / `depend(inout: d)`.
        fn depend_clause(&mut self) -> Result<Clause, ParseError> {
            self.bump(); // depend
            self.expect(&TokenKind::LParen)?;
            let kind_word = self.expect_ident()?;
            let kind = match kind_word.as_str() {
                "in" => DependKind::In,
                "out" => DependKind::Out,
                "inout" => DependKind::InOut,
                other => return Err(self.err(format!("unknown depend kind `{other}`"))),
            };
            self.expect(&TokenKind::Colon)?;
            let mut vars = vec![self.expect_ident()?];
            while self.eat(&TokenKind::Comma) {
                vars.push(self.expect_ident()?);
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
            let mut vars = vec![self.expect_ident()?];
            while self.eat(&TokenKind::Comma) {
                vars.push(self.expect_ident()?);
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
            match self.peek().clone() {
                TokenKind::Int(v) => {
                    let v = i64::try_from(v)
                        .map_err(|_| self.err("integer literal overflows i64".into()))?;
                    self.bump();
                    Ok(Expr::Int(v))
                }
                TokenKind::Ident(n) => {
                    self.bump();
                    Ok(Expr::Ident(n))
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
}

/// Directive strings found in the repository, by file.
const CORPUS: &[&str] = &[
    // tests/end_to_end.rs
    "#pragma omp parallel target device(*) map(tofrom: y[0:n] partition([ALIGN(loop)])) map(to: x[0:n] partition([ALIGN(loop)]), a, n)",
    "#pragma omp parallel for distribute dist_schedule(target:[AUTO])",
    "parallel target device(*)",
    "target device(*)",
    "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])",
    "#pragma omp parallel target device(*) map(to: x[0:n] partition([ALIGN(loop)]))",
    "#pragma omp parallel for distribute dist_schedule(target:[MODEL_2_AUTO], CUTOFF(15%))",
    // tests/data_region.rs
    "#pragma omp parallel target data device(*) map(tofrom: y[0:n] partition([ALIGN(loop)])) map(to: x[0:n] partition([ALIGN(loop)]), a, n)",
    // examples/pipeline.rs
    "#pragma omp parallel target device(*) map(to: smooth[0:n] partition([ALIGN(loop)]), n) map(from: partial[0:n] partition([ALIGN(loop)]))",
    "#pragma omp parallel target data device(*) map(to: grid[0:n] partition([ALIGN(loop)]) halo(1), n) map(tofrom: smooth[0:n] partition([ALIGN(loop)]))",
    // examples/quickstart.rs
    "#pragma omp parallel target device (*) map(tofrom: y[0:n] partition([BLOCK])) map(to: x[0:n] partition([BLOCK]),a,n)",
    "#pragma omp parallel for distribute dist_schedule(target:[ALIGN(x)])",
    "#pragma omp parallel target device (*) map(tofrom: y[0:n] partition([ALIGN(loop)])) map(to: x[0:n] partition([ALIGN(loop)]),a,n)",
    "#pragma omp parallel target device(0:*:HOMP_DEVICE_NVGPU) map(tofrom: y[0:n] partition([ALIGN(loop)])) map(to: x[0:n] partition([ALIGN(loop)]),a,n)",
    "#pragma omp parallel for distribute dist_schedule(target:[SCHED_DYNAMIC,2%])",
    // examples/directive_tour.rs
    "#pragma omp parallel target data device(*) map(to:n, m, omega, ax, ay, b, f[0:n][0:m] partition([ALIGN(loop1)], FULL)) map(tofrom:u[0:n][0:m] partition([ALIGN(loop1)], FULL)) map(alloc:uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
    "#pragma omp halo_exchange (uold)",
    "#pragma omp parallel for target device(*) reduction(+:error) distribute dist_schedule(target:[AUTO])",
    "#pragma omp parallel for target device(*) nowait depend(in: u) depend(out: unew) map(to: u[0:n] partition([ALIGN(loop)]), n) map(tofrom: unew[0:n] partition([ALIGN(loop)])) distribute dist_schedule(target:[BLOCK])",
    "parallel for target frobnicate(3)",
    // examples/observability.rs
    "#pragma omp parallel target device(*) map(tofrom: y[0:n] partition([ALIGN(loop)])) map(to: x[0:n] partition([ALIGN(loop)]),a,n)",
    // crates/homp-lang/src/ast.rs
    "#pragma omp",
    // crates/homp-lang/src/parser.rs
    "#pragma omp parallel for target device(*) nowait depend(in: u) depend(out: unew, resid) depend(inout: scratch)",
    "target nowait",
    "target depend(in: a)",
    "target depend(sideways: a)",
    "parallel for target distribute dist_schedule(target:[AUTO], CUTOFF(15%))",
    "parallel for target distribute dist_schedule(target:[SCHED_DYNAMIC,2%])",
    "#pragma omp target update to(u[0:n][0:m], f) from(uold)",
    "#pragma omp target to(u)",
    "#pragma omp parallel for target device(*) collapse(2) reduction(+:error) distribute dist_schedule(target:[AUTO])",
    "target device(0:2, 4:2)",
    "target map(to: y[start:size/2+1])",
    "parallel for floop(3)",
    "parallel for collapse(0)",
    "target map(upward: x)",
    "#pragma omp parallel target device(*) map(tofrom: y[0:n] partition([BLOCK]))",
    "#pragma omp parallel for target device(0:2, 4:*:HOMP_DEVICE_NVGPU) collapse(2) reduction(+:error) distribute dist_schedule(target:[SCHED_DYNAMIC,2%], CUTOFF(15%))",
    "#pragma omp parallel for distribute dist_schedule(target:[WORK_ASSIST,5%], CUTOFF(15%))",
    "#pragma omp parallel target data device(*) map(alloc: uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
    "target map(to: x[0:(0-9223372036854775807-1)/(0-1)])",
    "target map(to: x[0:a+b*c])",
    // crates/homp-lang/src/token.rs
    "#pragma",
    "#pragma omp parallel target \\\n device(*)",
    "parallel target   device(*)",
    "parallel target map(to: x×y)",
    "parallel target map(to: naïve[0:n])",
    "#pragma omp parallel target device(*) \\\nmap(tofrom: y[0:n] partition([BLOCK])) \\\nmap(to: x[0:n] partition([BLOCK]), a, n)",
    // crates/homp-lang/tests/robustness.rs
    "distribute dist_schedule(target:[AUTO])",
    "#pragma omp target device (0) map(tofrom: y[0:n]) map(to: x[0:n],a,n)",
    "#pragma omp parallel for shared(x, y, n, a)",
    "#pragma omp parallel num_threads(ndev)",
    "#pragma omp target device (devid) map(tofrom: y[start:size]) map(to: x[start:size],a,size)",
    "#pragma omp parallel for target device(*) collapse(2) distribute dist_schedule(target:[ALIGN(loop1)])",
    "target device(0:*:HOMP_DEVICE_NVGPU)",
    "target map(to: a[i:j+1][0:m/2])",
    "parallel for private(i, j) shared(u)",
    "parallel for reduction(max:err)",
    "parallel for distribute dist_schedule(teams:[BLOCK])",
    "parallel for distribute dist_schedule(target:[MODEL_PROFILE_AUTO,10%], CUTOFF(15%))",
    "parallel for distribute dist_schedule(target:[ALIGN(x,4)])",
    "parallel frobnicate(1)",
    "target device()",
    "target device(0:)",
    "target map(to:)",
    "target map(sideways: x)",
    "target map(to: x[0:n)",
    "parallel for collapse(two)",
    "parallel for distribute dist_schedule(target:[WIBBLE])",
    "parallel for distribute dist_schedule(sideways:[BLOCK])",
    "parallel for reduction(&:x)",
    "target map(to: x[0:n] partition([CYCLIC]))",
    "parallel for num_threads()",
    // crates/homp-core/src/compile.rs
    "#pragma omp parallel target device(0:*:HOMP_DEVICE_NVGPU) map(to: x[0:n] partition([ALIGN(loop)]))",
    "#pragma omp parallel for target device(*) map(to: x[0:n] partition([ALIGN(loop)])) distribute dist_schedule(target:[MODEL_2_AUTO], CUTOFF(15%))",
    "#pragma omp parallel for map(to: x[0:n])",
    "#pragma omp target device(*) map(to: x[0:missing])",
    "#pragma omp target device(*) map(to: x[0:(0-9223372036854775807-1)/(0-1)])",
    "#pragma omp target device(*) map(to: x[0:18446744073709551615])",
    "#pragma omp target device(*) map(to: x[0:n-50])",
    "#pragma omp parallel for target device(*) map(to: x[0:n] partition([ALIGN(loop)])) distribute dist_schedule(teams:[SCHED_DYNAMIC,2%]) dist_schedule(target:[BLOCK])",
    "target device(*) map(to: x[0:n] partition([ALIGN(loop)])) distribute dist_schedule(teams:[BLOCK])",
    "#pragma omp target device(*) map(to: x[0:n] partition([ALIGN(loop)]))",
    "#pragma omp target update to(f[0:n], coeffs) from(u[0:n])",
    "#pragma omp parallel for",
    "#pragma omp parallel target data device(*) map(tofrom: u[0:n] partition([ALIGN(loop)]))",
    "#pragma omp target update",
    // crates/homp-core/src/api.rs
    "#pragma omp frobnicate",
    "#pragma omp parallel target data device(*) map(to: big[0:n*64]) map(tofrom: y[0:n] partition([ALIGN(loop)]))",
    "#pragma omp parallel target data device(*)                      map(alloc: uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
    "#pragma omp halo_exchange (ghost)",
    "#pragma omp target device(*) map(to: u[0:n] partition([ALIGN(loop)]))",
    "#pragma omp halo_exchange (u)",
    "#pragma omp parallel target data device(*) map(to: x[0:n] partition([ALIGN(loop)]), a, n) map(tofrom: y[0:n] partition([ALIGN(loop)]))",
    "#pragma omp parallel target data device(*) map(to: x[0:n] partition([ALIGN(loop)])) map(tofrom: y[0:n] partition([ALIGN(loop)]))",
    "#pragma omp target update to(x)",
    "#pragma omp target update from(y)",
    "#pragma omp parallel target data device(*) map(to: x[0:n] partition([ALIGN(loop)]))",
    "#pragma omp target update to(ghost)",
    "#pragma omp target device(devid) map(to: x[0:n] partition([ALIGN(loop)]))",
    "#pragma omp halo_exchange (var)",
    "#pragma omp target update to(…) from(…)",
    // crates/homp-core/tests/plan_reference.rs
    "#pragma omp parallel for target device(*) map(to: x[0:n] partition([BLOCK])) map(tofrom: y[0:n] partition([ALIGN(x)])) distribute dist_schedule(target:[ALIGN(x)])",
    // crates/homp-core/tests/edge_inputs.rs
    "#pragma omp parallel for target device(*) map(to: A[0:n][0:n] partition([ALIGN(loop)], FULL)) distribute dist_schedule(target:[BLOCK])",
    // examples/directive_tour.rs, `target {src}` and `parallel for distribute {src}`
    "target device(0:*:mic)",
    "target device(0, 2, 3, 5)",
    "target device(0:*)",
    "parallel for distribute dist_schedule(target:[BLOCK])",
    "parallel for distribute dist_schedule(target:[AUTO])",
    "parallel for distribute dist_schedule(target:[ALIGN(x)])",
    "parallel for distribute dist_schedule(target:[SCHED_DYNAMIC,2%])",
    "parallel for distribute dist_schedule(target:[SCHED_GUIDED,20%])",
    "parallel for distribute dist_schedule(target:[MODEL_2_AUTO], CUTOFF(15%))",
    // examples/pipeline.rs, with `nowait`
    "#pragma omp parallel target device(*) nowait map(to: grid[0:n] partition([ALIGN(loop)]) halo(1), n) map(tofrom: smooth[0:n] partition([ALIGN(loop)]))",
    "#pragma omp parallel target device(*) map(to: grid[0:n] partition([ALIGN(loop)]) halo(1), n) map(tofrom: smooth[0:n] partition([ALIGN(loop)]))",
    // tests/properties.rs, examples/observability.rs
    "#pragma omp parallel for target device(*) distribute dist_schedule(target:[SCHED_DYNAMIC,7%], CUTOFF(30%))",
    "#pragma omp parallel for target device(*) distribute dist_schedule(target:[AUTO])",
    "#pragma omp parallel for distribute dist_schedule(target:[MODEL_2_AUTO])",
];

/// What each byte of a directive is replaced by in turn.
const REPLACEMENTS: &[&str] =
    &["(", ")", "[", "]", ",", ":", "*", "+", "-", "/", "%", "@", "×", "\\", " "];

/// The algorithms of directive_grid's cells, as `Algorithm` prints them.
const GRID_ALGORITHMS: [&str; 8] = [
    "BLOCK",
    "SCHED_DYNAMIC,2%",
    "SCHED_GUIDED,20%",
    "MODEL_1_AUTO",
    "MODEL_2_AUTO",
    "SCHED_PROFILE_AUTO,10%",
    "MODEL_PROFILE_AUTO,10%",
    "WORK_ASSIST,5%",
];

/// directive_grid's 6 data directives, 8 loop directives and 8 chain
/// stages, from the format strings of `benchmark/src/workloads/grid.rs`.
fn grid_directives() -> Vec<String> {
    // `homp_kernels::stencil::RADIUS`, `block_matching::{BLOCK, SEARCH}`.
    const RADIUS: usize = 3;
    const BLOCK: usize = 16;
    const SEARCH: i64 = 4;
    const CHAIN_DEPTH: usize = 8;
    let maps = [
        "map(to: x[0:n] partition([ALIGN(loop)])) \
         map(tofrom: y[0:n] partition([ALIGN(loop)])) map(to: a, n)"
            .to_string(),
        "map(to: A[0:n][0:n] partition([ALIGN(loop)], FULL), x[0:n]) \
         map(from: y[0:n] partition([ALIGN(loop)])) map(to: n)"
            .to_string(),
        "map(to: A[0:n][0:n] partition([ALIGN(loop)], FULL), B[0:n][0:n]) \
         map(from: C[0:n][0:n] partition([ALIGN(loop)], FULL)) map(to: n)"
            .to_string(),
        format!(
            "map(to: u[0:n][0:n] partition([ALIGN(loop)], FULL) halo({RADIUS},)) \
             map(from: u_next[0:n][0:n] partition([ALIGN(loop)], FULL)) map(to: n)"
        ),
        "map(to: x[0:n] partition([ALIGN(loop)]), s)".to_string(),
        format!(
            "map(to: frame[0:n][0:n] partition([ALIGN(loop,{BLOCK})], FULL) halo({SEARCH},), \
             reference[0:n][0:n] partition([ALIGN(loop,{BLOCK})], FULL) halo({SEARCH},)) \
             map(from: motion[0:r][0:w] partition([ALIGN(loop)], FULL)) map(to: n, r)"
        ),
    ];
    let mut out: Vec<String> =
        maps.iter().map(|m| format!("#pragma omp parallel target device(*) {m}")).collect();
    for algorithm in GRID_ALGORITHMS {
        out.push(format!(
            "#pragma omp parallel for distribute dist_schedule(target:[{algorithm}])"
        ));
    }
    for i in 0..CHAIN_DEPTH {
        let j = i + 1;
        let nowait = if j < CHAIN_DEPTH { " nowait" } else { "" };
        out.push(format!(
            "#pragma omp parallel for target device(*){nowait} depend(in: g{i}) depend(out: g{j}) \
             map(to: g{i}[0:n] partition([ALIGN(loop)])) map(tofrom: g{j}[0:n] partition([ALIGN(loop)])) \
             distribute dist_schedule(target:[BLOCK])"
        ));
    }
    out
}

/// Every Table II notation, in both spellings, and directive_grid's.
fn notations() -> Vec<String> {
    let table_ii = [
        "BLOCK",
        "AUTO",
        "SCED_DYNAMIC,2%",
        "SCED_GUIDED,20%",
        "MODEL_1_AUTO,-1,15%",
        "MODEL_2_AUTO,-1,15%",
        "SCED_PROFILE_AUTO,10%,15%",
        "SCHED_PROFILE_AUTO,10%,15%",
        "MODEL_PROFILE_AUTO,10%,15%",
        "WORK_ASSIST",
        "WORK_ASSIST,5%,15%",
    ];
    table_ii.iter().chain(&GRID_ALGORITHMS).map(|s| s.to_string()).collect()
}

/// Every directive the prefix and replacement checks start from.
fn sources() -> Vec<String> {
    let mut out: Vec<String> = CORPUS.iter().map(|s| s.to_string()).collect();
    out.extend(grid_directives());
    out
}

/// Every prefix of `src` that ends on a character boundary.
fn prefixes(src: &str) -> impl Iterator<Item = &str> {
    (0..=src.len()).filter(|&i| src.is_char_boundary(i)).map(move |i| &src[..i])
}

/// `src` with each one-byte character replaced by each of [`REPLACEMENTS`].
fn replacements(src: &str) -> impl Iterator<Item = String> + '_ {
    (0..src.len()).filter(|&i| src.is_char_boundary(i) && src.is_char_boundary(i + 1)).flat_map(
        move |i| REPLACEMENTS.iter().map(move |r| format!("{}{r}{}", &src[..i], &src[i + 1..])),
    )
}

fn same_directive(src: &str) {
    assert_eq!(parse_directive(src), reference::parse_directive(src), "{src:?}");
}

fn same_notation(src: &str) {
    assert_eq!(parse_algorithm_notation(src), reference::parse_algorithm_notation(src), "{src:?}");
}

#[test]
fn corpus_parses_as_the_reference_does() {
    let sources = sources();
    assert_eq!(sources.len(), CORPUS.len() + 22);
    for src in &sources {
        same_directive(src);
    }
    // The corpus reaches the parser's success path, not only its errors.
    let parsed = sources.iter().filter(|s| parse_directive(s).is_ok()).count();
    assert!(parsed * 4 > sources.len() * 3, "{parsed} of {}", sources.len());
}

#[test]
fn the_axpy_data_directive_parses_within_its_allocation_cap() {
    let axpy = &grid_directives()[0];
    let (n, d) = allocations(|| parse_directive(axpy));
    assert!(d.is_ok(), "{d:?}");
    assert!(n <= AXPY_ALLOCATION_CAP, "{n} allocations, cap {AXPY_ALLOCATION_CAP}");
    // The cap is one the owned-token parser breaks.
    let (r, _) = allocations(|| reference::parse_directive(axpy));
    assert!(r > AXPY_ALLOCATION_CAP, "the reference made only {r} allocations");
}

#[test]
fn every_prefix_parses_as_the_reference_does() {
    for src in sources() {
        prefixes(&src).for_each(same_directive);
    }
}

#[test]
fn every_one_byte_replacement_parses_as_the_reference_does() {
    for src in sources() {
        replacements(&src).for_each(|s| same_directive(&s));
    }
}

#[test]
fn notations_parse_as_the_reference_does() {
    for src in notations() {
        same_notation(&src);
        prefixes(&src).for_each(same_notation);
        replacements(&src).for_each(|s| same_notation(&s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Directive-ish words in any order: mostly errors, from every
    /// state of the parser.
    #[test]
    fn word_lists_parse_as_the_reference_does(
        words in proptest::collection::vec(
            prop_oneof![
                Just("parallel"), Just("for"), Just("target"), Just("data"), Just("update"),
                Just("halo_exchange"), Just("device"), Just("map"), Just("partition"),
                Just("halo"), Just("distribute"), Just("dist_schedule"), Just("ALIGN"),
                Just("BLOCK"), Just("AUTO"), Just("FULL"), Just("SCHED_DYNAMIC"),
                Just("CUTOFF"), Just("reduction"), Just("collapse"), Just("depend"),
                Just("nowait"), Just("in"), Just("out"), Just("max"), Just("("), Just(")"),
                Just("["), Just("]"), Just(","), Just(":"), Just("*"), Just("+"), Just("-"),
                Just("/"), Just("0"), Just("17"), Just("2%"), Just("9223372036854775808"),
                Just("tofrom"), Just("to"), Just("from"), Just("x"), Just("y"), Just("n"),
            ],
            0..40,
        )
    ) {
        let src = words.join(" ");
        prop_assert_eq!(parse_directive(&src), reference::parse_directive(&src));
    }

    /// Whole clauses after a construct: mostly directives that parse.
    #[test]
    fn clause_lists_parse_as_the_reference_does(
        words in proptest::collection::vec(
            prop_oneof![
                Just("parallel"), Just("for"), Just("target"), Just("data"),
                Just("device(*)"), Just("device(0:*)"), Just("device(1:2:HOMP_DEVICE_NVGPU)"),
                Just("collapse(2)"), Just("map(to: x[0:n])"),
                Just("map(tofrom: y[0:n] partition([BLOCK]))"),
                Just("map(alloc: u[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))"),
                Just("reduction(+:err)"), Just("reduction(min:a, b)"),
                Just("distribute dist_schedule(target:[AUTO])"),
                Just("dist_schedule(target:[SCHED_DYNAMIC,2%])"),
                Just("dist_schedule(teams:[ALIGN(x,4)], CUTOFF(15%))"),
                Just("nowait"), Just("depend(inout: g0, g1)"), Just("num_threads(n/2+1)"),
                Just("shared(x, y)"), Just("private(i)"),
            ],
            1..8,
        )
    ) {
        let src = format!("parallel {}", words.join(" "));
        prop_assert_eq!(parse_directive(&src), reference::parse_directive(&src));
    }

    /// Any text at all, control characters and unicode included.
    #[test]
    fn any_text_parses_as_the_reference_does(input in ".{0,120}") {
        prop_assert_eq!(parse_directive(&input), reference::parse_directive(&input));
    }
}
