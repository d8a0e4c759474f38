//! Robustness: the directive front-end must never panic — arbitrary
//! input produces `Ok` or a positioned `Err`, and every valid directive
//! round-trips through its canonical printed form.

use homp_lang::{parse_directive, token};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Total safety: any string, including control characters and
    /// unicode, must lex+parse without panicking.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse_directive(&input);
    }

    /// Inputs made of directive-ish tokens — much likelier to get deep
    /// into the parser than fully random strings.
    #[test]
    fn parser_never_panics_on_tokeny_input(
        words in proptest::collection::vec(
            prop_oneof![
                Just("parallel"), Just("for"), Just("target"), Just("device"),
                Just("map"), Just("partition"), Just("halo"), Just("distribute"),
                Just("dist_schedule"), Just("ALIGN"), Just("BLOCK"), Just("AUTO"),
                Just("FULL"), Just("reduction"), Just("collapse"), Just("("),
                Just(")"), Just("["), Just("]"), Just(","), Just(":"), Just("*"),
                Just("+"), Just("-"), Just("/"), Just("0"), Just("17"), Just("2%"),
                Just("tofrom"), Just("to"), Just("x"), Just("y"), Just("n"),
            ],
            0..40,
        )
    ) {
        let src = words.join(" ");
        let _ = parse_directive(&src);
    }

    /// Lexer totality.
    #[test]
    fn lexer_never_panics(input in ".{0,300}") {
        let _ = token::lex(&input);
    }

    /// Every successfully parsed tokeny input round-trips: printing the
    /// AST and reparsing yields the same AST.
    #[test]
    fn successful_parses_roundtrip(
        words in proptest::collection::vec(
            prop_oneof![
                Just("parallel"), Just("for"), Just("target"), Just("data"),
                Just("device(*)"), Just("device(0:*)"), Just("collapse(2)"),
                Just("map(to: x[0:n])"), Just("map(tofrom: y[0:n] partition([BLOCK]))"),
                Just("reduction(+:err)"),
                Just("distribute dist_schedule(target:[AUTO])"),
                Just("dist_schedule(target:[SCHED_DYNAMIC,2%])"),
            ],
            1..8,
        )
    ) {
        let src = format!("parallel {}", words.join(" "));
        if let Ok(d1) = parse_directive(&src) {
            let printed = d1.to_string();
            let d2 = parse_directive(&printed)
                .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
            prop_assert_eq!(d1, d2);
        }
    }
}

/// Table-driven corpus: directive text → expected outcome. Documents the
/// accepted dialect and pins error behaviour.
#[test]
fn directive_corpus() {
    let valid = [
        // The paper's listings.
        "#pragma omp target device (0) map(tofrom: y[0:n]) map(to: x[0:n],a,n)",
        "#pragma omp parallel for shared(x, y, n, a)",
        "#pragma omp parallel num_threads(ndev)",
        "#pragma omp target device (devid) map(tofrom: y[start:size]) map(to: x[start:size],a,size)",
        "#pragma omp parallel target device (*) map(tofrom: y[0:n] partition([BLOCK])) map(to: x[0:n] partition([BLOCK]),a,n)",
        "#pragma omp parallel for distribute dist_schedule(target:[ALIGN(x)])",
        "#pragma omp parallel target device (*) map(tofrom: y[0:n] partition([ALIGN(loop)])) map(to: x[0:n] partition([ALIGN(loop)]),a,n)",
        "#pragma omp parallel for distribute dist_schedule(target:[AUTO])",
        "#pragma omp parallel target data device(*) map(to:n, m, omega, ax, ay, b, f[0:n][0:m] partition([ALIGN(loop1)], FULL)) map(tofrom:u[0:n][0:m] partition([ALIGN(loop1)], FULL)) map(alloc:uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
        "#pragma omp parallel for target device(*) collapse(2) distribute dist_schedule(target:[ALIGN(loop1)])",
        "#pragma omp halo_exchange (uold)",
        "#pragma omp parallel for target device(*) reduction(+:error) distribute dist_schedule(target:[AUTO])",
        // Dialect corners.
        "target device(0:2, 4:2)",
        "target device(0:*:HOMP_DEVICE_NVGPU)",
        "target map(to: a[i:j+1][0:m/2])",
        "parallel for private(i, j) shared(u)",
        "parallel for reduction(max:err)",
        "parallel for distribute dist_schedule(teams:[BLOCK])",
        "parallel for distribute dist_schedule(target:[MODEL_PROFILE_AUTO,10%], CUTOFF(15%))",
        "parallel for distribute dist_schedule(target:[ALIGN(x,4)])",
    ];
    for src in valid {
        if let Err(e) = parse_directive(src) {
            panic!("expected `{src}` to parse, got: {e}");
        }
    }

    let invalid = [
        "",                                                        // no construct
        "#pragma omp",                                             // no construct
        "map(to: x)",                                              // clause without construct
        "parallel frobnicate(1)",                                  // unknown clause
        "target device()",                                         // empty device list
        "target device(0:)",                                       // dangling colon
        "target map(to:)",                                         // empty item list
        "target map(sideways: x)",                                 // bad direction
        "target map(to: x[0:n)",                                   // unbalanced
        "parallel for collapse(0)",                                // zero collapse
        "parallel for collapse(two)",                              // non-integer
        "parallel for distribute dist_schedule(target:[WIBBLE])",  // unknown kind
        "parallel for distribute dist_schedule(sideways:[BLOCK])", // bad level
        "parallel for reduction(&:x)",                             // bad operator
        "target map(to: x[0:n] partition([CYCLIC]))",              // policy not in Table I
        "parallel for num_threads()",                              // empty expression
    ];
    for src in invalid {
        if parse_directive(src).is_ok() {
            panic!("expected `{src}` to be rejected");
        }
    }
}
