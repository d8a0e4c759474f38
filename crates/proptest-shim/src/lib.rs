//! Offline shim for the subset of the `proptest` API this workspace
//! uses. The container has no network access to crates.io, so the real
//! crate cannot be resolved; this path crate keeps every property test
//! compiling and running without touching the test sources.
//!
//! Semantics deliberately kept simple and fully deterministic:
//! - no shrinking: a failing case panics with the sampled inputs Debug-
//!   printed, which is enough to reproduce (the RNG is seeded from the
//!   test name, so re-running the test replays the same cases);
//! - `prop_assert!`/`prop_assert_eq!` are plain `assert!`/`assert_eq!`;
//! - strategies are uniform samplers, not value trees.

#![allow(clippy::type_complexity)]

/// Deterministic 64-bit PRNG (splitmix64). Seeded from the test name so
/// every run of a given test replays the identical case sequence.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the test name gives a stable, platform-independent seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in [0, n) for n > 0.
    pub fn below(&mut self, n: u64) -> u64 {
        // Modulo bias is irrelevant at test-case scale.
        self.next_u64() % n.max(1)
    }
}

/// Mirror of `proptest::test_runner::Config` — only `cases` matters here.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

pub mod strategy {
    use super::TestRng;

    /// A value generator. Unlike real proptest there is no value tree and
    /// no shrinking — `sample` draws one value.
    pub trait Strategy {
        type Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, _whence: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, pred }
        }
    }

    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.sample(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 consecutive samples");
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between same-valued strategies (built by `prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<Box<dyn Fn(&mut TestRng) -> T>>,
    }

    impl<T> OneOf<T> {
        pub fn new(arms: Vec<Box<dyn Fn(&mut TestRng) -> T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            (self.arms[i])(rng)
        }
    }

    /// Helper used by `prop_oneof!` to erase the arm's concrete type.
    pub fn arm<S: Strategy + 'static>(s: S) -> Box<dyn Fn(&mut TestRng) -> S::Value> {
        Box::new(move |rng| s.sample(rng))
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty integer range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let off = (rng.next_u64() as u128) % span;
                    (lo as i128 + off as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    self.start + (self.end - self.start) * rng.next_f64() as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    self.start() + (self.end() - self.start()) * rng.next_f64() as $t
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    impl Strategy for core::ops::Range<char> {
        type Value = char;
        fn sample(&self, rng: &mut TestRng) -> char {
            let (lo, hi) = (self.start as u32, self.end as u32);
            assert!(lo < hi, "empty char range strategy");
            for _ in 0..64 {
                let c = lo + rng.below((hi - lo) as u64) as u32;
                if let Some(c) = char::from_u32(c) {
                    return c;
                }
            }
            self.start
        }
    }

    /// Real proptest interprets a `&str` strategy as a regex. The shim
    /// supports the subset this workspace uses — `.{lo,hi}` and `.*` —
    /// generating strings that mix printable ASCII, control characters,
    /// and multi-byte unicode (what the parser robustness tests need).
    impl Strategy for &str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let (lo, hi) = parse_dot_repeat(self).unwrap_or_else(|| {
                panic!("proptest shim: unsupported regex strategy {self:?} (only `.{{lo,hi}}` and `.*` are implemented)")
            });
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len)
                .map(|_| match rng.below(10) {
                    0 => char::from_u32(rng.below(0x20) as u32).unwrap_or('\u{1}'),
                    1 => ['é', 'λ', '→', '💥', '\u{7f}', '\u{a0}', '�'][rng.below(7) as usize],
                    _ => (0x20u8 + rng.below(0x5f) as u8) as char,
                })
                .collect()
        }
    }

    fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
        if pat == ".*" {
            return Some((0, 64));
        }
        let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = body.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    impl Strategy for bool {
        type Value = bool;
        fn sample(&self, _rng: &mut TestRng) -> bool {
            *self
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Anything usable as the size argument of `collection::vec`.
    pub trait IntoSizeRange {
        fn bounds(&self) -> (usize, usize); // inclusive lo, exclusive hi
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end() + 1)
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        assert!(lo < hi, "empty vec size range");
        VecStrategy { element, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.lo + rng.below((self.hi - self.lo) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    pub struct OptionStrategy<S> {
        inner: S,
    }

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Match real proptest's default: Some with probability 0.9.
            if rng.next_f64() < 0.9 {
                Some(self.inner.sample(rng))
            } else {
                None
            }
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// In this shim a failed assumption just skips the rest of the case body
/// by early-returning from the per-case closure.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::arm($arm)),+])
    };
}

/// The test-declaration macro. Each `fn name(pat in strategy, ...) { body }`
/// becomes a function that replays `cases` deterministic samples. As in
/// upstream `proptest`, the macro adds no `#[test]`: write one on each
/// property. A property written without it compiles but never runs,
/// and clippy does not flag it (the function comes from this crate's
/// macro).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_cases ($cfg).cases; $($rest)*);
    };
    (@with_cases $cases:expr; ) => {};
    (@with_cases $cases:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let cases: u32 = $cases;
            let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cases {
                // One closure per case so prop_assume! can early-return.
                let run = |rng: &mut $crate::TestRng| {
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), rng);)+
                    $body
                };
                run(&mut rng);
            }
        }
        $crate::proptest!(@with_cases $cases; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_cases $crate::ProptestConfig::default().cases; $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_replay() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_in_bounds(x in 3u64..17, f in -2.0f64..2.0, n in 1usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn composite(v in crate::collection::vec(0u32..10, 1..5),
                     o in crate::option::of(0i32..3),
                     pick in prop_oneof![Just(1u8), (2u8..4).prop_map(|x| x)]) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            if let Some(x) = o { prop_assert!(x < 3); }
            prop_assert!((1..4).contains(&pick));
        }
    }
}
