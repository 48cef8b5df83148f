#![forbid(unsafe_code)]
//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses. The build environment has no crates.io access, so this path
//! crate supplies a small, source-compatible property-testing harness:
//!
//! * [`strategy::Strategy`] with `prop_map`, ranges, tuples, unions;
//! * [`arbitrary::any`] for primitive types (with edge-case biasing);
//! * [`collection::vec`];
//! * the [`proptest!`], `prop_oneof!` and `prop_assert*` macros.
//!
//! Differences from real proptest: no shrinking (a failing case panics
//! with its generated inputs visible via the assertion message), and a
//! fixed deterministic case schedule (`PROPTEST_CASES` overrides the
//! count). That trade keeps the harness tiny while preserving the
//! differential-testing value of the suites written against it.

/// Test-runner plumbing: deterministic per-case RNG and case count.
pub mod test_runner {
    pub use rand::rngs::StdRng as TestRng;
    use rand::SeedableRng;

    /// Number of cases each property runs (default 64; override with the
    /// `PROPTEST_CASES` environment variable).
    pub fn cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Per-block configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Cases per property.
        pub cases: u64,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u64) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic RNG for one case of one property.
    pub fn rng_for_case(case: u64) -> TestRng {
        TestRng::seed_from_u64(0x7072_6F70_0000_0000 ^ case.wrapping_mul(0x9E37_79B9))
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among boxed strategies (the `prop_oneof!` core).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union over `options` (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.gen_range(0..self.options.len());
            self.options[idx].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// Always generates a clone of one value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

/// `any::<T>()` strategies for primitive types.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::{Rng, RngCore};
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value (edge-case biased for integers).
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // Bias towards boundary values the way proptest's
                    // integer strategies weight their edges.
                    match rng.gen_range(0u32..16) {
                        0 => 0,
                        1 => <$t>::MAX,
                        2 => <$t>::MIN,
                        3 => 1 as $t,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Arbitrary bit patterns: exercises NaN, infinities and
            // subnormals, which the wire-codec tests care about.
            f64::from_bits(rng.next_u64())
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// `Vec` strategy over `element` with length in `size` (half-open).
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.is_empty() {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions that run a property over many generated
/// cases. No shrinking: a failure panics with the standard assertion
/// message for the offending case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)+) => {
        $crate::__proptest_impl! { cases = ($config).cases; $($rest)+ }
    };
    ($($rest:tt)+) => {
        $crate::__proptest_impl! { cases = $crate::test_runner::cases(); $($rest)+ }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cases = $cases:expr; $( $(#[$meta:meta])+ fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )+) => {
        $(
            $(#[$meta])+
            fn $name() {
                let cases: u64 = $cases;
                for case in 0..cases {
                    let mut __proptest_rng = $crate::test_runner::rng_for_case(case);
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut __proptest_rng,
                        );
                    )+
                    // Bodies may `return Ok(())` early, as in real proptest.
                    #[allow(unreachable_code)]
                    let run = move || -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        Ok(())
                    };
                    if let Err(message) = run() {
                        panic!("property failed on case {case}: {message}");
                    }
                }
            }
        )+
    };
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Property-test assertion (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Property-test equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Property-test inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u64> {
        (0u64..1000).prop_map(|v| v * 2)
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(v in 10u32..20) {
            prop_assert!((10..20).contains(&v));
        }

        #[test]
        fn mapping_applies(v in small_even()) {
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn tuples_and_vecs(
            (a, b) in (any::<u8>(), any::<u8>()),
            xs in crate::collection::vec(any::<u32>(), 0..10),
        ) {
            prop_assert!(xs.len() < 10);
            prop_assert_eq!(a as u16 + b as u16, b as u16 + a as u16);
        }

        #[test]
        fn oneof_picks_all_arms(v in prop_oneof![0u64..10, 100u64..110]) {
            prop_assert!(v < 10 || (100..110).contains(&v));
        }
    }

    #[test]
    fn any_hits_integer_edges() {
        let mut rng = crate::test_runner::rng_for_case(0);
        let mut saw_zero = false;
        let mut saw_max = false;
        for _ in 0..500 {
            let v = <u64 as crate::arbitrary::Arbitrary>::arbitrary(&mut rng);
            saw_zero |= v == 0;
            saw_max |= v == u64::MAX;
        }
        assert!(saw_zero && saw_max);
    }
}
