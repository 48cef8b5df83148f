#![forbid(unsafe_code)]
//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses. The build environment has no access to crates.io, so this path
//! crate supplies source-compatible replacements: the [`RngCore`] /
//! [`SeedableRng`] / [`Rng`] traits, a deterministic [`rngs::StdRng`]
//! (xoshiro256** seeded through SplitMix64), and
//! [`seq::SliceRandom`]. Everything is deterministic given a seed, which
//! is exactly what the reproduction's tests and experiments require.
//!
//! This is **not** a cryptographically secure RNG and does not try to be
//! bit-compatible with the real `rand` crate; the workspace only relies
//! on seedability and statistical quality.

/// Core random-number generation: raw words and byte fills.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Construction of reproducible generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Distributions for [`Rng::gen`].
pub mod distributions {
    use crate::RngCore;

    /// The "natural" distribution for a type (uniform over its range;
    /// `[0, 1)` for floats).
    pub struct Standard;

    /// Types samplable from a distribution.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 uniform mantissa bits in [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<u128> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u128 {
            (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
        }
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a single value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_unsigned_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u128;
                self.start + ((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
impl_unsigned_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_signed_range!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        self.start + u * (self.end - self.start)
    }
}

/// Convenience methods layered over [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value from its [`distributions::Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// Draws a value uniformly from `range` (half-open).
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Rg: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use crate::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (Blackman/Vigna), seeded via
    /// SplitMix64 — the conventional seeding for the xoshiro family.
    ///
    /// Stands in for `rand::rngs::StdRng`: seedable, `Clone`, `Debug`,
    /// and statistically solid for simulation workloads.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(8);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes());
            }
            let rest = chunks.into_remainder();
            if !rest.is_empty() {
                let word = self.next_u64().to_le_bytes();
                rest.copy_from_slice(&word[..rest.len()]);
            }
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use crate::Rng;

    /// Random selection and shuffling on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get((rng.next_u64() % self.len() as u64) as usize)
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_interval_and_ranges() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&w));
            let s = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn range_distribution_covers_support() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_all_lengths() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in 0..=33 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 16 {
                assert!(buf.iter().any(|&b| b != 0), "len={len}");
            }
        }
    }

    #[test]
    fn slice_helpers() {
        let mut rng = StdRng::seed_from_u64(6);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let items = [1, 2, 3, 4, 5];
        for _ in 0..50 {
            assert!(items.contains(items.choose(&mut rng).unwrap()));
        }
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        assert_ne!(v, orig, "shuffle moved something");
        v.sort_unstable();
        assert_eq!(v, orig, "shuffle is a permutation");
    }

    #[test]
    fn gen_bool_rates() {
        let mut rng = StdRng::seed_from_u64(7);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }
}
