//! Offline stand-in for the `rand` crate. Provides exactly the surface the
//! workload generators use: `StdRng::seed_from_u64` plus
//! `RngExt::random_range` over half-open ranges. The generator is a
//! splitmix64, so streams are deterministic per seed across platforms.

use std::ops::Range;

/// Core source of randomness.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Seed a generator from a single `u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    /// Deterministic splitmix64 generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) state: u64,
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // splitmix64 (Vigna): full-period, passes BigCrush for this use.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

/// Types that can be sampled uniformly from a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_from(bits: u64, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_from(bits: u64, lo: Self, hi: Self) -> Self {
                debug_assert!(lo < hi, "empty sample range");
                // The span of a half-open range over a type of at most 64
                // bits always fits `u64`, so one 64-bit remainder does it;
                // wrapping arithmetic in `u64` then truncates to the same
                // value the exact `i128` sum would.
                let span = (hi as u64).wrapping_sub(lo as u64);
                (lo as u64).wrapping_add(bits % span) as $t
            }
        }
    )*};
}

impl_sample_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleUniform for f32 {
    fn sample_from(bits: u64, lo: Self, hi: Self) -> Self {
        let unit = (bits >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}

impl SampleUniform for f64 {
    fn sample_from(bits: u64, lo: Self, hi: Self) -> Self {
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// Convenience sampling methods, blanket-implemented for every generator.
pub trait RngExt: RngCore {
    /// Uniform sample from `range.start..range.end` (half-open).
    fn random_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_from(self.next_u64(), range.start, range.end)
    }
}

impl<R: RngCore> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::{rngs::StdRng, RngCore, RngExt, SampleUniform, SeedableRng};

    /// The original widening formula, kept as the reference the `u64`
    /// body must reproduce bit for bit (workload streams are golden).
    macro_rules! reference_sample {
        ($t:ty, $bits:expr, $lo:expr, $hi:expr) => {{
            let span = ($hi as i128) - ($lo as i128);
            (($lo as i128) + ($bits as i128).rem_euclid(span)) as $t
        }};
    }

    /// Compare against the reference over a seeded stream of generator
    /// output, preceded by the edge bit patterns it may never emit.
    macro_rules! assert_stream_unchanged {
        ($t:ty, $seed:expr, $lo:expr, $hi:expr) => {{
            let mut rng = StdRng::seed_from_u64($seed);
            let edges = [0, 1, u64::MAX - 1, u64::MAX, (1 << 63) - 1, 1 << 63];
            for bits in (edges.into_iter()).chain((0..10_000).map(|_| rng.next_u64())) {
                assert_eq!(
                    <$t as SampleUniform>::sample_from(bits, $lo, $hi),
                    reference_sample!($t, bits, $lo, $hi),
                    "bits {bits:#x}"
                );
            }
        }};
    }

    #[test]
    fn integer_sampling_matches_the_widening_reference() {
        assert_stream_unchanged!(i16, 0xFA44_0001, -12000i16, 12000i16);
        assert_stream_unchanged!(u64, 0xFA44_0001, 0u64, u64::MAX);
        assert_stream_unchanged!(i64, 0xFA44_0001, i64::MIN, i64::MAX);
        assert_stream_unchanged!(usize, 0xFA44_0001, 0usize, 1usize);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random_range(0i32..1000), b.random_range(0i32..1000));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.random_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&v));
            let i = rng.random_range(-12000i16..12000);
            assert!((-12000..12000).contains(&i));
        }
    }
}
