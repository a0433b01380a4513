//! Self-contained deterministic PRNG for the workload generators.
//!
//! The generators only need reproducibility — the same seed must always
//! produce the same document — not cryptographic quality, so a splitmix64
//! stream (Steele, Lea & Flood, *Fast Splittable Pseudorandom Number
//! Generators*, OOPSLA 2014) is plenty: one 64-bit state word, full
//! period, and it passes BigCrush. The step itself is
//! [`xac_obs::splitmix64`], shared with trace-id minting; keeping it
//! in-repo keeps the workspace free of external crates, which is what
//! makes the offline build work.
//!
//! Range sampling uses simple modulo reduction. The bias is at most
//! `span / 2^64`, far below anything a test-data generator can observe,
//! and in exchange the mapping from stream to value stays trivially
//! auditable.

use std::ops::{Range, RangeInclusive};

/// A seeded splitmix64 generator.
///
/// Mirrors the small slice of the `rand` API the generators use
/// (`seed_from_u64`, `gen_range`, `gen_bool`) so the generator code reads
/// the same as before the crate went dependency-free.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Construct from a 64-bit seed. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        xac_obs::splitmix64(&mut self.state)
    }

    /// Uniform draw from a half-open or inclusive integer range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        // 53 uniform mantissa bits, the standard u64 → f64 construction.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

/// Integer ranges that [`SplitMix64::gen_range`] can sample from.
///
/// Implemented once, generically, for `Range<T>`/`RangeInclusive<T>` over
/// every [`UniformInt`] — a single blanket impl per range shape is what
/// lets `rng.gen_range(1..10)` infer `i32` through the default integer
/// fallback, exactly as `rand`'s equivalent trait does.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample(self, rng: &mut SplitMix64) -> T;
}

impl<T: UniformInt> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut SplitMix64) -> T {
        let (start, end) = (self.start.widen(), self.end.widen());
        assert!(start < end, "gen_range on empty range");
        let span = (end - start) as u128;
        let offset = (rng.next_u64() as u128 % span) as i128;
        T::narrow(start + offset)
    }
}

impl<T: UniformInt> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut SplitMix64) -> T {
        let (s, e) = self.into_inner();
        let (start, end) = (s.widen(), e.widen());
        assert!(start <= end, "gen_range on empty range");
        let span = (end - start) as u128 + 1;
        let offset = (rng.next_u64() as u128 % span) as i128;
        T::narrow(start + offset)
    }
}

/// Primitive integers usable with [`SampleRange`], widened through `i128`
/// so one sampling routine covers signed and unsigned types alike.
pub trait UniformInt: Copy {
    /// Widen to `i128` losslessly.
    fn widen(self) -> i128;
    /// Narrow back from `i128` (the value is known to be in range).
    fn narrow(v: i128) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),* $(,)?) => {$(
        impl UniformInt for $t {
            fn widen(self) -> i128 {
                self as i128
            }
            fn narrow(v: i128) -> $t {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_answer_vector() {
        // Reference values from the canonical splitmix64 with state = 0:
        // the first three outputs published with the algorithm.
        let mut rng = SplitMix64::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: usize = rng.gen_range(0..=4);
            assert!(w <= 4);
            let x: i64 = rng.gen_range(-10..10);
            assert!((-10..10).contains(&x));
        }
    }

    #[test]
    fn single_value_ranges() {
        let mut rng = SplitMix64::seed_from_u64(1);
        assert_eq!(rng.gen_range(5..6), 5);
        assert_eq!(rng.gen_range(5..=5), 5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "{hits} hits for p=0.3");
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
    }
}
