//! # spasm-prng — deterministic, zero-dependency pseudo-random numbers
//!
//! The workspace's entire methodology is model-vs-model comparison
//! (Target vs LogP vs CLogP), which is only meaningful when every
//! simulation run is bit-reproducible on every platform and toolchain.
//! This crate pins the random streams to two tiny, published algorithms
//! so no external crate update can ever shift a workload:
//!
//! * **SplitMix64** (Steele, Lea & Flood, OOPSLA 2014) — a 64-bit
//!   avalanche generator used for seeding and for decorrelating nearby
//!   seeds;
//! * **xoshiro256\*\*** (Blackman & Vigna, 2018) — the main generator:
//!   256 bits of state, period 2^256 − 1, passes BigCrush, and is a few
//!   shifts/rotates per output.
//!
//! [`StdRng`] is an alias for [`Xoshiro256StarStar`] with the same
//! constructor surface (`from_seed`, `seed_from_u64`) as `rand`'s
//! `StdRng`, so call sites port mechanically. The [`Rng`] trait carries
//! the sampling helpers the workspace uses: [`Rng::next_u64`],
//! [`Rng::gen_range`], [`Rng::gen_f64`], [`Rng::shuffle`], [`Rng::fill`].
//!
//! Everything here is checked against reference vectors generated from
//! the authors' published C code (see the known-answer tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Advances a SplitMix64 state and returns the next output,
/// [`mix64`] of the advanced state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// The SplitMix64 finalizer: a stateless 64-bit avalanche, the exact
/// output function of the reference implementation at
/// <https://prng.di.unimi.it/splitmix64.c>.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 generator as a stream (used for seeding xoshiro and as
/// a cheap standalone stream where 64 bits of state suffice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator with the given state.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }
}

/// The xoshiro256\*\* generator (Blackman & Vigna), reference
/// implementation at <https://prng.di.unimi.it/xoshiro256starstar.c>.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// Drop-in replacement name for `rand::rngs::StdRng` call sites.
pub type StdRng = Xoshiro256StarStar;

impl Xoshiro256StarStar {
    /// Creates the generator from 32 bytes of seed material
    /// (little-endian words), the same signature shape as
    /// `rand::SeedableRng::from_seed`.
    ///
    /// An all-zero seed is remapped through SplitMix64 (the all-zero
    /// state is the one fixed point of the xoshiro transition).
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (i, w) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *w = u64::from_le_bytes(b);
        }
        if s == [0; 4] {
            return Self::seed_from_u64(0);
        }
        Xoshiro256StarStar { s }
    }

    /// Creates the generator from a 64-bit seed by expanding it with
    /// four SplitMix64 outputs, exactly as the xoshiro authors
    /// recommend ("we suggest to use a SplitMix64 generator to fill the
    /// state").
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256StarStar { s }
    }

    /// Creates the generator directly from four state words.
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state, which xoshiro never leaves.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "xoshiro256** state must not be all zero");
        Xoshiro256StarStar { s }
    }
}

impl Rng for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A uniform random generator. Only [`Rng::next_u64`] is required; all
/// sampling helpers derive from it deterministically.
pub trait Rng {
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniform bits (the upper half of [`Rng::next_u64`];
    /// xoshiro's low bits are its weakest).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        // 53 explicit mantissa bits; the standard (x >> 11) * 2^-53 map.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform boolean.
    #[inline]
    fn gen_bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// A uniform integer in `[0, n)` by Lemire's multiply-shift with
    /// rejection — exactly uniform, no modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    fn gen_u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_u64_below requires n > 0");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            // Rejection zone for exact uniformity.
            let t = n.wrapping_neg() % n;
            while lo < t {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform sample from `range` — `Range` and `RangeInclusive` over
    /// the primitive integers, `usize`, and `f64`/`f32`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample(self)
    }

    /// Fills `dest` with uniform bytes (little-endian words of
    /// [`Rng::next_u64`]).
    fn fill(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_u64_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// A range that can produce a uniform sample of `T`. Implemented for
/// `Range` and `RangeInclusive` over the workspace's primitive types.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = rng.gen_u64_below(span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Only reachable for the full u64/i64 domain.
                    return rng.next_u64() as $t;
                }
                let off = rng.gen_u64_below(span as u64);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let u = rng.gen_f64() as $t;
                let v = self.start + (self.end - self.start) * u;
                // Guard the open upper bound against rounding.
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

impl_float_sample_range!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the published SplitMix64 algorithm at seed
    /// 0 — the classic test vector (e.g. Java `SplittableRandom` and the
    /// xoshiro authors' seeding examples reproduce it).
    #[test]
    fn splitmix64_known_answers_seed_zero() {
        let mut s = 0u64;
        let want = [
            0xE220_A839_7B1D_CDAF_u64,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
            0x1B39_896A_51A8_749B,
            0x53CB_9F0C_747E_A2EA,
            0x2C82_9ABE_1F45_32E1,
            0xC584_133A_C916_AB3C,
        ];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(splitmix64(&mut s), w, "output {i}");
        }
    }

    #[test]
    fn splitmix64_known_answers_nonzero_seed() {
        let mut s = 0x0123_4567_89AB_CDEFu64;
        let want = [
            0x157A_3807_A48F_AA9D_u64,
            0xD573_529B_34A1_D093,
            0x2F90_B72E_996D_CCBE,
            0xA2D4_1933_4C46_67EC,
        ];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(splitmix64(&mut s), w, "output {i}");
        }
    }

    /// Reference vector generated with the authors' C implementation of
    /// xoshiro256** from state {1, 2, 3, 4} (the same state the
    /// `rand_xoshiro` crate pins its reference test to).
    #[test]
    fn xoshiro256starstar_known_answers_state_1234() {
        let mut rng = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        let want = [
            11520_u64,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
            16172922978634559625,
            8476171486693032832,
            10595114339597558777,
            2904607092377533576,
        ];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(rng.next_u64(), w, "output {i}");
        }
    }

    /// `seed_from_u64` must expand the seed with SplitMix64, so the
    /// resulting stream is pinned by the two algorithms jointly.
    #[test]
    fn seed_from_u64_known_answers() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let want = [
            0x99EC_5F36_CB75_F2B4_u64,
            0xBF6E_1F78_4956_452A,
            0x1A5F_849D_4933_E6E0,
            0x6AA5_94F1_262D_2D2C,
            0xBBA5_AD4A_1F84_2E59,
            0xFFEF_8375_D9EB_CACA,
        ];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(rng.next_u64(), w, "output {i}");
        }
    }

    #[test]
    fn from_seed_uses_little_endian_words() {
        let mut seed = [0u8; 32];
        seed[0] = 1;
        seed[8] = 2;
        seed[16] = 3;
        seed[24] = 4;
        let mut a = Xoshiro256StarStar::from_seed(seed);
        let mut b = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped_not_degenerate() {
        let mut rng = Xoshiro256StarStar::from_seed([0u8; 32]);
        // The all-zero xoshiro state yields all-zero output forever; the
        // remap must avoid it.
        assert!((0..8).any(|_| rng.next_u64() != 0));
    }

    /// Streams from different seeds must be independent: no pairwise
    /// collisions in a prefix, and differing already at the first draw
    /// for consecutive seeds (SplitMix64 avalanche).
    #[test]
    fn streams_are_independent_across_seeds() {
        let mut firsts = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            assert!(
                firsts.insert(rng.next_u64()),
                "first draw collides at seed {seed}"
            );
        }
        // Deeper check on a pair of adjacent seeds.
        let mut a = Xoshiro256StarStar::seed_from_u64(7);
        let mut b = Xoshiro256StarStar::seed_from_u64(8);
        let same = (0..1_000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent seeds must not share outputs");
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: u64 = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f: f64 = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u: usize = rng.gen_range(0..1);
            assert_eq!(u, 0);
        }
    }

    /// Coarse uniformity: every bucket of a small range within 10% of
    /// the expected count over 100k draws (binomial σ here is ≈0.8%, so
    /// 10% is a wide, flake-free gate).
    #[test]
    fn gen_range_uniformity_smoke() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        const BUCKETS: usize = 16;
        const DRAWS: usize = 100_000;
        let mut counts = [0u32; BUCKETS];
        for _ in 0..DRAWS {
            counts[rng.gen_range(0..BUCKETS)] += 1;
        }
        let expect = (DRAWS / BUCKETS) as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.10, "bucket {b}: {c} vs {expect} ({dev:.3})");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval_with_spread() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut below_half = 0u32;
        for _ in 0..10_000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
            below_half += u32::from(f < 0.5);
        }
        assert!((4_000..6_000).contains(&below_half));
    }

    #[test]
    fn inclusive_full_domain_does_not_panic() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let _: u64 = rng.gen_range(0..=u64::MAX);
        let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        Xoshiro256StarStar::seed_from_u64(5).shuffle(&mut a);
        Xoshiro256StarStar::seed_from_u64(5).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            a, sorted,
            "100 elements virtually never shuffle to identity"
        );
    }

    #[test]
    fn fill_covers_partial_words() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        let mut rng2 = Xoshiro256StarStar::seed_from_u64(6);
        let mut buf2 = [0u8; 13];
        rng2.fill(&mut buf2);
        assert_eq!(buf, buf2);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let _: u64 = rng.gen_range(5..5);
    }
}
