//! # spasm-testkit — a minimal deterministic property-testing harness
//!
//! A small in-tree replacement for the subset of `proptest` the
//! workspace uses: seeded random case generation, bounded value
//! shrinking, and failing-seed replay. Everything is deterministic —
//! by default a property's cases derive from a hash of its name, so a
//! given toolchain always runs the identical inputs, and a failure
//! prints the one seed needed to replay it:
//!
//! ```text
//! SPASM_PT_SEED=0x1f2e3d4c5b6a7988 cargo test -q failing_property
//! ```
//!
//! With `SPASM_PT_SEED` set, every property runs exactly one case — the
//! one generated from that seed — which is the case that failed.
//! `SPASM_PT_CASES` overrides the per-property case count.
//!
//! # Writing a property
//!
//! ```
//! use spasm_testkit::{check, gens, prop_assert, prop_assert_eq};
//!
//! #[allow(clippy::needless_doctest_main)]
//! fn main() {
//!     check(
//!         "reverse_is_involutive",
//!         &gens::vecs(gens::u64s(0..100), 0..20),
//!         |v| {
//!             let mut w = v.clone();
//!             w.reverse();
//!             w.reverse();
//!             prop_assert_eq!(&w, v);
//!             Ok(())
//!         },
//!     );
//! }
//! ```
//!
//! Properties return `Result<(), String>`; the [`prop_assert!`] /
//! [`prop_assert_eq!`] macros mirror `proptest`'s so ports are
//! mechanical. Panics inside a property are caught and treated as
//! failures, so plain `assert!` helpers also work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

pub use spasm_prng::{Rng, SplitMix64, StdRng};

/// The RNG handed to generators — the workspace's deterministic
/// xoshiro256** stream.
pub type TestRng = StdRng;

/// A generator: produces values of `T` from a seeded RNG and proposes
/// strictly "smaller" candidates when shrinking a failure.
///
/// Built from the combinators in [`gens`]; composite generators shrink
/// component-wise. [`Gen::map`] intentionally drops shrinking (the
/// inverse image of a mapped value is unknown), so keep normalization
/// that must survive shrinking — sorting, clamping with `%` — inside
/// the property instead.
pub struct Gen<T> {
    run: Rc<dyn Fn(&mut TestRng) -> T>,
    shrink: ShrinkFn<T>,
}

/// Shared shrinking function: proposes strictly smaller candidates.
type ShrinkFn<T> = Rc<dyn Fn(&T) -> Vec<T>>;

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            run: Rc::clone(&self.run),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T> Gen<T> {
    /// Generates one value.
    pub fn generate(&self, rng: &mut TestRng) -> T {
        (self.run)(rng)
    }

    /// Proposes shrink candidates for a failing value (possibly empty).
    pub fn shrink_candidates(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }
}

impl<T: 'static> Gen<T> {
    /// Creates a generator from explicit generate and shrink functions.
    pub fn new(
        run: impl Fn(&mut TestRng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Gen {
            run: Rc::new(run),
            shrink: Rc::new(shrink),
        }
    }

    /// Maps the generated value. The mapped generator does not shrink.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let run = self.run;
        Gen {
            run: Rc::new(move |rng| f((run)(rng))),
            shrink: Rc::new(|_| Vec::new()),
        }
    }
}

/// Generator combinators.
pub mod gens {
    use super::*;
    use std::ops::Range;

    macro_rules! int_gen {
        ($name:ident, $t:ty) => {
            /// A uniform integer in the half-open range; shrinks toward
            /// the range start.
            pub fn $name(range: Range<$t>) -> Gen<$t> {
                let (lo, hi) = (range.start, range.end);
                assert!(lo < hi, "empty generator range");
                Gen::new(
                    move |rng| rng.gen_range(lo..hi),
                    move |&v| {
                        let mut out = Vec::new();
                        if v > lo {
                            out.push(lo);
                            let mid = lo + (v - lo) / 2;
                            if mid != lo && mid != v {
                                out.push(mid);
                            }
                            out.push(v - 1);
                        }
                        out.dedup();
                        out
                    },
                )
            }
        };
    }

    int_gen!(u64s, u64);
    int_gen!(u32s, u32);
    int_gen!(usizes, usize);
    int_gen!(i64s, i64);

    /// A uniform boolean; `true` shrinks to `false`.
    pub fn bools() -> Gen<bool> {
        Gen::new(
            |rng| rng.gen_bool(),
            |&v| if v { vec![false] } else { Vec::new() },
        )
    }

    /// A uniform `f64` in the half-open range; shrinks toward the start.
    pub fn f64s(range: Range<f64>) -> Gen<f64> {
        let (lo, hi) = (range.start, range.end);
        assert!(lo < hi, "empty generator range");
        Gen::new(
            move |rng| rng.gen_range(lo..hi),
            move |&v| {
                let mid = lo + (v - lo) / 2.0;
                if mid != v && mid >= lo {
                    vec![lo, mid]
                } else {
                    Vec::new()
                }
            },
        )
    }

    /// A uniform pick from a fixed list; shrinks toward earlier entries.
    pub fn choice<T: Clone + PartialEq + 'static>(items: Vec<T>) -> Gen<T> {
        assert!(!items.is_empty(), "choice of nothing");
        let pick = items.clone();
        Gen::new(
            move |rng| pick[rng.gen_range(0..pick.len())].clone(),
            move |v| {
                let at = items.iter().position(|i| i == v).unwrap_or(0);
                items[..at].to_vec()
            },
        )
    }

    /// The constant generator.
    pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
        Gen::new(move |_| value.clone(), |_| Vec::new())
    }

    /// A vector whose length is uniform in `len` and whose elements come
    /// from `elem`. Shrinks by dropping the front/back half, dropping
    /// single elements (never below the minimum length), and shrinking
    /// individual elements in place.
    pub fn vecs<T: Clone + 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
        let (min, max) = (len.start, len.end);
        assert!(min < max, "empty length range");
        let elem_for_shrink = elem.clone();
        Gen::new(
            move |rng| {
                let n = rng.gen_range(min..max);
                (0..n).map(|_| elem.generate(rng)).collect()
            },
            move |v: &Vec<T>| {
                let mut out: Vec<Vec<T>> = Vec::new();
                let n = v.len();
                // Halves first: fastest path to small cases.
                if n / 2 >= min && n / 2 < n {
                    out.push(v[..n / 2].to_vec());
                    out.push(v[n - n / 2..].to_vec());
                }
                // Single removals (bounded for long vectors).
                if n > min {
                    for i in 0..n.min(8) {
                        let mut w = v.clone();
                        w.remove(i * n / n.clamp(1, 8));
                        out.push(w);
                    }
                }
                // Element-wise shrinks on a bounded prefix.
                for i in 0..n.min(4) {
                    for cand in elem_for_shrink.shrink_candidates(&v[i]) {
                        let mut w = v.clone();
                        w[i] = cand;
                        out.push(w);
                    }
                }
                out
            },
        )
    }

    /// A uniform random permutation of `0..n` for `n` drawn from `len`
    /// (Fisher–Yates on the case's own stream). Shrinks toward the
    /// identity permutation — first wholesale, then by squashing single
    /// inversions — so a failing schedule-order property reports the
    /// least-scrambled order that still fails.
    pub fn shuffled(len: Range<usize>) -> Gen<Vec<usize>> {
        let (min, max) = (len.start, len.end);
        assert!(min < max, "empty length range");
        Gen::new(
            move |rng| {
                let n = rng.gen_range(min..max);
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..i + 1));
                }
                perm
            },
            |v: &Vec<usize>| {
                let identity: Vec<usize> = (0..v.len()).collect();
                if *v == identity {
                    return Vec::new();
                }
                let mut out = vec![identity];
                // Undo one out-of-place element at a time.
                for i in 0..v.len().min(8) {
                    if v[i] != i {
                        let mut w = v.clone();
                        let j = w.iter().position(|&x| x == i).unwrap();
                        w.swap(i, j);
                        out.push(w);
                    }
                }
                out
            },
        )
    }

    macro_rules! tuple_gen {
        ($name:ident, $($g:ident: $t:ident @ $idx:tt),+) => {
            /// A tuple of independent generators; shrinks one coordinate
            /// at a time.
            #[allow(clippy::too_many_arguments)]
            pub fn $name<$($t: Clone + 'static),+>(
                $($g: Gen<$t>),+
            ) -> Gen<($($t,)+)> {
                let run_gens = ($($g.clone(),)+);
                let shrink_gens = ($($g,)+);
                Gen::new(
                    move |rng| ($(run_gens.$idx.generate(rng),)+),
                    move |v| {
                        let mut out = Vec::new();
                        $(
                            for cand in shrink_gens.$idx.shrink_candidates(&v.$idx) {
                                let mut w = v.clone();
                                w.$idx = cand;
                                out.push(w);
                            }
                        )+
                        out
                    },
                )
            }
        };
    }

    tuple_gen!(tuple2, a: A @ 0, b: B @ 1);
    tuple_gen!(tuple3, a: A @ 0, b: B @ 1, c: C @ 2);
    tuple_gen!(tuple4, a: A @ 0, b: B @ 1, c: C @ 2, d: D @ 3);
}

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cases to run per property (`SPASM_PT_CASES` overrides).
    pub cases: u32,
    /// Upper bound on shrink attempts after a failure.
    pub max_shrinks: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            max_shrinks: 512,
        }
    }
}

/// Checks a property over generated cases with the default [`Config`].
///
/// # Panics
///
/// Panics (failing the test) if any case fails, after shrinking to a
/// locally minimal counterexample; the message includes the case seed
/// for `SPASM_PT_SEED` replay.
pub fn check<T: Clone + Debug>(name: &str, gen: &Gen<T>, prop: impl Fn(&T) -> Result<(), String>) {
    check_with(Config::default(), name, gen, prop);
}

/// [`check`] with an explicit configuration.
///
/// # Panics
///
/// See [`check`].
pub fn check_with<T: Clone + Debug>(
    config: Config,
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let replay = std::env::var("SPASM_PT_SEED")
        .ok()
        .map(|s| parse_seed(&s).unwrap_or_else(|| panic!("unparsable SPASM_PT_SEED: {s:?}")));
    let cases = match replay {
        Some(_) => 1,
        None => std::env::var("SPASM_PT_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(config.cases),
    };

    // Case seeds form a SplitMix64 stream hashed from the property name,
    // so every property sees its own deterministic inputs.
    let mut seed_stream = fnv1a(name.as_bytes());
    for case in 0..cases {
        let case_seed = match replay {
            Some(s) => s,
            None => spasm_prng::splitmix64(&mut seed_stream),
        };
        let value = gen.generate(&mut TestRng::seed_from_u64(case_seed));
        if let Err(msg) = run_case(&prop, &value) {
            let (minimal, minimal_msg, steps) =
                shrink_failure(gen, &prop, value, msg, config.max_shrinks);
            panic!(
                "property '{name}' failed at case {case}/{cases}\
                 \n  counterexample (after {steps} shrink steps): {minimal:?}\
                 \n  error: {minimal_msg}\
                 \n  replay: SPASM_PT_SEED={case_seed:#018x} cargo test -q"
            );
        }
    }
}

/// Runs one case, converting panics into `Err` so plain `assert!`
/// helpers inside properties participate in shrinking.
fn run_case<T>(prop: &impl Fn(&T) -> Result<(), String>, value: &T) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "property panicked".to_string())),
    }
}

/// Greedy bounded shrinking: repeatedly adopt the first candidate that
/// still fails, until no candidate fails or the budget runs out.
fn shrink_failure<T: Clone + Debug>(
    gen: &Gen<T>,
    prop: &impl Fn(&T) -> Result<(), String>,
    mut failing: T,
    mut msg: String,
    budget: u32,
) -> (T, String, u32) {
    let mut spent = 0u32;
    'outer: while spent < budget {
        for cand in gen.shrink_candidates(&failing) {
            if spent >= budget {
                break 'outer;
            }
            spent += 1;
            if let Err(e) = run_case(prop, &cand) {
                failing = cand;
                msg = e;
                continue 'outer;
            }
        }
        break; // local minimum: every candidate passes
    }
    (failing, msg, spent)
}

/// Parses a decimal or `0x`-prefixed hexadecimal seed.
fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// FNV-1a over the property name: stable across runs and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Asserts a condition inside a property, returning `Err` instead of
/// panicking so the harness can shrink the input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {l:?}\n right: {r:?}",
                stringify!($left),
                stringify!($right)
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!($($fmt)+));
        }
    }};
}

/// Asserts inequality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "assertion failed: {} != {}\n  both: {l:?}",
                stringify!($left),
                stringify!($right)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_generates_permutations_and_shrinks_toward_identity() {
        check("shuffled_is_a_permutation", &gens::shuffled(0..12), |p| {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            let identity: Vec<usize> = (0..p.len()).collect();
            prop_assert_eq!(&sorted, &identity);
            Ok(())
        });
        let g = gens::shuffled(4..5);
        let identity: Vec<usize> = (0..4).collect();
        assert!(g.shrink_candidates(&identity).is_empty());
        let scrambled = vec![3, 2, 1, 0];
        let cands = g.shrink_candidates(&scrambled);
        assert!(cands.contains(&identity));
        for c in &cands {
            let mut s = c.clone();
            s.sort_unstable();
            assert_eq!(s, identity, "shrink must stay a permutation: {c:?}");
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check("always_true", &gens::u64s(0..100), |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        seen += counter.get();
        assert_eq!(seen, Config::default().cases);
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let gen = gens::vecs(gens::u64s(0..1000), 0..20);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut stream = fnv1a(b"some_property");
        let mut stream2 = fnv1a(b"some_property");
        for _ in 0..10 {
            a.push(
                gen.generate(&mut TestRng::seed_from_u64(spasm_prng::splitmix64(
                    &mut stream,
                ))),
            );
            b.push(
                gen.generate(&mut TestRng::seed_from_u64(spasm_prng::splitmix64(
                    &mut stream2,
                ))),
            );
        }
        assert_eq!(a, b);
        let mut other = fnv1a(b"other_property");
        let c = gen.generate(&mut TestRng::seed_from_u64(spasm_prng::splitmix64(
            &mut other,
        )));
        assert_ne!(a[0], c, "distinct properties should see distinct cases");
    }

    #[test]
    fn failing_property_shrinks_to_minimal_vector() {
        // Property: no vector contains an element >= 50. The minimal
        // counterexample is the single element [50].
        let gen = gens::vecs(gens::u64s(0..100), 0..40);
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("has_big_element", &gen, |v| {
                prop_assert!(v.iter().all(|&x| x < 50), "big element in {v:?}");
                Ok(())
            });
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("counterexample"), "{msg}");
        assert!(msg.contains("[50]"), "expected minimal [50], got: {msg}");
        assert!(msg.contains("SPASM_PT_SEED=0x"), "{msg}");
    }

    #[test]
    fn integer_shrinking_reaches_the_boundary() {
        // Property: x < 25 over 10..100. The minimal failure is 25.
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("ints_below_25", &gens::u64s(10..100), |&x| {
                prop_assert!(x < 25);
                Ok(())
            });
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains(": 25\n"), "expected minimal 25, got: {msg}");
    }

    #[test]
    fn tuple_shrinking_is_per_coordinate() {
        let gen = gens::tuple2(gens::u64s(0..100), gens::u64s(0..100));
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("tuple_sum_small", &gen, |&(a, b)| {
                prop_assert!(a + b < 60);
                Ok(())
            });
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        // Greedy per-coordinate shrinking lands on a boundary pair whose
        // sum is exactly 60 (e.g. (0, 60) or (60, 0)).
        assert!(msg.contains("counterexample"), "{msg}");
    }

    #[test]
    fn panicking_property_is_caught_and_reported() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("panics_inside", &gens::u64s(0..10), |&x| {
                // A helper that panics (rather than returning Err) must
                // still be caught, shrunk, and reported.
                assert!(x >= 10, "boom {x}");
                Ok(())
            });
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn choice_shrinks_toward_earlier_entries() {
        let gen = gens::choice(vec![1u8, 2, 3]);
        assert_eq!(gen.shrink_candidates(&3), vec![1, 2]);
        assert!(gen.shrink_candidates(&1).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let gen = gens::vecs(gens::u64s(0..10), 2..6);
        for cand in gen.shrink_candidates(&vec![1, 2, 3]) {
            assert!(cand.len() >= 2, "shrank below min length: {cand:?}");
        }
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed("0X2A"), Some(42));
        assert_eq!(parse_seed("  0x10 "), Some(16));
        assert_eq!(parse_seed("zzz"), None);
    }
}
