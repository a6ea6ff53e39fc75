//! Shared helpers for the application kernels.

use spasm_prng::{mix64, StdRng};

/// Deterministic per-processor RNG: mixes the run seed and processor id so
/// every machine model sees the identical workload.
pub(crate) fn proc_rng(seed: u64, proc: usize) -> StdRng {
    // The SplitMix avalanche keeps nearby (seed, proc) pairs uncorrelated.
    StdRng::seed_from_u64(mix64(
        seed ^ (proc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// The contiguous `[lo, hi)` range of `n` items owned by `proc` of `p`
/// under block distribution (remainders spread over the low processors).
pub(crate) fn block_range(n: usize, p: usize, proc: usize) -> (usize, usize) {
    let base = n / p;
    let rem = n % p;
    let lo = proc * base + proc.min(rem);
    let hi = lo + base + usize::from(proc < rem);
    (lo, hi)
}

/// Relative-error comparison for verifiers.
pub(crate) fn close(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_prng::Rng;

    #[test]
    fn proc_rngs_differ_and_are_stable() {
        let a: u64 = proc_rng(1, 0).next_u64();
        let b: u64 = proc_rng(1, 1).next_u64();
        let a2: u64 = proc_rng(1, 0).next_u64();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn block_range_covers_exactly() {
        for n in [1usize, 7, 16, 100] {
            for p in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut last_hi = 0;
                for proc in 0..p {
                    let (lo, hi) = block_range(n, p, proc);
                    assert_eq!(lo, last_hi, "ranges must be contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    last_hi = hi;
                }
                assert_eq!(covered, n);
                assert_eq!(last_hi, n);
            }
        }
    }

    #[test]
    fn close_comparisons() {
        assert!(close(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!close(1.0, 1.1, 1e-3));
        assert!(close(0.0, 1e-10, 1e-9)); // absolute floor at scale 1
    }
}
