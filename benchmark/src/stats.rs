//! Order statistics and the seeded generator behind the benchmark's inputs.

/// The `q`-quantile (0..=1) of `sorted` by nearest rank: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even count so a
/// two-pass run does not systematically report its slower pass.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The smallest of `values`: the estimator for anything host
/// interference can only inflate.
pub fn min_of(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::MAX, f64::min)
}

/// How many of `n` samples lie beyond the nearest-rank `q`-quantile. A
/// reported tail percentile needs at least ten: p99 of 1 000 probe
/// samples, p75 of the grid's 41 points.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// splitmix64: the whole input generator. The simulator never sees this
/// stream, only the `.scn` text and seeds drawn from it.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.50), 500.0);
        assert_eq!(quantile_sorted(&s, 0.99), 990.0);
        assert_eq!(quantile_sorted(&s, 1.0), 1000.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }

    #[test]
    fn reported_tails_keep_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(41, 0.75), 10);
        assert_eq!(samples_beyond(41, 0.85), 6);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn splitmix_is_seed_deterministic_and_in_range() {
        let mut a = SplitMix64(1995);
        let mut b = SplitMix64(1995);
        let mut c = SplitMix64(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..1000 {
            let v = a.range(3, 9);
            assert!((3..=9).contains(&v));
        }
    }
}
