//! Sample statistics and the seeded generator the workloads draw from.

use std::time::Duration;

/// SplitMix64: a small, seedable generator. The benchmark's inputs come only
/// from the `--seed` argument, so the same seed replays the same requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when fewer
/// than ten samples lie beyond it — a percentile that few samples support
/// is noise, not a measurement.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    let n = samples.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    if n - rank.min(n) < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Per-strategy mix time: the sum over templates of each template's median
/// latency. Unlike the median of the pooled samples it cannot jump between
/// templates when two of them sit near the middle rank.
pub fn mix_sum(per_template: &[Vec<f64>]) -> Option<f64> {
    per_template.iter().map(|s| percentile(s, 50)).sum()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of a handful of repetitions (set-up times): unlike
/// [`percentile`] it accepts any non-empty sample.
pub fn small_median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&s, 99), None);
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99), Some(989.0));
        assert_eq!(percentile(&s[..19], 50), None);
        assert_eq!(percentile(&s[..20], 50), Some(9.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn mix_is_the_sum_of_per_template_medians() {
        // Template A is fast, template B slow: the pooled median lands on
        // whichever sits at the middle rank, the mix time on both medians.
        let a: Vec<f64> = (0..21).map(|i| 10.0 + f64::from(i)).collect();
        let b: Vec<f64> = (0..21).map(|i| 1000.0 + f64::from(i)).collect();
        assert_eq!(mix_sum(&[a.clone(), b.clone()]), Some(20.0 + 1010.0));
        let pooled: Vec<f64> = a.iter().chain(&b).copied().collect();
        assert_ne!(percentile(&pooled, 50), mix_sum(&[a.clone(), b]));
        // A template without a supported median makes the mix unsupported.
        assert_eq!(mix_sum(&[a, vec![1.0; 5]]), None);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }
}
