//! A fixed reference workload that does not depend on the program under
//! test: sorting, hashing and string building over seeded data, the kinds
//! of work the engine does. On a shared machine, speed drifts by tens of
//! percent over seconds; timing this kernel several times a round measures
//! that drift, and every timed sample is scaled by the kernel times taken
//! nearest to it on the thread that waited for it.

use crate::stats::{small_median, Rng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 1 << 16;

/// The eighth-size kernel's share of the full kernel's time on the
/// reference machine (sorting makes it less than an eighth).
const SMALL_SHARE: f64 = 1.0 / 8.85;

/// Time one run of the kernel over `len` keys.
fn kernel(len: usize) -> Duration {
    let t = Instant::now();
    let mut rng = Rng::new(0x00ca_11b7);
    let mut keys: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let mut map: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, k) in keys.iter().enumerate() {
        map.insert(k >> 24, i);
    }
    let mut iris: Vec<String> = keys
        .iter()
        .step_by(4)
        .map(|k| format!("<http://example.org/{k:x}>"))
        .collect();
    iris.sort_unstable();
    black_box((map.len(), iris));
    t.elapsed()
}

/// The kernel's median time on the reference machine (two cores at
/// 2.1 GHz, unloaded). Reported times are scaled to that machine.
pub const REFERENCE_MS: f64 = 6.0;

/// Kernel times over a measurement, in the order they were taken.
#[derive(Default)]
pub struct Speed {
    at: Vec<Instant>,
    ms: Vec<f64>,
}

impl Speed {
    /// Time the kernel once (~6 ms).
    pub fn sample(&mut self) {
        self.push(kernel(N).as_secs_f64() * 1e3);
    }

    /// Time the eighth-size kernel once (~0.7 ms), recorded as the full
    /// kernel's equivalent: cheap enough to run after every write batch.
    pub fn sample_small(&mut self) {
        self.push(kernel(N / 8).as_secs_f64() * 1e3 / SMALL_SHARE);
    }

    fn push(&mut self, ms: f64) {
        self.at.push(Instant::now());
        self.ms.push(ms);
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// Median kernel time, ms.
    pub fn median_ms(&self) -> f64 {
        small_median(&self.ms)
    }

    /// Factor that scales a time measured at `t` to the reference machine:
    /// `REFERENCE_MS` over the median of the three kernel times taken
    /// nearest to `t`.
    pub fn scale_at(&self, t: Instant) -> f64 {
        let i = self.at.partition_point(|a| *a < t);
        let lo = i.saturating_sub(1).min(self.ms.len().saturating_sub(3));
        REFERENCE_MS / small_median(&self.ms[lo..(lo + 3).min(self.ms.len())])
    }
}

/// A value of `unit` measured while the kernel's median time was
/// `kernel_ms`, scaled to the reference machine: times are multiplied by
/// `REFERENCE_MS / kernel_ms`, other units kept.
pub fn normalize(value: f64, unit: &str, kernel_ms: f64) -> f64 {
    match unit {
        "s" | "us" => value * REFERENCE_MS / kernel_ms,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_with_the_kernel_and_counts_do_not() {
        // On a machine half as fast the kernel takes twice as long.
        let slow = 2.0 * REFERENCE_MS;
        assert_eq!(normalize(0.5, "s", slow), 0.25);
        assert_eq!(normalize(300.0, "us", slow), 150.0);
        assert_eq!(normalize(7.0, "count", slow), 7.0);
        assert_eq!(normalize(0.9, "ratio", REFERENCE_MS), 0.9);
    }

    #[test]
    fn small_samples_are_recorded_as_full_kernel_equivalents() {
        let (mut full, mut small) = (Speed::default(), Speed::default());
        for _ in 0..15 {
            full.sample();
            small.sample_small();
        }
        let ratio = small.median_ms() / full.median_ms();
        assert!((0.5..2.0).contains(&ratio), "small/full = {ratio}");
    }

    #[test]
    fn a_sample_is_scaled_by_the_kernel_times_nearest_to_it() {
        let t0 = Instant::now();
        let speed = Speed {
            at: (0..8).map(|i| t0 + Duration::from_secs(i)).collect(),
            // A fast phase, then one twice as slow.
            ms: vec![6.0, 6.0, 6.0, 6.0, 12.0, 12.0, 12.0, 12.0],
        };
        assert_eq!(speed.scale_at(t0 + Duration::from_millis(1500)), 1.0);
        assert_eq!(speed.scale_at(t0 + Duration::from_millis(5500)), 0.5);
        // Before the first and after the last sample: the three at that end.
        assert_eq!(speed.scale_at(t0), 1.0);
        assert_eq!(speed.scale_at(t0 + Duration::from_secs(60)), 0.5);
        assert_eq!(speed.median_ms(), 12.0);
    }
}
