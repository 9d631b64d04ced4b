//! Per-group statistics for campaign cells.
//!
//! [`OnlineStats`] keeps a metric's observations in feed order and derives
//! every statistic from them, read in that order: count / min / max, mean
//! and variance via Welford's algorithm, and approximate quantiles via the
//! P² sketch of Jain & Chlamtac (CACM 1985). Feeding the same values in the
//! same order always yields the same numbers, which the campaign artifact
//! tests rely on, and merging appends, so a merged accumulator is exactly
//! the sequential one. Keeping the observations costs one `f64` per cell
//! and metric: a campaign result already holds every cell, each far
//! larger, so the statistics add no memory bound of their own.

/// P² online estimator for a single quantile.
///
/// Keeps five markers; after the first five observations every update is
/// O(1). Estimates are exact until five observations have been seen and
/// approximate afterwards (error shrinks as the stream grows).
#[derive(Clone, Debug)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the quantile curve); while warming
    /// up, the observations seen so far, sorted.
    q: [f64; 5],
    /// Marker positions, 1-based as in the paper.
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments per observation.
    dn: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// A sketch for the `p`-quantile, `0 < p < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly between 0 and 1.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        Self {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The target quantile.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Observations seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            let seen = self.count as usize;
            self.q[seen - 1] = x;
            self.q[..seen].sort_by(f64::total_cmp);
            return;
        }
        // Find the cell containing x, stretching the extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // q is non-decreasing; the last i with q[i] <= x is in 0..=3.
            (0..4).rev().find(|&i| self.q[i] <= x).unwrap_or(0)
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }
        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            let right = self.n[i + 1] - self.n[i];
            let left = self.n[i - 1] - self.n[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let parabolic = self.q[i]
                    + d / (self.n[i + 1] - self.n[i - 1])
                        * ((self.n[i] - self.n[i - 1] + d) * (self.q[i + 1] - self.q[i])
                            / (self.n[i + 1] - self.n[i])
                            + (self.n[i + 1] - self.n[i] - d) * (self.q[i] - self.q[i - 1])
                                / (self.n[i] - self.n[i - 1]));
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    // Fall back to linear interpolation toward the neighbor.
                    let j = if d > 0.0 { i + 1 } else { i - 1 };
                    self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
                };
                self.n[i] += d;
            }
        }
    }

    /// The current quantile estimate (`None` before any observation).
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            // Exact while warming up: nearest-rank on the sorted prefix.
            1..=5 => {
                let seen = self.count as usize;
                let rank = (self.p * seen as f64).ceil() as usize;
                Some(self.q[rank.clamp(1, seen) - 1])
            }
            _ => Some(self.q[2]),
        }
    }
}

/// Summary of one scalar metric: count, min/max, mean/variance (Welford)
/// and p50/p90/p99 (P²), each derived from the observations in feed order.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    /// Every observation, in feed order.
    values: Vec<f64>,
}

impl OnlineStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Appends `other`'s observations to this accumulator's: every
    /// statistic afterwards is, bit for bit, the one of feeding `self`'s
    /// observations and then `other`'s.
    pub fn merge(&mut self, other: &Self) {
        self.values.extend_from_slice(&other.values);
    }

    /// Observations seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Welford's mean and sum of squared deviations, updated in feed
    /// order.
    fn welford(&self) -> (f64, f64) {
        let (mut mean, mut m2) = (0.0, 0.0);
        for (seen, &x) in (1u64..).zip(&self.values) {
            let delta = x - mean;
            mean += delta / seen as f64;
            m2 += delta * (x - mean);
        }
        (mean, m2)
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.welford().0
    }

    /// Population variance (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.values.len() < 2 {
            0.0
        } else {
            self.welford().1 / self.values.len() as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The P² estimate of the `p`-quantile, the sketch fed the
    /// observations in order (0 when empty).
    fn quantile(&self, p: f64) -> f64 {
        let mut sketch = P2Quantile::new(p);
        for &x in &self.values {
            sketch.push(x);
        }
        sketch.estimate().unwrap_or(0.0)
    }

    /// P² estimate of the median.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// P² estimate of the 90th percentile.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.quantile(0.9)
    }

    /// P² estimate of the 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn welford_matches_naive_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..500).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let naive_var = xs.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - naive_mean).abs() < 1e-9);
        assert!((s.variance() - naive_var).abs() < 1e-6);
        assert_eq!(s.count(), 500);
        let exact_min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let exact_max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.min(), exact_min);
        assert_eq!(s.max(), exact_max);
    }

    #[test]
    fn p2_is_exact_on_tiny_streams() {
        let mut q = P2Quantile::new(0.5);
        for x in [5.0, 1.0, 3.0] {
            q.push(x);
        }
        assert_eq!(q.estimate(), Some(3.0));
    }

    #[test]
    fn p2_tracks_quantiles_of_a_uniform_stream() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p50 = P2Quantile::new(0.5);
        let mut p90 = P2Quantile::new(0.9);
        let mut xs = Vec::new();
        for _ in 0..5000 {
            let x = rng.gen_range(0.0..1.0);
            xs.push(x);
            p50.push(x);
            p90.push(x);
        }
        xs.sort_by(f64::total_cmp);
        let exact50 = xs[2499];
        let exact90 = xs[4499];
        assert!((p50.estimate().unwrap() - exact50).abs() < 0.03, "p50 drifted");
        assert!((p90.estimate().unwrap() - exact90).abs() < 0.03, "p90 drifted");
    }

    #[test]
    fn p2_on_integer_heavy_streams_stays_in_range() {
        // Stabilization times are small integers with many ties — the
        // estimate must stay inside the observed range.
        let mut s = OnlineStats::new();
        for i in 0..1000u32 {
            s.push(f64::from(i % 7));
        }
        assert!(s.p50() >= 0.0 && s.p50() <= 6.0);
        assert!(s.p90() >= s.p50());
        assert!(s.p99() <= 6.0);
    }

    #[test]
    fn deterministic_accumulation() {
        let feed = || {
            let mut s = OnlineStats::new();
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..256 {
                s.push(rng.gen_range(0.0..50.0));
            }
            (s.mean(), s.variance(), s.p50(), s.p90(), s.p99())
        };
        assert_eq!(feed(), feed());
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    fn feed_stats(seed: u64, count: usize, lo: f64, hi: f64) -> (OnlineStats, Vec<f64>) {
        let mut s = OnlineStats::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..count).map(|_| rng.gen_range(lo..hi)).collect();
        for &x in &xs {
            s.push(x);
        }
        (s, xs)
    }

    #[test]
    fn merge_into_empty_is_bitwise_copy() {
        let (other, _) = feed_stats(3, 777, 0.0, 50.0);
        let mut empty = OnlineStats::new();
        empty.merge(&other);
        assert_eq!(empty.count(), other.count());
        assert_eq!(empty.mean().to_bits(), other.mean().to_bits());
        assert_eq!(empty.variance().to_bits(), other.variance().to_bits());
        assert_eq!(empty.p50().to_bits(), other.p50().to_bits());
        assert_eq!(empty.p90().to_bits(), other.p90().to_bits());
        assert_eq!(empty.p99().to_bits(), other.p99().to_bits());
        assert_eq!(empty.min(), other.min());
        assert_eq!(empty.max(), other.max());
    }

    #[test]
    fn merge_of_empty_is_noop() {
        let (mut s, _) = feed_stats(5, 321, 0.0, 10.0);
        let snapshot = (s.count(), s.mean(), s.variance(), s.p50(), s.p90(), s.p99());
        s.merge(&OnlineStats::new());
        assert_eq!(snapshot, (s.count(), s.mean(), s.variance(), s.p50(), s.p90(), s.p99()));
    }

    #[test]
    fn merged_welford_matches_naive_concatenation() {
        let (mut a, xs_a) = feed_stats(11, 400, 0.0, 100.0);
        let (b, xs_b) = feed_stats(12, 900, 20.0, 180.0);
        a.merge(&b);
        let all: Vec<f64> = xs_a.iter().chain(xs_b.iter()).copied().collect();
        let naive_mean = all.iter().sum::<f64>() / all.len() as f64;
        let naive_var =
            all.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / all.len() as f64;
        assert_eq!(a.count(), 1300);
        assert!((a.mean() - naive_mean).abs() < 1e-9);
        assert!((a.variance() - naive_var).abs() < 1e-6);
        assert_eq!(a.min(), all.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(a.max(), all.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn merged_quantiles_track_the_concatenated_stream() {
        let (mut a, xs_a) = feed_stats(21, 3000, 0.0, 1.0);
        let (b, xs_b) = feed_stats(22, 5000, 0.0, 1.0);
        a.merge(&b);
        let mut all: Vec<f64> = xs_a.iter().chain(xs_b.iter()).copied().collect();
        all.sort_by(f64::total_cmp);
        let exact = |p: f64| all[((all.len() as f64 * p) as usize).min(all.len() - 1)];
        assert!((a.p50() - exact(0.5)).abs() < 0.05, "p50 {} vs {}", a.p50(), exact(0.5));
        assert!((a.p90() - exact(0.9)).abs() < 0.05, "p90 {} vs {}", a.p90(), exact(0.9));
        assert!((a.p99() - exact(0.99)).abs() < 0.05, "p99 {} vs {}", a.p99(), exact(0.99));
    }

    /// Every accessor's value, as bits.
    fn bits(s: &OnlineStats) -> [u64; 9] {
        [
            s.count(),
            s.min().to_bits(),
            s.max().to_bits(),
            s.mean().to_bits(),
            s.variance().to_bits(),
            s.stddev().to_bits(),
            s.p50().to_bits(),
            s.p90().to_bits(),
            s.p99().to_bits(),
        ]
    }

    #[test]
    fn merge_equals_feeding_both_streams_in_order() {
        // Empty sides, both sides inside P²'s five-observation warm-up,
        // one side past it, and both past it.
        for (len_a, len_b) in [(0, 0), (0, 7), (7, 0), (2, 3), (3, 9), (400, 900)] {
            let (mut a, xs_a) = feed_stats(41, len_a, 0.0, 100.0);
            let (b, xs_b) = feed_stats(42, len_b, 20.0, 180.0);
            let mut sequential = OnlineStats::new();
            for &x in xs_a.iter().chain(&xs_b) {
                sequential.push(x);
            }
            a.merge(&b);
            assert_eq!(bits(&a), bits(&sequential), "{len_a} then {len_b} observations");
        }
    }

    #[test]
    fn merge_is_deterministic() {
        let build = || {
            let (mut a, _) = feed_stats(31, 600, 0.0, 9.0);
            let (b, _) = feed_stats(32, 800, 3.0, 12.0);
            a.merge(&b);
            (a.mean(), a.variance(), a.p50(), a.p90(), a.p99())
        };
        assert_eq!(build(), build());
    }
}
