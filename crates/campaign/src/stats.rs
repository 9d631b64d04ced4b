//! Streaming (single-pass, O(1)-memory) statistics for campaign cells.
//!
//! Campaign grids can hold millions of runs, so per-group statistics are
//! accumulated online: count / min / max, mean and variance via Welford's
//! algorithm, and approximate quantiles via the P² sketch of Jain & Chlamtac
//! (CACM 1985). Accumulation is deterministic: feeding the same values in
//! the same order always yields the same state, which the campaign artifact
//! tests rely on. Accumulators never leave the process: partial artifacts
//! carry cells, and every merge site rebuilds the statistics from them.

/// P² online estimator for a single quantile.
///
/// Keeps five markers; after the first five observations every update is
/// O(1). Estimates are exact until five observations have been seen and
/// approximate afterwards (error shrinks as the stream grows).
#[derive(Clone, Debug)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the quantile curve).
    q: [f64; 5],
    /// Marker positions, 1-based as in the paper.
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments per observation.
    dn: [f64; 5],
    count: u64,
    /// First observations, sorted lazily until the sketch initializes.
    warmup: Vec<f64>,
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
            warmup: Vec::with_capacity(5),
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
            self.warmup.push(x);
            self.warmup.sort_by(f64::total_cmp);
            if self.count == 5 {
                self.q.copy_from_slice(&self.warmup);
            }
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

    /// Merges another sketch of the **same quantile** into this one.
    ///
    /// Exactness contract:
    ///
    /// * merging into an **empty** sketch copies `other` bit-for-bit;
    /// * merging an **empty** sketch is a no-op;
    /// * if either side is still warming up (≤ 5 observations), its raw
    ///   observations are replayed into the other — exact equivalence with
    ///   sequential feeding of those values.
    ///
    /// When both sketches are initialized the merge is the standard
    /// **approximation**: each sketch is read as a piecewise-linear CDF
    /// through its five markers, the two CDFs are mixed with weights
    /// proportional to their counts, and the mixture is inverted at the
    /// five desired marker fractions. Deterministic, `O(1)`, error
    /// comparable to the P² estimation error itself.
    ///
    /// # Panics
    ///
    /// Panics if the sketches target different quantiles.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            (self.p - other.p).abs() < 1e-12,
            "cannot merge sketches for different quantiles ({} vs {})",
            self.p,
            other.p
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        if other.count <= 5 {
            for &x in &other.warmup {
                self.push(x);
            }
            return;
        }
        if self.count <= 5 {
            let mut merged = other.clone();
            for &x in &self.warmup {
                merged.push(x);
            }
            *self = merged;
            return;
        }
        let total = self.count + other.count;
        let p = self.p;
        let fracs = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0];
        let mut q_new = [0.0f64; 5];
        for (i, &f) in fracs.iter().enumerate() {
            q_new[i] = inverse_mixture_cdf(self, other, f);
        }
        // Markers must stay non-decreasing even under floating-point noise.
        for i in 1..5 {
            q_new[i] = q_new[i].max(q_new[i - 1]);
        }
        self.q = q_new;
        self.count = total;
        // Reset actual and desired positions to the canonical desired
        // positions for `total` observations (the state a perfectly
        // balanced sketch would be in).
        let m = total as f64;
        self.np = [
            1.0,
            (m - 1.0) * p / 2.0 + 1.0,
            (m - 1.0) * p + 1.0,
            (m - 1.0) * (1.0 + p) / 2.0 + 1.0,
            m,
        ];
        self.n = self.np;
    }

    /// Cumulative fraction of this sketch's observations at or below `x`,
    /// reading the five markers as a piecewise-linear CDF.
    fn cdf(&self, x: f64) -> f64 {
        debug_assert!(self.count > 5, "cdf only defined for initialized sketches");
        if x <= self.q[0] {
            return if x == self.q[0] { self.frac_at(0) } else { 0.0 };
        }
        if x >= self.q[4] {
            return 1.0;
        }
        for i in 0..4 {
            if x <= self.q[i + 1] {
                let (f0, f1) = (self.frac_at(i), self.frac_at(i + 1));
                if self.q[i + 1] <= self.q[i] {
                    return f1;
                }
                return f0 + (f1 - f0) * (x - self.q[i]) / (self.q[i + 1] - self.q[i]);
            }
        }
        1.0
    }

    /// Cumulative fraction represented by marker `i`.
    fn frac_at(&self, i: usize) -> f64 {
        if self.count <= 1 {
            return 1.0;
        }
        ((self.n[i] - 1.0) / (self.count as f64 - 1.0)).clamp(0.0, 1.0)
    }

    /// The current quantile estimate (`None` before any observation).
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count <= 5 {
            // Exact while warming up: nearest-rank on the sorted prefix.
            let rank = (self.p * self.warmup.len() as f64).ceil() as usize;
            return Some(self.warmup[rank.clamp(1, self.warmup.len()) - 1]);
        }
        Some(self.q[2])
    }
}

/// Inverts the count-weighted mixture of two initialized sketches' CDFs at
/// fraction `f`: the smallest `x` (up to linear interpolation between
/// marker breakpoints) with `(ca·Fa(x) + cb·Fb(x)) / (ca + cb) >= f`.
fn inverse_mixture_cdf(a: &P2Quantile, b: &P2Quantile, f: f64) -> f64 {
    let (wa, wb) = (a.count as f64, b.count as f64);
    let total = wa + wb;
    let mix = |x: f64| (wa * a.cdf(x) + wb * b.cdf(x)) / total;
    // The mixture is piecewise linear with breakpoints at both sketches'
    // markers: walk the sorted breakpoints and interpolate inside the
    // bracketing segment.
    let mut xs: Vec<f64> = a.q.iter().chain(b.q.iter()).copied().collect();
    xs.sort_by(f64::total_cmp);
    if f <= 0.0 {
        return xs[0];
    }
    let mut prev = xs[0];
    let mut prev_f = mix(prev);
    if prev_f >= f {
        return prev;
    }
    for &x in &xs[1..] {
        let fx = mix(x);
        if fx >= f {
            if fx <= prev_f {
                return x;
            }
            return prev + (x - prev) * (f - prev_f) / (fx - prev_f);
        }
        prev = x;
        prev_f = fx;
    }
    *xs.last().expect("breakpoints nonempty")
}

/// Streaming summary of one scalar metric: count, min/max, mean/variance
/// (Welford) and p50/p90/p99 sketches.
#[derive(Clone, Debug)]
pub struct OnlineStats {
    count: u64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
    p50: P2Quantile,
    p90: P2Quantile,
    p99: P2Quantile,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
            p50: P2Quantile::new(0.5),
            p90: P2Quantile::new(0.9),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.p50.push(x);
        self.p90.push(x);
        self.p99.push(x);
    }

    /// Merges another accumulator into this one, as if `other`'s stream had
    /// been appended to `self`'s.
    ///
    /// Count, min and max merge exactly. Mean and variance merge via the
    /// parallel Welford combination (Chan et al.), numerically equivalent
    /// to sequential accumulation up to floating-point rounding — and
    /// **bit-for-bit exact when `self` is empty** (plain copy). Quantile
    /// sketches merge via [`P2Quantile::merge`] (same exactness contract,
    /// approximate when both sides are initialized). The campaign executor
    /// merges only the fixed-size chunks of seed-heavy groups, so its
    /// artifacts never depend on how a campaign was split.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / (n1 + n2);
        self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.p50.merge(&other.p50);
        self.p90.merge(&other.p90);
        self.p99.merge(&other.p99);
    }

    /// Observations seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// P² estimate of the median.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.p50.estimate().unwrap_or(0.0)
    }

    /// P² estimate of the 90th percentile.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.p90.estimate().unwrap_or(0.0)
    }

    /// P² estimate of the 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.p99.estimate().unwrap_or(0.0)
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

    #[test]
    fn merging_warmup_sketches_is_exact() {
        // A sketch with <= 5 observations replays its raw values: merging is
        // exactly sequential feeding.
        let mut a = P2Quantile::new(0.5);
        for x in [4.0, 1.0] {
            a.push(x);
        }
        let mut b = P2Quantile::new(0.5);
        for x in [9.0, 2.0, 7.0] {
            b.push(x);
        }
        let mut seq = P2Quantile::new(0.5);
        for x in [4.0, 1.0, 9.0, 2.0, 7.0] {
            seq.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.estimate(), seq.estimate());
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

    #[test]
    #[should_panic(expected = "different quantiles")]
    fn merge_rejects_mismatched_quantiles() {
        let mut a = P2Quantile::new(0.5);
        a.merge(&P2Quantile::new(0.9));
    }
}
