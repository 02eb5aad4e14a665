//! Latency histograms with percentile queries.
//!
//! The paper's motivation leans on the *distribution* of FTL latencies (0.45 ms
//! average 4 KB random writes with 80 ms outliers), so the harness reports
//! percentiles, not just means.  [`Histogram`] is a log-linear bucketed
//! histogram: cheap to update, accurate to a few percent at the tails, and
//! mergeable across simulation actors.

use serde::{Deserialize, Serialize};

/// Number of linear sub-buckets per power-of-two bucket.
const SUB_BUCKETS: usize = 16;
/// Number of power-of-two buckets (covers values up to 2^40 ns ≈ 18 minutes).
const POW_BUCKETS: usize = 41;

/// A log-linear histogram of non-negative `u64` samples (typically latencies
/// in nanoseconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SUB_BUCKETS * POW_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let pow = 63 - value.leading_zeros() as usize; // floor(log2(value))
        let base_pow = (SUB_BUCKETS as u64).trailing_zeros() as usize; // 4
        let pow_bucket = (pow - base_pow + 1).min(POW_BUCKETS - 1);
        let shift = pow - base_pow;
        // `value >> shift` lands in [SUB_BUCKETS, 2*SUB_BUCKETS).
        let sub = ((value >> shift) as usize) - SUB_BUCKETS;
        (pow_bucket * SUB_BUCKETS + sub).min(SUB_BUCKETS * POW_BUCKETS - 1)
    }

    fn bucket_low(index: usize) -> u64 {
        let pow_bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if pow_bucket == 0 {
            return sub;
        }
        let shift = pow_bucket - 1;
        (SUB_BUCKETS as u64 + sub) << shift
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Largest value mapping into bucket `index` (inclusive).
    fn bucket_high(index: usize) -> u64 {
        if index + 1 >= SUB_BUCKETS * POW_BUCKETS {
            return u64::MAX;
        }
        Self::bucket_low(index + 1) - 1
    }

    /// Approximate `q`-quantile (e.g. `0.5`, `0.99`).  Returns the *upper*
    /// bound of the bucket containing the quantile (clamped to the observed
    /// min/max), so a reported tail latency is never below the true sample —
    /// an SLO report errs toward overstating, by at most one sub-bucket
    /// (1/16 ≈ 6.25% relative).  0 if empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil() as u64;
        let target = target.max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_high(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Batch quantile query: one value per requested quantile, in the order
    /// given (e.g. `&[0.5, 0.99, 0.999]` → p50/p99/p999).
    pub fn percentiles(&self, qs: &[f64]) -> Vec<u64> {
        qs.iter().map(|&q| self.percentile(q)).collect()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Reset all recorded samples.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.percentile(0.5), 42);
        assert!((h.mean() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 100);
        }
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // p50 of uniform 0..1M should be around 500k, allow log-bucket error.
        assert!(
            (400_000..700_000).contains(&p50),
            "p50 {p50} outside expected band"
        );
    }

    #[test]
    fn outliers_visible_in_p999() {
        let mut h = Histogram::new();
        // 0.45ms typical writes with rare 80ms outliers (the paper's example).
        for i in 0..10_000u64 {
            if i % 1000 == 0 {
                h.record(80_000_000);
            } else {
                h.record(450_000);
            }
        }
        assert!(h.percentile(0.5) < 1_000_000);
        assert!(h.percentile(0.9995) > 40_000_000);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..100 {
            a.record(i);
            b.record(1000 + i);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert!(a.max() >= 1099);
        assert_eq!(a.min(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(5);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn percentile_is_bucket_upper_bound() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(450_000);
        }
        h.record(80_000_000); // lift max above the p50 bucket so no clamp
        let p50 = h.percentile(0.5);
        assert!(p50 > 450_000, "upper bound sits strictly above the sample");
        assert!(
            p50 <= 450_000 + 450_000 / 16 + 1,
            "within one sub-bucket (6.25%): got {p50}"
        );
    }

    #[test]
    fn tail_percentiles_err_from_above_within_one_sub_bucket() {
        let mut h = Histogram::new();
        // 0.2% outliers at 80ms: the 0.999 quantile lands in the outlier
        // bucket while p50/p99 stay on the 0.45ms mass.
        for i in 0..10_000u64 {
            if i % 500 == 0 {
                h.record(80_000_000);
            } else {
                h.record(450_000);
            }
        }
        let p = h.percentiles(&[0.5, 0.99, 0.999]);
        assert_eq!(p.len(), 3);
        assert!(p[0] >= 450_000 && p[0] <= 450_000 + 450_000 / 16 + 1);
        assert!(p[1] >= 450_000 && p[1] <= 450_000 + 450_000 / 16 + 1);
        assert!(
            p[2] >= 80_000_000,
            "p999 never understates the tail: got {}",
            p[2]
        );
        assert!(
            p[2] <= 80_000_000 + 80_000_000 / 16 + 1,
            "p999 within one sub-bucket above the true value: got {}",
            p[2]
        );
        assert!(p[0] <= p[1] && p[1] <= p[2]);
    }

    #[test]
    fn bucket_index_monotone_nondecreasing() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "bucket index decreased at {v}");
            last = idx;
        }
    }
}
