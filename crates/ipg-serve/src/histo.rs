//! The shared log₂ latency histogram: one bucketing scheme behind the
//! stats snapshot's percentiles ([`crate::stats`]) and the Prometheus
//! exposition's buckets, so the two agree bucket-for-bucket.
//!
//! Bucket `i` counts observations whose value in microseconds fell in
//! `[2^i, 2^(i+1))`; values of 0 are clamped into bucket 0, and the last
//! bucket is open-ended (any value ≥ 2^39 µs, i.e. ≳ 6 days). Recording
//! is a single relaxed `fetch_add` plus a relaxed sum update, so it is
//! safe on the request hot path. Percentiles are answered from bucket
//! boundaries (geometric midpoints), which on a log₂ scale is plenty
//! for p50/p99.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets. `[2^0, 2^40)` µs spans sub-microsecond to
/// multi-day latencies.
pub const BUCKET_COUNT: usize = 40;

/// The bucket index for a value in microseconds: `floor(log₂(max(us,
/// 1)))`, clamped to the last bucket.
#[inline]
pub fn bucket_index(us: u64) -> usize {
    (63 - us.max(1).leading_zeros() as usize).min(BUCKET_COUNT - 1)
}

/// The exclusive upper bound of bucket `i` in microseconds (the last
/// bucket is open-ended; its nominal bound is still returned).
pub fn bucket_hi(i: usize) -> u64 {
    1u64 << (i + 1)
}

/// The geometric midpoint of bucket `i` — the value percentile queries
/// report for ranks landing in the bucket.
pub fn bucket_mid(i: usize) -> u64 {
    (1u64 << i) + (1u64 << i) / 2
}

/// The `p`-th percentile (0.0–1.0) over externally-collected bucket
/// counts, in microseconds; 0 when the counts are all zero. This is the
/// pure core shared by [`LogHistogram::percentile`] and snapshot-side
/// consumers.
pub fn percentile_of(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_mid(i);
        }
    }
    unreachable!("rank is clamped to the total count")
}

/// A thread-safe log₂-bucketed histogram of microsecond values, with a
/// running sum so exporters can emit Prometheus `_sum`/`_count`.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_us: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Records a duration (as whole microseconds).
    pub fn record(&self, latency: Duration) {
        self.record_us(latency.as_micros() as u64);
    }

    /// Records a raw microsecond value.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn counts(&self) -> [u64; BUCKET_COUNT] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Sum of all recorded values, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// The `p`-th percentile (0.0–1.0) in microseconds, 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_of(&self.counts(), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // 0 clamps into bucket 0 (no shift by 64, no panic).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        // Exact powers of two open a new bucket; their predecessors don't.
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        // The top of the range clamps into the open-ended last bucket.
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(1 << 39), BUCKET_COUNT - 1);
        assert_eq!(bucket_index((1 << 39) - 1), BUCKET_COUNT - 2);
    }

    #[test]
    fn bounds_and_midpoints_are_consistent() {
        for i in 0..BUCKET_COUNT - 1 {
            let lo = 1u64 << i;
            assert!(lo <= bucket_mid(i) && bucket_mid(i) < bucket_hi(i), "bucket {i}");
            // Every in-range value maps back into its own bucket.
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(bucket_hi(i) - 1), i);
        }
    }

    #[test]
    fn quantile_interpolation_reports_geometric_midpoints() {
        let h = LogHistogram::default();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 5000] {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        // p50 of the sample sits in the 64–128µs bucket (midpoint 96).
        assert_eq!(p50, 96);
        // p99 lands in the 4096–8192µs bucket (midpoint 6144).
        assert_eq!(p99, 6144);
        // Extremes are exact bucket midpoints, not interpolation artifacts.
        assert_eq!(h.percentile(0.0), bucket_mid(0));
        assert_eq!(h.percentile(1.0), bucket_mid(bucket_index(5000)));
        // Sum backs the Prometheus `_sum` series.
        assert_eq!(h.sum_us(), 1 + 2 + 3 + 400 + 5000);
        assert_eq!(h.counts().iter().sum::<u64>(), 8);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogHistogram::default();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
        assert_eq!(h.sum_us(), 0);
    }

    #[test]
    fn extreme_values_record_without_overflowing_buckets() {
        let h = LogHistogram::default();
        h.record_us(0);
        h.record_us(u64::MAX);
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[BUCKET_COUNT - 1], 1);
        assert_eq!(counts.iter().sum::<u64>(), 2);
    }
}
