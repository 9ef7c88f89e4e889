//! Fixed-bucket log-scale latency histograms served over the wire.
//!
//! A metrics answer ships the whole distribution, so clients (and the
//! bench harness) can derive *any* quantile — including the tail quantiles
//! (p99.9) that SLO work actually cares about — from one answer.
//!
//! # Bucket definition
//!
//! [`HIST_BUCKETS`] = 32 buckets over **microseconds**, log₂-spaced:
//!
//! * bucket `0` holds samples of 0 µs (sub-microsecond),
//! * bucket `i` (1 ≤ i ≤ 30) holds samples in `[2^(i−1), 2^i)` µs,
//! * bucket `31` holds everything ≥ 2³⁰ µs (≈ 18 minutes).
//!
//! The geometry is fixed by the protocol (documented in `docs/SERVE.md`),
//! so histograms from different daemons merge bucket-wise and the wire
//! encoding is a flat array of counts — no bucket-boundary negotiation.
//!
//! Quantiles are derived conservatively: [`LatencyHistogram::quantile_ms`]
//! answers the **upper bound** of the bucket holding the requested rank
//! (clamped to the observed maximum), so a reported p99 never understates
//! the true p99 by more than one bucket width.

/// Number of log₂ buckets in a [`LatencyHistogram`]. Fixed by the wire
/// protocol.
pub const HIST_BUCKETS: usize = 32;

/// A log₂-bucketed latency distribution over microsecond samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Total samples recorded.
    count: u64,
    /// Sum of all samples, microseconds (for the mean).
    sum_us: u64,
    /// Largest sample observed, microseconds.
    max_us: u64,
    /// Per-bucket sample counts (see the module docs for the geometry).
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: 0,
            sum_us: 0,
            max_us: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a histogram from wire fields. Counts are taken as-is (a
    /// hostile peer can only lie about its own latencies).
    pub fn from_parts(count: u64, sum_us: u64, max_us: u64, buckets: [u64; HIST_BUCKETS]) -> Self {
        LatencyHistogram {
            count,
            sum_us,
            max_us,
            buckets,
        }
    }

    /// The bucket index a sample of `us` microseconds lands in.
    pub fn bucket_of(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// The exclusive upper bound of bucket `i`, microseconds (the last
    /// bucket is open-ended; its bound is saturated).
    pub fn bucket_upper_us(i: usize) -> u64 {
        if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one sample of `us` microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
        self.buckets[Self::bucket_of(us)] += 1;
    }

    /// Records one sample from a wall-clock duration.
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Merges another histogram into this one (bucket geometries are
    /// protocol-fixed, so this is a plain element-wise sum).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest sample observed, microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Mean sample, milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_us as f64 / self.count as f64) / 1e3
        }
    }

    /// The `q`-quantile (0 < q ≤ 1), milliseconds: the upper bound of the
    /// bucket holding the rank-⌈q·count⌉ sample, clamped to the observed
    /// maximum. Returns 0 for an empty histogram.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = Self::bucket_upper_us(i).min(self.max_us);
                return upper as f64 / 1e3;
            }
        }
        self.max_us as f64 / 1e3
    }

    /// Median, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.quantile_ms(0.50)
    }

    /// 95th percentile, milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.quantile_ms(0.95)
    }

    /// 99th percentile, milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.quantile_ms(0.99)
    }

    /// 99.9th percentile, milliseconds — the tail the SLO bench rows track.
    pub fn p999_ms(&self) -> f64 {
        self.quantile_ms(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_is_log2_over_microseconds() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Every bucket's lower bound lands in that bucket.
        for i in 1..HIST_BUCKETS - 1 {
            assert_eq!(LatencyHistogram::bucket_of(1 << (i - 1)), i);
            assert_eq!(LatencyHistogram::bucket_of((1 << i) - 1), i);
        }
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let mut h = LatencyHistogram::new();
        // 99 samples at ~1 ms (bucket of 1000 µs) and 1 at ~100 ms.
        for _ in 0..99 {
            h.record_us(1000);
        }
        h.record_us(100_000);
        assert_eq!(h.count(), 100);
        // p50/p95 land in the 1000 µs bucket: upper bound 1024 µs.
        assert!((h.p50_ms() - 1.024).abs() < 1e-9);
        assert!((h.p95_ms() - 1.024).abs() < 1e-9);
        // p99 is the 99th of 100 samples — still the 1 ms bucket.
        assert!((h.p99_ms() - 1.024).abs() < 1e-9);
        // p99.9 reaches the tail sample; clamped to the observed max.
        assert!((h.p999_ms() - 100.0).abs() < 1e-9);
        assert!((h.mean_ms() - (99.0 * 1.0 + 100.0) / 100.0).abs() < 1e-6);
    }

    #[test]
    fn merge_is_elementwise_and_empty_is_zero() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.p50_ms(), 0.0);
        assert_eq!(empty.p999_ms(), 0.0);
        assert_eq!(empty.mean_ms(), 0.0);

        let mut a = LatencyHistogram::new();
        a.record_us(10);
        let mut b = LatencyHistogram::new();
        b.record_us(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_us(), 1_000_000);
        assert_eq!(a.sum_us(), 1_000_010);
        let round_trip =
            LatencyHistogram::from_parts(a.count(), a.sum_us(), a.max_us(), *a.buckets());
        assert_eq!(round_trip, a);
    }
}
