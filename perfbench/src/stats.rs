//! Percentiles from raw samples.
//!
//! Every latency the benchmark reports is computed here from the raw
//! client-side samples, never from the daemon's 2×-bucket histograms.

/// The percentile ladder a tail is picked from, highest first. It stops at
/// p99: a p99.9 of a few thousand samples moves with a handful of
/// scheduler hiccups and would drown the run-to-run comparison.
const LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// The 1-based nearest rank of percentile `q` among `n` samples. The small
/// slack keeps `q·n/100` that is whole in exact arithmetic from rounding up
/// (99.9 % of 10 000 must be rank 9 990, not 9 991).
fn rank(q: f64, n: usize) -> usize {
    ((q / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `q` (in percent) of ascending `sorted` samples.
///
/// # Panics
///
/// If `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
///
/// # Panics
///
/// If `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    median_of_sorted(&sorted(samples))
}

/// Median of ascending `sorted` samples: the middle one, or the mean of the
/// middle two, so a run of few samples (two colorings) uses all of them.
///
/// # Panics
///
/// If `sorted` is empty.
pub fn median_of_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A copy of `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail latency together with the percentile it is and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen percentile.
    pub value: f64,
    /// The chosen percentile in percent, or 100 for the slowest sample.
    pub percentile: f64,
    /// Samples the tail was computed from.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`TAIL_MARGIN`] samples
/// strictly beyond it. With too few samples for any of them, the slowest
/// sample stands in (`percentile` = 100).
///
/// # Panics
///
/// If `sorted` is empty.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for q in LADDER {
        let r = rank(q, n);
        if r >= 1 && n - r >= TAIL_MARGIN {
            return Tail {
                value: sorted[r - 1],
                percentile: q,
                samples: n,
            };
        }
    }
    Tail {
        value: *sorted.last().expect("tail of no samples"),
        percentile: 100.0,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond.
        let t = tail(&ramp(1000));
        assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
        // Many samples still report p99, the top of the ladder.
        let t = tail(&ramp(10_000));
        assert_eq!((t.value, t.percentile), (9900.0, 99.0));
        // 999 samples: p99 has 9 beyond, so the tail falls to p90.
        let t = tail(&ramp(999));
        assert_eq!(t.percentile, 90.0);
        assert!(999 - (t.value as usize) >= TAIL_MARGIN);
        // 20 samples: p50 has exactly 10 beyond.
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
    }

    #[test]
    fn tail_of_few_samples_is_the_slowest() {
        let t = tail(&sorted(&[1.0, 5.0, 3.0]));
        assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 3));
    }
}
