//! Order statistics for the result files and the latency histogram the
//! hot reader fills.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The smallest value: the unit of work the host disturbed least (see
/// the README on why a floor, not a median, is what the driver is given).
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-quantile (0..=1) by linear interpolation between order
/// statistics — exact samples, for the small sets (tens to thousands)
/// the end-to-end latencies come from.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `compare` and `selfcheck`
/// judge spread the way the driver does. One sample has no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// The percentiles a latency is reported at, lowest first, each with
/// the `n` of "one sample in `n` lies beyond it".
const PERCENTILE_LADDER: [(f64, u64); 5] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1_000),
    (0.9999, 10_000),
];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(samples: u64) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find(|(_, one_in)| samples / one_in >= 10)
        .map(|(p, _)| *p)
}

/// Buckets per power of two: neighbouring bounds differ by 2^(1/32),
/// 2.2 %, so a value reported as its bucket's geometric midpoint is
/// within 1.1 % of any sample in the bucket.
const BUCKETS_PER_OCTAVE: f64 = 32.0;
const BUCKETS: usize = 64 * 32;

/// Log-bucketed histogram of nanosecond latencies, for sample counts
/// (millions) that cannot be kept and sorted.
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    fn index(ns: u64) -> usize {
        let idx = ((ns.max(1) as f64).log2() * BUCKETS_PER_OCTAVE) as usize;
        idx.min(BUCKETS - 1)
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    /// Adds another histogram's samples.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p`-quantile in nanoseconds: the geometric midpoint of the
    /// bucket holding the sample of that rank. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return ((i as f64 + 0.5) / BUCKETS_PER_OCTAVE).exp2();
            }
        }
        unreachable!("rank below the recorded count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(128), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(4096), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn histogram_bucket_error_is_within_three_percent() {
        for ns in [1u64, 7, 100, 999, 1_000, 12_345, 1_000_000, 3_999_999_999] {
            let mut h = LatencyHistogram::default();
            h.record(ns);
            let got = h.percentile(0.5);
            let err = (got - ns as f64).abs() / ns as f64;
            // ns = 1 sits on a bucket's lower edge; every other value is
            // within half a bucket of the midpoint.
            assert!(err <= 0.03, "{ns} ns reported as {got} ({err})");
        }
    }

    #[test]
    fn histogram_percentiles_follow_ranks() {
        let mut h = LatencyHistogram::default();
        for _ in 0..990 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.percentile(0.5) - 100.0).abs() <= 3.0);
        assert!((h.percentile(0.98) - 100.0).abs() <= 3.0);
        assert!((h.percentile(0.999) - 100_000.0).abs() <= 3_000.0);
    }
}
