//! Latency samples: a fixed-size histogram for high-volume timings, exact
//! quantiles for the few-per-round ones, and the rule that picks which tail
//! percentile a sample count supports.

/// Sub-buckets per power of two: bucket width is under 1 % of its value.
const SUB: u64 = 128;
const BUCKETS: usize = 57 * SUB as usize + SUB as usize;

/// A histogram of nanosecond samples. Values below 256 ns are counted
/// exactly; above that each power of two is split into 128 buckets.
/// Quantiles interpolate by rank inside the bucket, so two runs of the same
/// code report close but not identical values.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() as u64 - 7;
    (shift * SUB + (v >> shift)) as usize
}

/// Lower bound and width of bucket `idx`.
fn bucket_span(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return (idx, 1);
    }
    let shift = idx / SUB - 1;
    ((idx - shift * SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (seen + count) as f64 >= rank {
                let (lo, width) = bucket_span(idx);
                let inside = ((rank - seen as f64) / count as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * inside;
            }
            seen += count;
        }
        let (lo, width) = bucket_span(BUCKETS - 1);
        (lo + width) as f64
    }

    /// The tail percentile this sample count supports, and its value.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_quantile(self.total);
        (q, self.quantile(q))
    }
}

/// The highest of p99, p95, p90, p75 that has at least ten samples beyond
/// it; the median when even p75 does not.
pub fn tail_quantile(samples: u64) -> f64 {
    for q in [0.99, 0.95, 0.90, 0.75] {
        if samples as f64 * (1.0 - q) >= 10.0 - 1e-9 {
            return q;
        }
    }
    0.5
}

/// Exact quantile of a small sample set, by linear interpolation between
/// order statistics (the method of Python's `statistics.quantiles`,
/// inclusive).
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median_of(samples: &[f64]) -> f64 {
    quantile_of(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_lo = 0u64;
        for idx in 0..2000 {
            let (lo, width) = bucket_span(idx);
            assert_eq!(lo, expected_lo, "bucket {idx}");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            expected_lo = lo + width;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_are_within_one_percent() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1_000_000.0;
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.len(), 100_000);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
    }

    #[test]
    fn exact_quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median_of(&xs), 2.5);
        assert_eq!(quantile_of(&xs, 0.0), 1.0);
        assert_eq!(quantile_of(&xs, 1.0), 4.0);
        assert_eq!(quantile_of(&[], 0.5), 0.0);
    }
}
