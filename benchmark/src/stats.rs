//! Order statistics the harness reports: medians over passes and latency
//! percentiles over per-call samples.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so an unmeasured metric reads 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(min, median, max)` of `values`.
pub fn min_median_max(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (min, median(values), max)
    }
}

/// The percentile ladder a latency sample may be reported at.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it in a sample of `n` — a tail read off fewer than ten points is
/// a statement about those points, not about the distribution.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|q| beyond(n, *q) >= 10)
}

/// Samples strictly beyond the nearest-rank `q`-th percentile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// Nearest-rank position (1-based) of the `q`-th percentile in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1 000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000_000), Some(0.99999));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(1_024), Some(0.99));
        assert_eq!(highest_supported_percentile(512), Some(0.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
