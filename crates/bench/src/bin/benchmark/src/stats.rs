//! Order statistics for timing samples.
//!
//! Quartiles use the same "exclusive" interpolation as Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this harness
//! prints match the ones computed from its JSON results.

/// Summary of one sample: count, median, quartiles, extremes, and the
/// highest tail percentile the sample supports (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// `(p, value)` for the highest of p90/p99/p99.9 with at least ten
    /// samples beyond it; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        let tail = supported_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p)));
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
            tail,
        }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// `(q1, median, q3)` of a sorted, non-empty sample. With one value all
/// three are that value; otherwise this is Python's exclusive method.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let n = 4;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of a sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p90/p99/p99.9 that leaves at least ten samples above
/// it in a sample of `n`.
pub fn supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn single_value_and_median() {
        let s = Summary::of(&[4.5]);
        assert_eq!((s.q1, s.median, s.q3), (4.5, 4.5, 4.5));
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(99), None);
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(Summary::of(&[1.0; 20]).tail, None);
        let s = Summary::of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((90.0, 90.0)));
    }
}
