//! Order statistics for the rows: medians, nearest-rank percentiles, and
//! the "highest percentile with at least ten samples beyond it" rule.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN — both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values`, 0 when there are none.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// `values` in ascending order, ready for [`percentile`].
pub fn sorted(values: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut values: Vec<u64> = values.into_iter().collect();
    values.sort_unstable();
    values
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`), the
/// same rule the crates' own reports use; 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A timing distribution boiled down for a row: the median, the sample
/// count, and — when there are more than ten samples past the median —
/// the highest percentile that still has ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub n: usize,
    /// `(percentile in 0..1, value)`.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = sorted.len();
    // Ten samples lie beyond index n - 11; a tail below the median says
    // nothing the median does not.
    let tail = (n >= 22).then(|| ((n - 10) as f64 / n as f64, sorted[n - 11]));
    Summary { median: median(&sorted), n, tail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), 10);
        assert_eq!(summarize(&v[..21]).tail, None, "too few samples for a tail");
    }
}
