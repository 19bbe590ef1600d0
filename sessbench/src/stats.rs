//! Order statistics for the end-to-end timings.

/// Sample count that must lie strictly above a reported tail
/// percentile for the figure to mean anything.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, in permille, highest first.
const TAILS: [u32; 4] = [999, 990, 950, 900];

/// 1-based nearest rank of the `permille` percentile in an `n`-sample
/// set (`n > 0`).
fn rank(n: usize, permille: u32) -> usize {
    (permille as usize * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile (`permille` in `0..=1000`) of `sorted`,
/// which must be ascending and non-empty.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Samples strictly above the nearest-rank `permille` percentile of an
/// `n`-sample set.
pub fn beyond(n: usize, permille: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, permille)
}

/// The highest tail percentile (permille) with at least
/// [`MIN_BEYOND`] samples beyond it in an `n`-sample set, or `None`
/// when even p90 lacks them.
pub fn highest_supported_tail(n: usize) -> Option<u32> {
    TAILS.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of an unsorted sample (mean of the two middle values when
/// the count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(99, 900), 9);
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(10_000, 999), 10);
        assert_eq!(beyond(0, 900), 0);
        assert_eq!(beyond(1, 500), 0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(900));
        assert_eq!(highest_supported_tail(199), Some(900));
        assert_eq!(highest_supported_tail(200), Some(950));
        assert_eq!(highest_supported_tail(1000), Some(990));
        assert_eq!(highest_supported_tail(10_000), Some(999));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
