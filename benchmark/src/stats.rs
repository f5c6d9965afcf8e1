//! Reducers for timing samples: nearest-rank percentiles, the count of
//! samples beyond one (a tail percentile needs ten), and the median used to
//! reduce repeated set-ups, rounds and cycles to one number.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the samples at or below it. No interpolation, so
/// the result is always a value that was measured.
///
/// # Panics
///
/// If `sorted` is empty or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n >= 1` samples.
/// Multiplying before dividing keeps whole ranks (95 % of 200) exact.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 95.0), 10.0);
        assert_eq!(percentile(&samples, 10.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
        assert_eq!(percentile(&samples, 0.1), 1.0);
        // Always a measured value, never an interpolation.
        assert_eq!(percentile(&[1.0, 100.0], 50.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(4, 95.0), 0);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn median_reduces_cycles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
        // One slow cycle does not move it.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 25.0, 1.05]), 1.025);
    }
}
