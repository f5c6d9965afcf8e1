//! Descriptive statistics.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased (n−1) sample variance; 0 for n < 2.
    pub variance: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics; `None` for an empty sample.
    pub fn of(data: &[f64]) -> Option<Summary> {
        if data.is_empty() {
            return None;
        }
        let n = data.len();
        let mean = data.iter().sum::<f64>() / n as f64;
        let variance = if n < 2 {
            0.0
        } else {
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in data {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Summary {
            n,
            mean,
            variance,
            min,
            max,
        })
    }
}

/// Linearly interpolated quantile (type-7, the numpy/R default) of an
/// **unsorted** sample; `None` for an empty sample or `q` outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// Type-7 quantile of an already **sorted** sample.
///
/// # Panics
///
/// Panics when `data` is empty.
pub fn quantile_sorted(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty sample");
    let q = q.clamp(0.0, 1.0);
    let h = (data.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        data[lo]
    } else {
        data[lo] + (h - lo as f64) * (data[hi] - data[lo])
    }
}

/// Median of an unsorted sample.
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_element_summary() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.mean, 3.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(4.0));
        assert_eq!(quantile(&data, 0.5), Some(2.5));
        assert_eq!(median(&data), Some(2.5));
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_is_order_insensitive() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }
}
