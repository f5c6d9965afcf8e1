//! Fixed-bin histograms for score-distribution figures.

/// A histogram over `[lo, hi)` with uniform bins plus an overflow bin for
/// values `≥ hi`. Values below `lo` are clamped into the first bin (the
/// score distributions this is used for are non-negative by construction).
///
/// ```
/// use fp_stats::histogram::Histogram;
///
/// let h = Histogram::from_values(0.0, 10.0, 10, [0.5, 0.7, 3.2, 11.0]);
/// assert_eq!(h.count(0), 2);   // two scores in [0, 1)
/// assert_eq!(h.overflow(), 1); // 11.0 is beyond the range
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `bins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Builds a histogram from an iterator of values.
    pub fn from_values<I: IntoIterator<Item = f64>>(
        lo: f64,
        hi: f64,
        bins: usize,
        values: I,
    ) -> Self {
        let mut h = Histogram::new(lo, hi, bins);
        for v in values {
            h.add(v);
        }
        h
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.total += 1;
        if value >= self.hi {
            self.overflow += 1;
            return;
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((value - self.lo) / w).floor();
        let idx = if idx < 0.0 { 0 } else { idx as usize };
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Number of bins (excluding overflow).
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Count of values `≥ hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `[start, end)` edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Iterates `(bin_start, bin_end, count)` over the regular bins.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.counts.len()).map(|i| {
            let (a, b) = self.bin_edges(i);
            (a, b, self.counts[i])
        })
    }

    /// Relative frequency of bin `i` (0 when the histogram is empty).
    pub fn frequency(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Renders a compact ASCII bar chart, one bin per line, for terminal
    /// reports.
    pub fn render_ascii(&self, max_width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (a, b, c) in self.iter() {
            let bar = "#".repeat(((c as f64 / peak as f64) * max_width as f64).round() as usize);
            out.push_str(&format!("{a:>8.1}-{b:<8.1} {c:>8} {bar}\n"));
        }
        if self.overflow > 0 {
            out.push_str(&format!("{:>8}+{:<8} {:>8}\n", self.hi, "", self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_conserved() {
        let values = [0.5, 1.5, 2.5, 9.9, 10.0, 25.0, -1.0];
        let h = Histogram::from_values(0.0, 10.0, 10, values);
        let binned: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        assert_eq!(binned + h.overflow(), values.len() as u64);
        assert_eq!(h.total(), values.len() as u64);
    }

    #[test]
    fn values_land_in_correct_bins() {
        let h = Histogram::from_values(0.0, 10.0, 10, [0.0, 0.99, 1.0, 9.99]);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(9), 1);
    }

    #[test]
    fn below_range_clamps_to_first_bin() {
        let h = Histogram::from_values(0.0, 10.0, 5, [-5.0]);
        assert_eq!(h.count(0), 1);
    }

    #[test]
    fn at_or_above_hi_goes_to_overflow() {
        let h = Histogram::from_values(0.0, 10.0, 5, [10.0, 11.0]);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn bin_edges_are_uniform() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
        assert_eq!(h.bin_edges(4), (8.0, 10.0));
    }

    #[test]
    fn frequencies_sum_to_one_without_overflow() {
        let h = Histogram::from_values(0.0, 10.0, 4, [1.0, 3.0, 5.0, 7.0]);
        let sum: f64 = (0..4).map(|i| h.frequency(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let h = Histogram::from_values(0.0, 4.0, 4, [0.5, 1.5, 1.6, 3.0]);
        assert_eq!(h.render_ascii(20).lines().count(), 4);
    }
}
