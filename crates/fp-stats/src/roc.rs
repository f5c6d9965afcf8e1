//! FMR/FNMR analysis: the error-tradeoff machinery behind the paper's
//! Tables 5 and 6.
//!
//! Decision rule throughout: a comparison is declared a **match** when
//! `score ≥ threshold`. Hence
//!
//! * FMR(t) = fraction of impostor scores `≥ t` (false matches),
//! * FNMR(t) = fraction of genuine scores `< t` (false non-matches),
//!
//! and both are monotone in `t` (FMR non-increasing, FNMR non-decreasing).

/// A labelled set of genuine and impostor similarity scores.
///
/// ```
/// use fp_stats::roc::ScoreSet;
///
/// let set = ScoreSet::new(vec![12.0, 15.0, 9.0], vec![1.0, 2.0, 3.0, 4.0]);
/// // FNMR at the strictest threshold that keeps FMR at or below 25%:
/// let fnmr = set.fnmr_at_fmr(0.25);
/// assert!(fnmr <= 1.0);
/// let (eer, _threshold) = set.eer();
/// assert_eq!(eer, 0.0); // the sets are separable
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreSet {
    genuine: Vec<f64>,
    impostor: Vec<f64>,
}

impl ScoreSet {
    /// Creates a score set; scores are sorted internally.
    ///
    /// NaN scores are rejected by debug assertion (match scores are
    /// constructed NaN-free upstream).
    pub fn new(mut genuine: Vec<f64>, mut impostor: Vec<f64>) -> Self {
        debug_assert!(
            genuine.iter().chain(&impostor).all(|x| !x.is_nan()),
            "scores must not be NaN"
        );
        genuine.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        impostor.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        ScoreSet { genuine, impostor }
    }

    /// The genuine scores, ascending.
    pub fn genuine(&self) -> &[f64] {
        &self.genuine
    }

    /// The impostor scores, ascending.
    pub fn impostor(&self) -> &[f64] {
        &self.impostor
    }

    /// False match rate at threshold `t`: fraction of impostor scores `≥ t`.
    pub fn fmr_at(&self, t: f64) -> f64 {
        if self.impostor.is_empty() {
            return 0.0;
        }
        let below = self.impostor.partition_point(|&s| s < t);
        (self.impostor.len() - below) as f64 / self.impostor.len() as f64
    }

    /// False non-match rate at threshold `t`: fraction of genuine scores
    /// `< t`.
    pub fn fnmr_at(&self, t: f64) -> f64 {
        if self.genuine.is_empty() {
            return 0.0;
        }
        self.genuine.partition_point(|&s| s < t) as f64 / self.genuine.len() as f64
    }

    /// The smallest threshold whose FMR does not exceed `target_fmr`.
    ///
    /// Conservative in the operational sense: the realized FMR at the
    /// returned threshold is `≤ target_fmr` (assuming `target_fmr ≥ 0`).
    /// With an empty impostor set, returns 0.0 (any threshold satisfies the
    /// target).
    pub fn threshold_at_fmr(&self, target_fmr: f64) -> f64 {
        if self.impostor.is_empty() {
            return 0.0;
        }
        let n = self.impostor.len() as f64;
        // FMR(t) = (n - below(t)) / n  ≤ target  ⇔  below(t) ≥ n (1 - target).
        let needed_below = (n * (1.0 - target_fmr)).ceil() as usize;
        if needed_below == 0 {
            return self.impostor[0]; // even the smallest impostor may match
        }
        if needed_below > self.impostor.len() {
            // target_fmr < 0: impossible; return just above the max.
            return next_up(*self.impostor.last().expect("non-empty"));
        }
        // Threshold just above the (needed_below-1)-th impostor score puts
        // exactly `needed_below` scores strictly below it.
        next_up(self.impostor[needed_below - 1])
    }

    /// FNMR at the threshold fixed so that FMR ≤ `target_fmr` — the quantity
    /// tabulated in the paper's Tables 5 and 6.
    pub fn fnmr_at_fmr(&self, target_fmr: f64) -> f64 {
        self.fnmr_at(self.threshold_at_fmr(target_fmr))
    }

    /// Equal error rate and the threshold achieving it, found by scanning
    /// the merged score grid for the point where |FMR − FNMR| is minimal.
    pub fn eer(&self) -> (f64, f64) {
        if self.genuine.is_empty() && self.impostor.is_empty() {
            return (0.0, 0.0);
        }
        let mut best = (f64::INFINITY, 0.0, 0.0);
        let candidates = self
            .genuine
            .iter()
            .chain(self.impostor.iter())
            .copied()
            .chain(std::iter::once(
                self.genuine
                    .last()
                    .copied()
                    .unwrap_or(0.0)
                    .max(self.impostor.last().copied().unwrap_or(0.0))
                    + 1.0,
            ));
        for t in candidates {
            let fmr = self.fmr_at(t);
            let fnmr = self.fnmr_at(t);
            let gap = (fmr - fnmr).abs();
            if gap < best.0 {
                best = (gap, (fmr + fnmr) / 2.0, t);
            }
        }
        (best.1, best.2)
    }

    /// Sampled DET curve: `(threshold, fmr, fnmr)` at `points` thresholds
    /// spanning the observed score range.
    pub fn det_curve(&self, points: usize) -> Vec<(f64, f64, f64)> {
        if points == 0 {
            return Vec::new();
        }
        let lo = self
            .genuine
            .first()
            .copied()
            .unwrap_or(0.0)
            .min(self.impostor.first().copied().unwrap_or(0.0));
        let hi = self
            .genuine
            .last()
            .copied()
            .unwrap_or(1.0)
            .max(self.impostor.last().copied().unwrap_or(1.0));
        (0..points)
            .map(|i| {
                let t = lo + (hi - lo) * i as f64 / (points.max(2) - 1) as f64;
                (t, self.fmr_at(t), self.fnmr_at(t))
            })
            .collect()
    }
}

impl ScoreSet {
    /// Area under the ROC curve: the probability that a random genuine
    /// score exceeds a random impostor score (ties count half). 1.0 means
    /// perfect separation, 0.5 chance level.
    ///
    /// Computed from the pooled rank sum in O((m+n) log(m+n)).
    pub fn auc(&self) -> f64 {
        let m = self.genuine.len();
        let n = self.impostor.len();
        if m == 0 || n == 0 {
            return 0.5;
        }
        // Merge the two sorted lists, accumulating, for each genuine score,
        // the number of impostor scores strictly below it plus half the
        // ties.
        let mut wins = 0.0f64;
        let mut i = 0usize; // impostor cursor
        let mut g = 0usize;
        while g < m {
            let score = self.genuine[g];
            while i < n && self.impostor[i] < score {
                i += 1;
            }
            // Count ties from position i.
            let mut ties = 0usize;
            while i + ties < n && self.impostor[i + ties] == score {
                ties += 1;
            }
            wins += i as f64 + ties as f64 / 2.0;
            g += 1;
        }
        wins / (m as f64 * n as f64)
    }
}

/// Wilson score interval for a binomial proportion — the right interval for
/// the tiny FNMR counts in the paper's Tables 5-6 (a normal interval around
/// 2/494 would dip below zero).
///
/// Returns `(lower, upper)` for `successes` out of `trials` at the given
/// z-value (1.96 for 95%). Returns `(0.0, 1.0)` for zero trials.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// The next representable `f64` above `x` (total-order successor for finite
/// inputs). Stable replacement for the unstable `f64::next_up`.
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScoreSet {
        ScoreSet::new(
            vec![10.0, 12.0, 15.0, 20.0, 5.0],
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
    }

    #[test]
    fn fmr_and_fnmr_at_extremes() {
        let s = sample();
        assert_eq!(s.fmr_at(f64::NEG_INFINITY), 1.0);
        assert_eq!(s.fnmr_at(f64::NEG_INFINITY), 0.0);
        assert_eq!(s.fmr_at(100.0), 0.0);
        assert_eq!(s.fnmr_at(100.0), 1.0);
    }

    #[test]
    fn fmr_counts_ties_as_matches() {
        let s = sample();
        // threshold 7.0: impostor score exactly 7.0 still matches (score >= t)
        assert!((s.fmr_at(7.0) - 1.0 / 8.0).abs() < 1e-12);
        assert!((s.fmr_at(7.0 + 1e-9) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_at_fmr_is_conservative() {
        let s = sample();
        for target in [0.0, 0.01, 0.1, 0.125, 0.5, 1.0] {
            let t = s.threshold_at_fmr(target);
            assert!(
                s.fmr_at(t) <= target + 1e-12,
                "target {target}: threshold {t} gives fmr {}",
                s.fmr_at(t)
            );
        }
    }

    #[test]
    fn threshold_at_fmr_zero_excludes_all_impostors() {
        let s = sample();
        let t = s.threshold_at_fmr(0.0);
        assert_eq!(s.fmr_at(t), 0.0);
        // and is the *smallest* such threshold: nudging below the max
        // impostor readmits one.
        assert!(s.fmr_at(7.0) > 0.0);
    }

    #[test]
    fn fnmr_at_fmr_known_value() {
        let s = sample();
        // target FMR 12.5% -> threshold just above 7 -> genuine 5 fails.
        let v = s.fnmr_at_fmr(0.125);
        assert!((v - 0.2).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn rates_are_monotone_in_threshold() {
        let s = sample();
        let mut prev_fmr = 1.0;
        let mut prev_fnmr = 0.0;
        for i in 0..200 {
            let t = -1.0 + i as f64 * 0.15;
            let fmr = s.fmr_at(t);
            let fnmr = s.fnmr_at(t);
            assert!(fmr <= prev_fmr + 1e-12);
            assert!(fnmr >= prev_fnmr - 1e-12);
            prev_fmr = fmr;
            prev_fnmr = fnmr;
        }
    }

    #[test]
    fn eer_balances_errors_for_separable_data() {
        let s = ScoreSet::new(vec![10.0, 11.0, 12.0], vec![1.0, 2.0, 3.0]);
        let (eer, t) = s.eer();
        assert_eq!(eer, 0.0);
        assert!(t > 3.0 && t <= 10.0);
    }

    #[test]
    fn eer_for_overlapping_data_is_positive() {
        let s = ScoreSet::new(vec![1.0, 5.0, 9.0], vec![2.0, 6.0, 8.0]);
        let (eer, _) = s.eer();
        assert!(eer > 0.0 && eer < 1.0);
    }

    #[test]
    fn det_curve_endpoints() {
        let s = sample();
        let det = s.det_curve(50);
        assert_eq!(det.len(), 50);
        assert!(det.first().unwrap().1 >= det.last().unwrap().1); // fmr decreasing
        assert!(det.first().unwrap().2 <= det.last().unwrap().2); // fnmr increasing
    }

    #[test]
    fn empty_sets_are_safe() {
        let s = ScoreSet::new(vec![], vec![]);
        assert_eq!(s.fmr_at(1.0), 0.0);
        assert_eq!(s.fnmr_at(1.0), 0.0);
        assert_eq!(s.threshold_at_fmr(0.1), 0.0);
        let _ = s.eer();
    }

    #[test]
    fn auc_is_one_for_separable_half_for_identical() {
        let separable = ScoreSet::new(vec![10.0, 11.0], vec![1.0, 2.0]);
        assert_eq!(separable.auc(), 1.0);
        let identical = ScoreSet::new(vec![5.0, 5.0], vec![5.0, 5.0]);
        assert!((identical.auc() - 0.5).abs() < 1e-12);
        let inverted = ScoreSet::new(vec![1.0], vec![10.0]);
        assert_eq!(inverted.auc(), 0.0);
    }

    #[test]
    fn auc_handles_partial_overlap() {
        let s = ScoreSet::new(vec![2.0, 4.0, 6.0], vec![1.0, 3.0, 5.0]);
        // wins: 2>1 (1), 4>1,3 (2), 6>all (3) => 6/9
        assert!((s.auc() - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn auc_of_empty_is_chance() {
        assert_eq!(ScoreSet::new(vec![], vec![1.0]).auc(), 0.5);
    }

    #[test]
    fn wilson_interval_brackets_the_proportion() {
        let (lo, hi) = wilson_interval(2, 494, 1.96);
        let p = 2.0 / 494.0;
        assert!(lo > 0.0 && lo < p && p < hi && hi < 0.03, "[{lo}, {hi}]");
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        let (lo0, _) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo0, 0.0);
        let (_, hi_all) = wilson_interval(100, 100, 1.96);
        assert!(hi_all > 0.99);
    }

    #[test]
    fn next_up_is_strictly_greater() {
        for x in [0.0, 1.0, -1.0, 123.456] {
            assert!(next_up(x) > x);
        }
    }
}
