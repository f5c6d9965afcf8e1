//! Cumulative Match Characteristic (CMC) curves for closed-set
//! identification (1:N search).
//!
//! The paper's gallery is "the database of fingerprint images in which we
//! search" — verification is what it evaluates, but the operational
//! deployments it motivates (US-VISIT) also run identification. The CMC
//! reports, for each rank `k`, the probability that the searched person's
//! enrolled template appears among the top `k` candidates.

/// Rank of the genuine candidate among all candidates, 1-based: one plus
/// the number of impostor scores strictly greater than the genuine score
/// (ties resolved pessimistically — tied impostors rank ahead).
pub fn genuine_rank(genuine: f64, impostors: &[f64]) -> usize {
    1 + impostors.iter().filter(|&&s| s >= genuine).count()
}

/// A closed-set identification CMC curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CmcCurve {
    /// `hits[k-1]` = number of probes whose genuine rank is `<= k`.
    hits: Vec<usize>,
    /// Total number of probes.
    probes: usize,
}

impl CmcCurve {
    /// Builds the curve from per-probe genuine ranks, tracking ranks up to
    /// `max_rank`.
    ///
    /// # Panics
    ///
    /// Panics when `max_rank` is zero.
    pub fn from_ranks<I: IntoIterator<Item = usize>>(ranks: I, max_rank: usize) -> CmcCurve {
        assert!(max_rank > 0, "max_rank must be positive");
        let mut hits = vec![0usize; max_rank];
        let mut probes = 0usize;
        for rank in ranks {
            probes += 1;
            if rank >= 1 && rank <= max_rank {
                hits[rank - 1] += 1;
            }
        }
        // Cumulative sum.
        for k in 1..max_rank {
            hits[k] += hits[k - 1];
        }
        CmcCurve { hits, probes }
    }

    /// Identification rate at rank `k` (1-based); rates saturate at the
    /// curve's maximum tracked rank.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero.
    pub fn rate_at_rank(&self, k: usize) -> f64 {
        assert!(k > 0, "ranks are 1-based");
        if self.probes == 0 {
            return 0.0;
        }
        let idx = k.min(self.hits.len()) - 1;
        self.hits[idx] as f64 / self.probes as f64
    }

    /// Rank-1 identification rate — the headline identification number.
    pub fn rank1(&self) -> f64 {
        self.rate_at_rank(1)
    }

    /// Number of probes behind the curve.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Maximum tracked rank.
    pub fn max_rank(&self) -> usize {
        self.hits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_counts_strictly_better_and_tied_impostors() {
        assert_eq!(genuine_rank(10.0, &[1.0, 2.0, 3.0]), 1);
        assert_eq!(genuine_rank(2.5, &[1.0, 2.0, 3.0]), 2);
        assert_eq!(genuine_rank(2.0, &[1.0, 2.0, 3.0]), 3); // tie ranks behind
        assert_eq!(genuine_rank(0.0, &[]), 1);
    }

    #[test]
    fn curve_is_monotone_and_saturates() {
        let curve = CmcCurve::from_ranks([1, 1, 2, 3, 7], 5);
        let mut prev = 0.0;
        for k in 1..=5 {
            let r = curve.rate_at_rank(k);
            assert!(r >= prev, "rank {k}");
            prev = r;
        }
        assert_eq!(curve.rank1(), 0.4);
        assert_eq!(curve.rate_at_rank(3), 0.8);
        // Rank 7 probe is beyond max_rank: never counted.
        assert_eq!(curve.rate_at_rank(5), 0.8);
        assert_eq!(curve.rate_at_rank(100), 0.8);
    }

    #[test]
    fn perfect_identification_is_all_ones() {
        let curve = CmcCurve::from_ranks([1; 10], 3);
        assert_eq!(curve.rank1(), 1.0);
        assert_eq!(curve.rate_at_rank(3), 1.0);
        assert_eq!(curve.probes(), 10);
    }

    #[test]
    fn empty_curve_is_zero() {
        let curve = CmcCurve::from_ranks(std::iter::empty(), 4);
        assert_eq!(curve.rank1(), 0.0);
        assert_eq!(curve.probes(), 0);
    }

    #[test]
    #[should_panic(expected = "max_rank")]
    fn zero_max_rank_panics() {
        let _ = CmcCurve::from_ranks([1], 0);
    }
}
