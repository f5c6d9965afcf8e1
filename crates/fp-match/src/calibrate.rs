//! Score calibration onto the paper's commercial-matcher scale.
//!
//! The Identix BioEngine SDK used in the study emits scores where impostor
//! comparisons essentially never exceed **7** and genuine scores below
//! **10** count as "low" (both thresholds are landmarks in the paper's
//! Figures 2–5). Our raw matcher scores live on a "matched minutiae" scale;
//! [`ScoreCalibration`] applies a monotone affine-with-soft-knee map so the
//! same landmarks carry the same meaning.
//!
//! Calibration never changes score *order*, so FMR/FNMR at corresponding
//! thresholds — and every rank statistic (Kendall τ) — are invariant; only
//! the axis labels move.

use serde::Serialize;

use fp_core::template::Template;
use fp_core::{MatchScore, Matcher};

use crate::PreparableMatcher;

/// A monotone map from raw matcher scores to the paper's score scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScoreCalibration {
    /// Raw score mapped to the impostor ceiling (paper scale 7).
    pub raw_impostor_ceiling: f64,
    /// Paper-scale value at the impostor ceiling.
    pub impostor_ceiling: f64,
    /// Paper-scale gain applied above the ceiling.
    pub genuine_gain: f64,
}

impl Default for ScoreCalibration {
    fn default() -> Self {
        // Tuned against PairTableMatcher raw scores in the study harness:
        // raw impostor scores concentrate below ~5.5, genuine same-device
        // raw scores around 15-30.
        ScoreCalibration {
            raw_impostor_ceiling: 6.0,
            impostor_ceiling: 7.0,
            genuine_gain: 2.4,
        }
    }
}

impl ScoreCalibration {
    /// Applies the calibration map to a raw score.
    ///
    /// Below the ceiling the map is linear onto `[0, impostor_ceiling]`;
    /// above it, it continues linearly with `genuine_gain`.
    pub fn apply(&self, raw: MatchScore) -> MatchScore {
        let r = raw.value();
        let mapped = if r <= self.raw_impostor_ceiling {
            r / self.raw_impostor_ceiling * self.impostor_ceiling
        } else {
            self.impostor_ceiling + (r - self.raw_impostor_ceiling) * self.genuine_gain
        };
        MatchScore::new(mapped)
    }

    /// Wraps a matcher so that every comparison is calibrated.
    pub fn wrap<M: Matcher>(self, inner: M) -> Calibrated<M> {
        Calibrated {
            inner,
            calibration: self,
        }
    }
}

/// A matcher whose scores pass through a [`ScoreCalibration`].
#[derive(Debug, Clone)]
pub struct Calibrated<M> {
    inner: M,
    calibration: ScoreCalibration,
}

impl<M> Calibrated<M> {
    /// The wrapped matcher.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The calibration in effect.
    pub fn calibration(&self) -> &ScoreCalibration {
        &self.calibration
    }
}

impl<M: Matcher> Matcher for Calibrated<M> {
    fn compare(&self, gallery: &Template, probe: &Template) -> MatchScore {
        self.calibration.apply(self.inner.compare(gallery, probe))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<M: PreparableMatcher> PreparableMatcher for Calibrated<M> {
    type Prepared = M::Prepared;

    fn prepare(&self, template: &Template) -> Self::Prepared {
        self.inner.prepare(template)
    }

    fn compare_prepared(&self, gallery: &Self::Prepared, probe: &Self::Prepared) -> MatchScore {
        self.calibration
            .apply(self.inner.compare_prepared(gallery, probe))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_monotone() {
        let c = ScoreCalibration::default();
        let mut prev = -1.0;
        for i in 0..200 {
            let v = c.apply(MatchScore::new(i as f64 * 0.2)).value();
            assert!(v >= prev, "not monotone at {i}");
            prev = v;
        }
    }

    #[test]
    fn ceiling_maps_to_ceiling() {
        let c = ScoreCalibration::default();
        let at = c.apply(MatchScore::new(c.raw_impostor_ceiling)).value();
        assert!((at - c.impostor_ceiling).abs() < 1e-12);
    }

    #[test]
    fn zero_maps_to_zero() {
        let c = ScoreCalibration::default();
        assert_eq!(c.apply(MatchScore::ZERO).value(), 0.0);
    }

    #[test]
    fn genuine_region_uses_gain() {
        let c = ScoreCalibration::default();
        let a = c
            .apply(MatchScore::new(c.raw_impostor_ceiling + 1.0))
            .value();
        let b = c
            .apply(MatchScore::new(c.raw_impostor_ceiling + 2.0))
            .value();
        assert!((b - a - c.genuine_gain).abs() < 1e-12);
    }

    #[test]
    fn wrapped_matcher_calibrates_scores() {
        struct Fixed(f64);
        impl Matcher for Fixed {
            fn compare(&self, _: &Template, _: &Template) -> MatchScore {
                MatchScore::new(self.0)
            }
            fn name(&self) -> &str {
                "fixed"
            }
        }
        let c = ScoreCalibration::default();
        let m = c.wrap(Fixed(3.0));
        let t = Template::builder(500.0).build().unwrap();
        let expected = c.apply(MatchScore::new(3.0));
        assert_eq!(m.compare(&t, &t), expected);
        assert_eq!(m.name(), "fixed");
    }
}
