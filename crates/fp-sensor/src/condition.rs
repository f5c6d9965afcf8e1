//! Per-interaction skin and presentation condition.
//!
//! Fingerprint quality varies capture-to-capture: skin moisture drifts,
//! users press harder or softer, and the same subject presents differently
//! across sessions. The condition model layers session noise on top of the
//! subject's stable `SkinProfile`; its
//! output drives contact area, dropout, jitter scaling, spurious generation
//! and the NFIQ-like quality features.

use rand::Rng;

use fp_core::dist;
use fp_synth::population::SkinProfile;

/// The condition of one finger presentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureCondition {
    /// Skin moisture in `[0, 1]`; 0.5 is ideal, low = dry (broken ridges),
    /// high = wet (bridged valleys).
    pub moisture: f64,
    /// Applied pressure in `[0, 1]`; 0.5 is ideal, low = faint contact,
    /// high = squashed ridges.
    pub pressure: f64,
}

impl CaptureCondition {
    /// The ideal presentation (used as a baseline in tests and ablations).
    pub const IDEAL: CaptureCondition = CaptureCondition {
        moisture: 0.5,
        pressure: 0.5,
    };

    /// Samples the condition of one presentation from the subject's stable
    /// skin profile plus per-interaction noise.
    ///
    /// `habituation` in `[0, 1]` models the paper's future-work question on
    /// user habituation: experienced presenters (later sessions) drift
    /// toward ideal pressure. 0 = first contact, 1 = fully habituated.
    pub fn sample<R: Rng + ?Sized>(skin: &SkinProfile, habituation: f64, rng: &mut R) -> Self {
        let moisture = (skin.moisture + dist::normal(rng, 0.0, 0.07)).clamp(0.02, 0.98);
        let raw_pressure = dist::truncated_normal(rng, 0.5, 0.16, 0.05, 0.95);
        // Habituation pulls pressure toward the ideal 0.5.
        let pressure = 0.5 + (raw_pressure - 0.5) * (1.0 - 0.45 * habituation.clamp(0.0, 1.0));
        CaptureCondition { moisture, pressure }
    }

    /// Ridge clarity in `[0, 1]` implied by this condition: 1 at the ideal
    /// point, degrading quadratically toward dry/wet and faint/squashed
    /// extremes.
    pub fn clarity(&self) -> f64 {
        let moist_pen = (2.0 * (self.moisture - 0.5)).abs().powf(1.5) * 0.55;
        let press_pen = (2.0 * (self.pressure - 0.5)).powi(2) * 0.35;
        (1.0 - moist_pen - press_pen).clamp(0.05, 1.0)
    }

    /// How far from ideal the presentation is, in `[0, 1]`.
    pub fn extremity(&self) -> f64 {
        let m = (2.0 * (self.moisture - 0.5)).abs();
        let p = (2.0 * (self.pressure - 0.5)).abs();
        (m.max(p)).clamp(0.0, 1.0)
    }

    /// Contact-area scale factor for a flat (non-rolled) impression: harder
    /// presses flatten more of the pad onto the platen.
    pub fn flat_contact_scale(&self) -> f64 {
        0.62 + 0.18 * self.pressure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::rng::SeedTree;

    fn skin() -> SkinProfile {
        SkinProfile {
            moisture: 0.5,
            elasticity: 0.8,
        }
    }

    #[test]
    fn ideal_condition_has_full_clarity() {
        assert!((CaptureCondition::IDEAL.clarity() - 1.0).abs() < 1e-12);
        assert_eq!(CaptureCondition::IDEAL.extremity(), 0.0);
    }

    #[test]
    fn extreme_conditions_reduce_clarity() {
        let dry = CaptureCondition {
            moisture: 0.05,
            pressure: 0.5,
        };
        let wet = CaptureCondition {
            moisture: 0.95,
            pressure: 0.5,
        };
        let squash = CaptureCondition {
            moisture: 0.5,
            pressure: 0.95,
        };
        assert!(dry.clarity() < 0.6);
        assert!(wet.clarity() < 0.6);
        assert!(squash.clarity() < 0.75);
    }

    #[test]
    fn sampled_conditions_are_in_range() {
        let mut rng = SeedTree::new(1).rng();
        for _ in 0..2000 {
            let c = CaptureCondition::sample(&skin(), 0.0, &mut rng);
            assert!((0.0..=1.0).contains(&c.moisture));
            assert!((0.0..=1.0).contains(&c.pressure));
            assert!((0.0..=1.0).contains(&c.clarity()));
            assert!((0.0..=1.0).contains(&c.extremity()));
        }
    }

    #[test]
    fn habituation_reduces_pressure_spread() {
        let mut rng = SeedTree::new(2).rng();
        let spread = |habituation: f64, rng: &mut fp_core::rng::StreamRng| {
            let xs: Vec<f64> = (0..4000)
                .map(|_| CaptureCondition::sample(&skin(), habituation, rng).pressure)
                .collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let novice = spread(0.0, &mut rng);
        let expert = spread(1.0, &mut rng);
        assert!(expert < novice, "novice {novice} vs expert {expert}");
    }

    #[test]
    fn drier_skin_profile_shifts_sampled_moisture() {
        let mut rng = SeedTree::new(3).rng();
        let dry_skin = SkinProfile {
            moisture: 0.2,
            elasticity: 0.8,
        };
        let mean: f64 = (0..2000)
            .map(|_| CaptureCondition::sample(&dry_skin, 0.0, &mut rng).moisture)
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 0.2).abs() < 0.03, "mean = {mean}");
    }

    #[test]
    fn pressure_increases_flat_contact() {
        let soft = CaptureCondition {
            moisture: 0.5,
            pressure: 0.1,
        };
        let hard = CaptureCondition {
            moisture: 0.5,
            pressure: 0.9,
        };
        assert!(hard.flat_contact_scale() > soft.flat_contact_scale());
        assert!(soft.flat_contact_scale() > 0.5);
        assert!(hard.flat_contact_scale() < 0.85);
    }
}
