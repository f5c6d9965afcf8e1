//! # fp-quality
//!
//! An NFIQ-like fingerprint image quality assessor.
//!
//! The study used NIST Fingerprint Image Quality (NFIQ) 1.0, which maps an
//! image to one of five levels — 1 (best) to 5 (worst) — trained to predict
//! matcher performance. NFIQ's feature vector (minutiae counts and
//! reliabilities, usable foreground area, local clarity maps) is exactly the
//! information our acquisition simulation carries on every
//! [`Impression`], so this crate reimplements the
//! same idea as a fixed weighted scoring of those features, binned to the
//! five levels and calibrated so that live-scan captures skew good
//! (levels 1–2) while ink cards skew poor, matching NFIQ behaviour on real
//! operational data.
//!
//! ```
//! use fp_quality::{NfiqLevel, QualityAssessor};
//!
//! let assessor = QualityAssessor::default();
//! // A perfect impression scores level 1:
//! let level = assessor.assess_features(&fp_sensor::ImpressionFeatures {
//!     minutia_count: 40,
//!     mean_reliability: 0.95,
//!     captured_area_fraction: 1.0,
//!     clarity: 0.97,
//!     condition_extremity: 0.05,
//!     quality_bias: 0.0,
//! });
//! assert_eq!(level, NfiqLevel::Excellent);
//! ```

use std::fmt;

use fp_sensor::{Impression, ImpressionFeatures};

/// The five NFIQ quality levels. Lower is better, as in NIST's tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NfiqLevel {
    /// Level 1: excellent.
    Excellent = 1,
    /// Level 2: very good.
    VeryGood = 2,
    /// Level 3: good.
    Good = 3,
    /// Level 4: fair — NIST recommends reacquisition for index fingers.
    Fair = 4,
    /// Level 5: poor.
    Poor = 5,
}

impl NfiqLevel {
    /// All levels, best first.
    pub const ALL: [NfiqLevel; 5] = [
        NfiqLevel::Excellent,
        NfiqLevel::VeryGood,
        NfiqLevel::Good,
        NfiqLevel::Fair,
        NfiqLevel::Poor,
    ];

    /// The numeric NFIQ value (1–5).
    pub fn value(&self) -> u8 {
        *self as u8
    }

    /// Builds a level from the numeric NFIQ value.
    ///
    /// # Errors
    ///
    /// Returns an error for values outside `1..=5`.
    pub fn from_value(v: u8) -> Result<NfiqLevel, fp_core::Error> {
        match v {
            1 => Ok(NfiqLevel::Excellent),
            2 => Ok(NfiqLevel::VeryGood),
            3 => Ok(NfiqLevel::Good),
            4 => Ok(NfiqLevel::Fair),
            5 => Ok(NfiqLevel::Poor),
            _ => Err(fp_core::Error::invalid(
                "nfiq",
                format!("{v} is not an NFIQ level (1..=5)"),
            )),
        }
    }
}

impl fmt::Display for NfiqLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NFIQ {}", self.value())
    }
}

/// Weights of the quality-defect features. All weights multiply a defect in
/// `[0, 1]`, so the weighted sum is a non-negative "defect score" that the
/// level thresholds cut into five bands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityWeights {
    /// Weight of `1 - clarity` (ridge/valley contrast defects).
    pub clarity: f64,
    /// Weight of `1 - mean_reliability` (feature extraction confidence).
    pub reliability: f64,
    /// Weight of `1 - captured_area_fraction` (usable foreground area).
    pub area: f64,
    /// Weight of the minutiae-count deficit below the expected count.
    pub count: f64,
    /// Weight of presentation extremity (pressure/moisture out of range).
    pub extremity: f64,
    /// Scale applied to the device's NFIQ bias.
    pub device_bias: f64,
}

impl Default for QualityWeights {
    fn default() -> Self {
        QualityWeights {
            clarity: 1.5,
            reliability: 1.1,
            area: 0.9,
            count: 0.8,
            extremity: 0.5,
            device_bias: 0.35,
        }
    }
}

/// The NFIQ-like quality assessor.
#[derive(Debug, Clone, Copy, Default)]
pub struct QualityAssessor {
    weights: QualityWeights,
}

/// Minutiae count at (and above) which the count feature reports no defect.
pub const EXPECTED_MINUTIAE: usize = 30;

/// Defect-score thresholds between levels 1|2, 2|3, 3|4, 4|5.
pub const LEVEL_THRESHOLDS: [f64; 4] = [0.45, 0.80, 1.15, 1.55];

impl QualityAssessor {
    /// Creates an assessor with explicit weights.
    pub fn new(weights: QualityWeights) -> Self {
        QualityAssessor { weights }
    }

    /// The active weights.
    pub fn weights(&self) -> &QualityWeights {
        &self.weights
    }

    /// The continuous defect score of a feature vector (0 = flawless).
    pub fn defect_score(&self, f: &ImpressionFeatures) -> f64 {
        let w = &self.weights;
        let count_deficit = if f.minutia_count >= EXPECTED_MINUTIAE {
            0.0
        } else {
            (EXPECTED_MINUTIAE - f.minutia_count) as f64 / EXPECTED_MINUTIAE as f64
        };
        w.clarity * (1.0 - f.clarity).clamp(0.0, 1.0)
            + w.reliability * (1.0 - f.mean_reliability).clamp(0.0, 1.0)
            + w.area * (1.0 - f.captured_area_fraction).clamp(0.0, 1.0)
            + w.count * count_deficit
            + w.extremity * f.condition_extremity.clamp(0.0, 1.0)
            + w.device_bias * f.quality_bias.max(0.0)
    }

    /// Assesses a feature vector to an NFIQ level.
    pub fn assess_features(&self, f: &ImpressionFeatures) -> NfiqLevel {
        let d = self.defect_score(f);
        for (i, &t) in LEVEL_THRESHOLDS.iter().enumerate() {
            if d < t {
                return NfiqLevel::ALL[i];
            }
        }
        NfiqLevel::Poor
    }

    /// Assesses an impression.
    pub fn assess(&self, impression: &Impression) -> NfiqLevel {
        self.assess_features(&impression.features())
    }

    /// Assesses a raster fingerprint image directly — the image-domain path
    /// that mirrors what NIST's NFIQ does on real scans.
    ///
    /// Runs the `fp-image` analysis chain (orientation estimation,
    /// segmentation, local quality, binarization, thinning, extraction) to
    /// derive the same [`ImpressionFeatures`] the feature path uses, then
    /// applies the identical classifier. `dpi` is the image resolution.
    pub fn assess_image(&self, image: &fp_image::GrayImage, dpi: f64) -> NfiqLevel {
        use fp_image::{binarize, extract, morphology, orientation, quality_map, segment, thin};

        let block = 16;
        let field = orientation::estimate_orientation(image, block);
        let mask = segment::segment(image, block, 0.25);
        let qmap = quality_map::LocalQualityMap::compute(image, &field, &mask);

        // Physical extent of the image for pixel->mm mapping.
        let pitch = 25.4 / dpi;
        let width_mm = image.width() as f64 * pitch;
        let height_mm = image.height() as f64 * pitch;
        let window = fp_core::geometry::Rect::centred(
            fp_core::geometry::Point::ORIGIN,
            width_mm.max(0.1),
            height_mm.max(0.1),
        )
        .expect("image extent is positive");

        let binary = binarize::adaptive_binarize(image, &mask, 6);
        let skeleton = morphology::clean_skeleton(&thin::zhang_suen(&binary), 5, 6);
        let minutia_count = extract::extract_minutiae(
            &skeleton,
            &mask,
            window,
            &extract::ExtractConfig {
                dpi,
                ..extract::ExtractConfig::default()
            },
        )
        .map(|t| t.len())
        .unwrap_or(0);

        let clarity = qmap.mean_foreground_quality();
        let features = ImpressionFeatures {
            minutia_count,
            mean_reliability: clarity, // extraction confidence tracks clarity
            captured_area_fraction: mask.foreground_fraction(),
            clarity,
            condition_extremity: (1.0 - clarity).clamp(0.0, 1.0),
            quality_bias: 0.0,
        };
        self.assess_features(&features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::ids::{DeviceId, Finger, SessionId};
    use fp_sensor::CaptureProtocol;
    use fp_synth::population::{Population, PopulationConfig};

    fn features(clarity: f64, reliability: f64, area: f64, count: usize) -> ImpressionFeatures {
        ImpressionFeatures {
            minutia_count: count,
            mean_reliability: reliability,
            captured_area_fraction: area,
            clarity,
            condition_extremity: 1.0 - clarity,
            quality_bias: 0.0,
        }
    }

    #[test]
    fn perfect_features_are_level_one() {
        let a = QualityAssessor::default();
        assert_eq!(
            a.assess_features(&features(1.0, 1.0, 1.0, 40)),
            NfiqLevel::Excellent
        );
    }

    #[test]
    fn terrible_features_are_level_five() {
        let a = QualityAssessor::default();
        assert_eq!(
            a.assess_features(&features(0.1, 0.3, 0.3, 5)),
            NfiqLevel::Poor
        );
    }

    #[test]
    fn level_is_monotone_in_clarity() {
        let a = QualityAssessor::default();
        let mut prev = 0u8;
        for i in 0..=10 {
            let clarity = 1.0 - i as f64 / 10.0;
            let level = a.assess_features(&features(clarity, 0.9, 1.0, 35)).value();
            assert!(level >= prev, "clarity {clarity}: level {level} < {prev}");
            prev = level;
        }
    }

    #[test]
    fn device_bias_degrades_quality() {
        let a = QualityAssessor::default();
        let mut f = features(0.8, 0.85, 0.95, 30);
        let clean = a.defect_score(&f);
        f.quality_bias = 1.0;
        assert!(a.defect_score(&f) > clean);
    }

    #[test]
    fn from_value_roundtrips_and_validates() {
        for level in NfiqLevel::ALL {
            assert_eq!(NfiqLevel::from_value(level.value()).unwrap(), level);
        }
        assert!(NfiqLevel::from_value(0).is_err());
        assert!(NfiqLevel::from_value(6).is_err());
    }

    #[test]
    fn levels_order_best_to_worst() {
        assert!(NfiqLevel::Excellent < NfiqLevel::Poor);
        assert_eq!(NfiqLevel::Excellent.value(), 1);
        assert_eq!(NfiqLevel::Poor.value(), 5);
    }

    /// Distributional check over a real capture population: live-scan
    /// captures should mostly be good (levels 1-3) and ink cards should
    /// skew worse on average, mirroring NFIQ on operational data.
    #[test]
    fn population_distribution_is_plausible() {
        let pop = Population::generate(&PopulationConfig::new(31, 60));
        let protocol = CaptureProtocol::new();
        let assessor = QualityAssessor::default();
        let mut live = Vec::new();
        let mut ink = Vec::new();
        for s in pop.subjects() {
            for d in DeviceId::ALL {
                let imp = protocol.capture(s, Finger::RIGHT_INDEX, d, SessionId(0));
                let level = assessor.assess(&imp).value() as f64;
                if d == DeviceId(4) {
                    ink.push(level);
                } else {
                    live.push(level);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let live_mean = mean(&live);
        let ink_mean = mean(&ink);
        assert!(live_mean < 3.0, "live-scan mean NFIQ {live_mean}");
        assert!(ink_mean > live_mean, "ink {ink_mean} vs live {live_mean}");
        // All five levels should be reachable somewhere in the population.
        let all: Vec<f64> = live.iter().chain(&ink).copied().collect();
        let distinct: std::collections::BTreeSet<u8> = all.iter().map(|&l| l as u8).collect();
        assert!(distinct.len() >= 3, "only levels {distinct:?} observed");
    }

    #[test]
    fn image_path_rates_clean_renders_better_than_noisy_ones() {
        use fp_core::geometry::{Point, Rect};
        use fp_core::rng::SeedTree;
        use fp_image::render::{render_master, RenderConfig};
        use fp_synth::master::MasterPrint;
        use rand::Rng;

        let master = MasterPrint::generate(&SeedTree::new(77), fp_core::ids::Digit::Index, 1.0);
        let window = Rect::centred(Point::ORIGIN, 14.0, 16.0).unwrap();
        let clean = render_master(&master, window, &RenderConfig::default(), &SeedTree::new(1));

        // Heavy speckle noise on top of the clean render.
        let mut noisy = clean.clone();
        let mut rng = SeedTree::new(2).rng();
        for v in noisy.data_mut() {
            *v = (*v + (rng.gen::<f32>() - 0.5) * 1.2).clamp(0.0, 1.0);
        }

        let assessor = QualityAssessor::default();
        let q_clean = assessor.assess_image(&clean, 500.0);
        let q_noisy = assessor.assess_image(&noisy, 500.0);
        assert!(
            q_clean <= q_noisy,
            "clean {q_clean} rated worse than noisy {q_noisy}"
        );
        assert!(q_clean.value() <= 3, "clean render rated {q_clean}");
    }

    #[test]
    fn image_path_rates_flat_images_poor() {
        let flat = fp_image::GrayImage::filled(128, 128, 0.5).unwrap();
        let assessor = QualityAssessor::default();
        assert_eq!(assessor.assess_image(&flat, 500.0), NfiqLevel::Poor);
    }

    #[test]
    fn assess_matches_assess_features() {
        let pop = Population::generate(&PopulationConfig::new(5, 1));
        let imp = CaptureProtocol::new().capture(
            &pop.subjects()[0],
            Finger::RIGHT_INDEX,
            DeviceId(2),
            SessionId(1),
        );
        let a = QualityAssessor::default();
        assert_eq!(a.assess(&imp), a.assess_features(&imp.features()));
    }
}
