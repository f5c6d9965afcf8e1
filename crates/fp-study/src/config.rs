//! Study configuration.

use fp_match::ScoreCalibration;
use serde::Serialize;

/// Number of devices (paper Table 1).
pub const DEVICE_COUNT: usize = 5;

/// The paper's cohort size.
pub const PAPER_SUBJECTS: usize = 494;

/// The paper's impostor sample size per (gallery device, probe device)
/// cell: 120,855 DMI scores over 5 same-device cells = 24,171 per cell (and
/// the DDMI total of 483,420 is exactly 20 of these cells, confirming
/// uniform per-cell sampling).
pub const PAPER_IMPOSTORS_PER_CELL: usize = 24_171;

/// Configuration of a study run. Construct via [`StudyConfig::builder`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StudyConfig {
    /// Root seed; every artifact of the study is a pure function of it.
    pub seed: u64,
    /// Number of participants.
    pub subjects: usize,
    /// Impostor comparisons sampled per (gallery device, probe device)
    /// cell. Scaled from the paper's 24,171 when the cohort is smaller.
    pub impostors_per_cell: usize,
    /// Calibration map applied to raw matcher scores.
    pub calibration: ScoreCalibration,
    /// Fixed FMR for the Table 5 FNMR matrix (paper: 0.01%).
    pub table5_fmr: f64,
    /// Fixed FMR for the Table 6 quality-restricted FNMR matrix (paper:
    /// 0.1%).
    pub table6_fmr: f64,
}

impl StudyConfig {
    /// Starts building a config with the given defaults.
    pub fn builder() -> StudyConfigBuilder {
        StudyConfigBuilder::default()
    }

    /// The paper's design: 494 subjects, 24,171 impostor pairs per cell.
    pub fn paper_scale() -> StudyConfig {
        StudyConfig::builder()
            .subjects(PAPER_SUBJECTS)
            .impostors_per_cell(PAPER_IMPOSTORS_PER_CELL)
            .build()
    }

    /// Expected number of DMG scores (same-device genuine, live-scan only:
    /// the paper counts 494 x 4 = 1,976).
    pub fn expected_dmg(&self) -> usize {
        self.subjects * 4
    }

    /// Expected number of DDMG scores (cross-device genuine: 20 ordered
    /// device pairs; the paper counts 494 x 20 = 9,880).
    pub fn expected_ddmg(&self) -> usize {
        self.subjects * 20
    }

    /// Expected number of DMI scores (same-device impostor, 5 cells).
    pub fn expected_dmi(&self) -> usize {
        self.impostors_per_cell * DEVICE_COUNT
    }

    /// Expected number of DDMI scores (cross-device impostor, 20 cells).
    pub fn expected_ddmi(&self) -> usize {
        self.impostors_per_cell * DEVICE_COUNT * (DEVICE_COUNT - 1)
    }
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig::builder().build()
    }
}

/// Builder for [`StudyConfig`].
#[derive(Debug, Clone)]
pub struct StudyConfigBuilder {
    seed: u64,
    subjects: usize,
    impostors_per_cell: Option<usize>,
    calibration: ScoreCalibration,
    table5_fmr: f64,
    table6_fmr: f64,
}

impl Default for StudyConfigBuilder {
    fn default() -> Self {
        StudyConfigBuilder {
            seed: 2013,
            subjects: 120,
            impostors_per_cell: None,
            calibration: ScoreCalibration::default(),
            table5_fmr: 1e-4,
            table6_fmr: 1e-3,
        }
    }
}

impl StudyConfigBuilder {
    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cohort size.
    pub fn subjects(mut self, subjects: usize) -> Self {
        self.subjects = subjects;
        self
    }

    /// Sets the impostor sample per cell explicitly (otherwise scaled from
    /// the paper's density).
    pub fn impostors_per_cell(mut self, n: usize) -> Self {
        self.impostors_per_cell = Some(n);
        self
    }

    /// Sets the score calibration map.
    pub fn calibration(mut self, calibration: ScoreCalibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Finalizes the config.
    pub fn build(self) -> StudyConfig {
        let impostors_per_cell = self.impostors_per_cell.unwrap_or_else(|| {
            // Scale the paper's per-cell sample with the number of ordered
            // subject pairs, but keep at least a usable floor.
            let pairs = self
                .subjects
                .saturating_mul(self.subjects.saturating_sub(1));
            let paper_pairs = PAPER_SUBJECTS * (PAPER_SUBJECTS - 1);
            ((PAPER_IMPOSTORS_PER_CELL as u128 * pairs as u128 / paper_pairs as u128) as usize)
                .max(200.min(pairs))
        });
        StudyConfig {
            seed: self.seed,
            subjects: self.subjects,
            impostors_per_cell,
            calibration: self.calibration,
            table5_fmr: self.table5_fmr,
            table6_fmr: self.table6_fmr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_reproduces_table3_counts() {
        let c = StudyConfig::paper_scale();
        assert_eq!(c.expected_dmg(), 1_976);
        assert_eq!(c.expected_ddmg(), 9_880);
        assert_eq!(c.expected_dmi(), 120_855);
        assert_eq!(c.expected_ddmi(), 483_420);
    }

    #[test]
    fn impostor_sampling_scales_with_cohort() {
        let small = StudyConfig::builder().subjects(50).build();
        let large = StudyConfig::builder().subjects(200).build();
        assert!(small.impostors_per_cell < large.impostors_per_cell);
        assert!(small.impostors_per_cell > 0);
    }

    #[test]
    fn builder_overrides_stick() {
        let c = StudyConfig::builder()
            .seed(9)
            .subjects(42)
            .impostors_per_cell(777)
            .build();
        assert_eq!(c.seed, 9);
        assert_eq!(c.subjects, 42);
        assert_eq!(c.impostors_per_cell, 777);
    }

    #[test]
    fn default_config_is_runnable() {
        let c = StudyConfig::default();
        assert!(c.subjects > 0);
        assert!(c.impostors_per_cell > 0);
        assert!(c.table5_fmr < c.table6_fmr);
    }
}
