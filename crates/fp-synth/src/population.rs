//! Study populations with the demographics of the DSN'13 cohort (Figure 1).
//!
//! The paper reports 494 randomly selected participants, 53% aged 20–29 and
//! 57.2% Caucasian. Demographics are not decoration here: age drives the
//! skin-condition baseline (older skin is drier and less elastic, a
//! well-documented effect on fingerprint quality), which propagates into
//! image quality and therefore into the paper's Figure 5/Table 6 analyses.

use fp_core::dist;
use fp_core::ids::{Finger, SubjectId};
use fp_core::rng::SeedTree;

use crate::master::MasterPrint;

/// Age bands reported in the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeGroup {
    /// Younger than 20.
    Under20,
    /// 20–29 — the modal band (53% of the cohort).
    Twenties,
    /// 30–39.
    Thirties,
    /// 40–49.
    Forties,
    /// 50–59.
    Fifties,
    /// 60 and older.
    SixtyPlus,
}

impl AgeGroup {
    /// All age bands in ascending order.
    pub const ALL: [AgeGroup; 6] = [
        AgeGroup::Under20,
        AgeGroup::Twenties,
        AgeGroup::Thirties,
        AgeGroup::Forties,
        AgeGroup::Fifties,
        AgeGroup::SixtyPlus,
    ];

    /// Cohort frequencies; the 53% figure for ages 20–29 is from the paper,
    /// the rest is a plausible university-town split of the remainder.
    pub const FREQUENCIES: [f64; 6] = [0.06, 0.53, 0.19, 0.11, 0.07, 0.04];

    /// A representative age (years) within the band, for the skin model.
    pub fn representative_age(&self) -> f64 {
        match self {
            AgeGroup::Under20 => 19.0,
            AgeGroup::Twenties => 24.0,
            AgeGroup::Thirties => 34.0,
            AgeGroup::Forties => 44.0,
            AgeGroup::Fifties => 54.0,
            AgeGroup::SixtyPlus => 65.0,
        }
    }

    /// Short label used in the Figure 1 report.
    pub fn label(&self) -> &'static str {
        match self {
            AgeGroup::Under20 => "<20",
            AgeGroup::Twenties => "20-29",
            AgeGroup::Thirties => "30-39",
            AgeGroup::Forties => "40-49",
            AgeGroup::Fifties => "50-59",
            AgeGroup::SixtyPlus => "60+",
        }
    }
}

/// Ethnicity groups reported in the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ethnicity {
    /// Caucasian — 57.2% of the cohort per the paper.
    Caucasian,
    /// Asian.
    Asian,
    /// African-American.
    AfricanAmerican,
    /// Hispanic.
    Hispanic,
    /// Middle Eastern.
    MiddleEastern,
    /// Any other / undisclosed.
    Other,
}

impl Ethnicity {
    /// All groups in report order.
    pub const ALL: [Ethnicity; 6] = [
        Ethnicity::Caucasian,
        Ethnicity::Asian,
        Ethnicity::AfricanAmerican,
        Ethnicity::Hispanic,
        Ethnicity::MiddleEastern,
        Ethnicity::Other,
    ];

    /// Cohort frequencies; 57.2% Caucasian is from the paper, the remainder
    /// split plausibly.
    pub const FREQUENCIES: [f64; 6] = [0.572, 0.18, 0.12, 0.07, 0.03, 0.028];

    /// Short label used in the Figure 1 report.
    pub fn label(&self) -> &'static str {
        match self {
            Ethnicity::Caucasian => "Caucasian",
            Ethnicity::Asian => "Asian",
            Ethnicity::AfricanAmerican => "African-American",
            Ethnicity::Hispanic => "Hispanic",
            Ethnicity::MiddleEastern => "Middle Eastern",
            Ethnicity::Other => "Other",
        }
    }
}

/// Stable physiological skin traits of a subject (session-level variation is
/// layered on top by `fp-sensor`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkinProfile {
    /// Baseline skin moisture in `[0, 1]`; 0.5 is ideal for optical capture,
    /// low values mean dry skin (broken ridges), high values mean sweaty
    /// skin (bridged valleys).
    pub moisture: f64,
    /// Skin elasticity in `[0, 1]`; lower elasticity increases placement
    /// distortion.
    pub elasticity: f64,
}

/// One study participant.
#[derive(Debug, Clone, PartialEq)]
pub struct Subject {
    id: SubjectId,
    age: AgeGroup,
    ethnicity: Ethnicity,
    size_factor: f64,
    skin: SkinProfile,
    seed: SeedTree,
}

impl Subject {
    /// Generates subject number `id` of the cohort rooted at `root`.
    fn generate(root: &SeedTree, id: SubjectId) -> Self {
        let seed = root.child(&[0x5B, id.0 as u64]);
        let mut rng = seed.child(&[0]).rng();
        let age = AgeGroup::ALL
            [dist::weighted_index(&mut rng, &AgeGroup::FREQUENCIES).expect("fixed distribution")];
        let ethnicity = Ethnicity::ALL
            [dist::weighted_index(&mut rng, &Ethnicity::FREQUENCIES).expect("fixed distribution")];
        let size_factor = dist::truncated_normal(&mut rng, 1.0, 0.07, 0.8, 1.2);
        // Age-dependent skin: moisture drifts down and elasticity drops with
        // age; both saturate.
        let age_years = age.representative_age();
        let dryness_shift = ((age_years - 24.0) / 100.0).clamp(0.0, 0.35);
        let moisture = dist::beta(&mut rng, 6.0, 6.0) * (1.0 - dryness_shift);
        let elasticity =
            (dist::beta(&mut rng, 8.0, 3.0) - (age_years - 24.0).max(0.0) / 160.0).clamp(0.1, 1.0);
        Subject {
            id,
            age,
            ethnicity,
            size_factor,
            skin: SkinProfile {
                moisture: moisture.clamp(0.02, 0.98),
                elasticity,
            },
            seed,
        }
    }

    /// The subject identifier.
    pub fn id(&self) -> SubjectId {
        self.id
    }

    /// The subject's age band.
    pub fn age_group(&self) -> AgeGroup {
        self.age
    }

    /// The subject's ethnicity group.
    pub fn ethnicity(&self) -> Ethnicity {
        self.ethnicity
    }

    /// Hand-size multiplier (1.0 = cohort average).
    pub fn size_factor(&self) -> f64 {
        self.size_factor
    }

    /// Baseline skin traits.
    pub fn skin(&self) -> SkinProfile {
        self.skin
    }

    /// The subject's seed-tree node, for deriving acquisition streams.
    pub fn seed(&self) -> &SeedTree {
        &self.seed
    }

    /// Derives the master print of one finger (deterministic; regenerating
    /// returns an identical value).
    pub fn master_print(&self, finger: Finger) -> MasterPrint {
        self.master_print_metered(finger, &crate::metrics::SynthMetrics::default())
    }

    /// [`Subject::master_print`] with telemetry: records the generation
    /// into `metrics`.
    pub fn master_print_metered(
        &self,
        finger: Finger,
        metrics: &crate::metrics::SynthMetrics,
    ) -> MasterPrint {
        let node = self.seed.child(&[0xF1, finger.index()]);
        MasterPrint::generate_metered(&node, finger.digit, self.size_factor, metrics)
    }
}

/// Configuration for cohort generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationConfig {
    /// Root seed for the whole cohort.
    pub seed: u64,
    /// Number of participants (the paper used 494).
    pub subjects: usize,
}

impl PopulationConfig {
    /// Creates a config.
    pub fn new(seed: u64, subjects: usize) -> Self {
        PopulationConfig { seed, subjects }
    }

    /// The paper's cohort size with the given seed.
    pub fn paper_scale(seed: u64) -> Self {
        PopulationConfig::new(seed, 494)
    }
}

/// A generated cohort of study participants.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    subjects: Vec<Subject>,
    config: PopulationConfig,
}

impl Population {
    /// Generates the cohort described by `config`.
    pub fn generate(config: &PopulationConfig) -> Self {
        let root = SeedTree::new(config.seed);
        let subjects = (0..config.subjects)
            .map(|i| Subject::generate(&root, SubjectId(i as u32)))
            .collect();
        Population {
            subjects,
            config: *config,
        }
    }

    /// The participants, ordered by id.
    pub fn subjects(&self) -> &[Subject] {
        &self.subjects
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// Whether the cohort is empty.
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }

    /// The generation config.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// Age-band histogram as `(label, count)` pairs, for the Figure 1
    /// report.
    pub fn age_histogram(&self) -> Vec<(&'static str, usize)> {
        AgeGroup::ALL
            .iter()
            .map(|g| {
                (
                    g.label(),
                    self.subjects.iter().filter(|s| s.age_group() == *g).count(),
                )
            })
            .collect()
    }

    /// Ethnicity histogram as `(label, count)` pairs, for the Figure 1
    /// report.
    pub fn ethnicity_histogram(&self) -> Vec<(&'static str, usize)> {
        Ethnicity::ALL
            .iter()
            .map(|e| {
                (
                    e.label(),
                    self.subjects.iter().filter(|s| s.ethnicity() == *e).count(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_is_reproducible() {
        let c = PopulationConfig::new(3, 20);
        let a = Population::generate(&c);
        let b = Population::generate(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn demographics_match_paper_at_scale() {
        let pop = Population::generate(&PopulationConfig::paper_scale(1));
        assert_eq!(pop.len(), 494);
        let twenties = pop
            .subjects()
            .iter()
            .filter(|s| s.age_group() == AgeGroup::Twenties)
            .count() as f64
            / 494.0;
        assert!((twenties - 0.53).abs() < 0.07, "twenties = {twenties}");
        let caucasian = pop
            .subjects()
            .iter()
            .filter(|s| s.ethnicity() == Ethnicity::Caucasian)
            .count() as f64
            / 494.0;
        assert!((caucasian - 0.572).abs() < 0.07, "caucasian = {caucasian}");
    }

    #[test]
    fn master_print_is_stable_across_calls() {
        let pop = Population::generate(&PopulationConfig::new(5, 3));
        let s = &pop.subjects()[1];
        assert_eq!(
            s.master_print(Finger::RIGHT_INDEX).minutiae(),
            s.master_print(Finger::RIGHT_INDEX).minutiae()
        );
    }

    #[test]
    fn different_fingers_of_same_subject_differ() {
        let pop = Population::generate(&PopulationConfig::new(5, 2));
        let s = &pop.subjects()[0];
        let right = s.master_print(Finger::RIGHT_INDEX);
        let left = s.master_print(Finger::new(
            fp_core::ids::Hand::Left,
            fp_core::ids::Digit::Index,
        ));
        assert_ne!(right.minutiae(), left.minutiae());
    }

    #[test]
    fn skin_traits_are_in_range() {
        let pop = Population::generate(&PopulationConfig::new(8, 100));
        for s in pop.subjects() {
            let skin = s.skin();
            assert!((0.0..=1.0).contains(&skin.moisture));
            assert!((0.0..=1.0).contains(&skin.elasticity));
        }
    }

    #[test]
    fn older_subjects_have_drier_skin_on_average() {
        let pop = Population::generate(&PopulationConfig::new(13, 2000));
        let mean = |band: AgeGroup| {
            let xs: Vec<f64> = pop
                .subjects()
                .iter()
                .filter(|s| s.age_group() == band)
                .map(|s| s.skin().moisture)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        assert!(mean(AgeGroup::Twenties) > mean(AgeGroup::SixtyPlus));
    }

    #[test]
    fn histograms_cover_all_subjects() {
        let pop = Population::generate(&PopulationConfig::new(2, 77));
        let total: usize = pop.age_histogram().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 77);
        let total: usize = pop.ethnicity_histogram().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 77);
    }
}
