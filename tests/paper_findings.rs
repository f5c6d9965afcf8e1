//! The qualitative findings of Lugini et al. (DSN 2013), asserted end to end
//! on a mid-sized study run. The predicates are `fp_study::findings::check_all`,
//! the same ones `study verify` prints; each test below asserts the findings
//! it names, and together they name every finding `check_all` reports. If a
//! model change breaks one of them, the reproduction has regressed.
//!
//! Run in release mode (`cargo test --release --test paper_findings`); the
//! run computes ~40k comparisons.

use std::sync::OnceLock;

use fp_study::config::StudyConfig;
use fp_study::findings::{check_all, render, Finding};
use fp_study::scores::StudyData;

fn findings() -> &'static [Finding] {
    static FINDINGS: OnceLock<Vec<Finding>> = OnceLock::new();
    FINDINGS.get_or_init(|| {
        check_all(&StudyData::generate(
            &StudyConfig::builder().subjects(120).seed(2013).build(),
        ))
    })
}

/// Fails listing every named finding that does not hold, with its evidence.
/// (`every_finding_is_asserted` checks that the names exist.)
fn assert_hold(ids: &[&str]) {
    let failed: Vec<Finding> = findings()
        .iter()
        .filter(|f| ids.contains(&f.id) && !f.holds)
        .cloned()
        .collect();
    assert!(failed.is_empty(), "\n{}", render(&failed).0);
}

macro_rules! finding_tests {
    ($($(#[$doc:meta])* $test:ident => [$($id:literal),+],)+) => {
        $(
            $(#[$doc])*
            #[test]
            fn $test() {
                assert_hold(&[$($id),+]);
            }
        )+

        /// The tests above name every finding, in `check_all`'s order.
        #[test]
        fn every_finding_is_asserted() {
            let named = [$($($id),+),+];
            let reported: Vec<&str> = findings().iter().map(|f| f.id).collect();
            assert_eq!(reported, named);
        }
    };
}

finding_tests! {
    /// Abstract: "genuine matching scores were generally higher when both
    /// images were captured using the same device".
    same_device_genuine_scores_are_higher => ["same-device-genuine-higher"],
    /// Abstract: "false-non-match-rates were affected by capture device
    /// diversity. Conversely the false-match-rates were not."
    fnmr_is_affected_by_diversity_fmr_is_not => ["fnmr-affected-fmr-not"],
    /// Figures 2/3: impostor scores stay low in both scenarios, far under
    /// the genuine median.
    impostor_scores_have_a_low_ceiling => ["impostor-ceiling"],
    /// Table 5: the diagonal is the row minimum except {D1,D1} and {D3,D3};
    /// {D4,D4} is the best diagonal and the ink row the worst on average.
    fnmr_matrix_has_the_papers_anomaly_structure =>
        ["fnmr-anomaly-structure", "ink-least-interoperable"],
    /// Table 4: a perfectly correlated diagonal, weaker association off it,
    /// and measurable asymmetry.
    kendall_matrix_structure => ["kendall-structure"],
    /// Figure 5: diversity adds low genuine scores, and good-quality pairs
    /// are protected from them.
    quality_interacts_with_interoperability => ["diversity-increases-low-scores"],
    /// Figure 4: the ink probe is among the two lowest-scoring probes.
    ink_probes_score_lowest => ["ink-probes-score-lowest"],
    /// Table 6: gating on quality never raises a cell's FNMR.
    quality_gating_never_hurts_fnmr => ["quality-gating-never-hurts-fnmr"],
}
