//! One module per paper artifact (Figures 1–5, Tables 3–6) plus the six
//! future-work extension analyses: fifteen ids, each consuming the shared
//! [`StudyData`] and returning a [`Report`]. [`harness`] is not an
//! experiment: it is the synthetic cohort the `study` binary's scaling
//! ladder and `fp-bench` search.

use fp_telemetry::Telemetry;

use crate::report::Report;
use crate::scores::StudyData;

pub mod ext_diversity;
pub mod ext_habituation;
pub mod ext_identification;
pub mod ext_multifinger;
pub mod ext_normalization;
pub mod ext_prediction;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod harness;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

/// Identifiers of all experiments in presentation order.
pub const ALL_IDS: [&str; 15] = [
    "fig1",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "table4",
    "table5",
    "table6",
    "fig5",
    "ext-diversity",
    "ext-habituation",
    "ext-prediction",
    "ext-multifinger",
    "ext-normalization",
    "ext-identification",
];

/// Runs one experiment by id; `None` for an unknown id.
pub fn run(id: &str, data: &StudyData) -> Option<Report> {
    run_with(id, data, &Telemetry::disabled())
}

/// [`run`] with telemetry: `ext-identification`, the one experiment that
/// searches an index, routes the index's instruments into `telemetry`; the
/// reports are identical either way.
pub fn run_with(id: &str, data: &StudyData, telemetry: &Telemetry) -> Option<Report> {
    match id {
        "fig1" => Some(fig1::run(data)),
        "table3" => Some(table3::run(data)),
        "fig2" => Some(fig2::run(data)),
        "fig3" => Some(fig3::run(data)),
        "fig4" => Some(fig4::run(data)),
        "table4" => Some(table4::run(data)),
        "table5" => Some(table5::run(data)),
        "table6" => Some(table6::run(data)),
        "fig5" => Some(fig5::run(data)),
        "ext-diversity" => Some(ext_diversity::run(data)),
        "ext-habituation" => Some(ext_habituation::run(data)),
        "ext-prediction" => Some(ext_prediction::run(data)),
        "ext-multifinger" => Some(ext_multifinger::run(data)),
        "ext-normalization" => Some(ext_normalization::run(data)),
        "ext-identification" => Some(ext_identification::run_with(data, telemetry)),
        _ => None,
    }
}

/// Runs every experiment in presentation order.
pub fn run_all(data: &StudyData) -> Vec<Report> {
    run_all_with(data, &Telemetry::disabled())
}

/// [`run_all`] with telemetry: each experiment runs inside a span named
/// `experiment.<id>`, so its wall time lands in the duration histograms.
pub fn run_all_with(data: &StudyData, telemetry: &Telemetry) -> Vec<Report> {
    ALL_IDS
        .iter()
        .map(|id| {
            let _span = telemetry.span_with(
                &format!("experiment.{id}"),
                &[("experiment", id.to_string())],
            );
            run_with(id, data, telemetry).expect("ALL_IDS entries are runnable")
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod testdata {
    //! A single small study shared by the experiment tests (score
    //! computation is the expensive part; build it once).

    use std::sync::OnceLock;

    use crate::config::StudyConfig;
    use crate::scores::StudyData;

    pub fn small() -> &'static StudyData {
        static DATA: OnceLock<StudyData> = OnceLock::new();
        DATA.get_or_init(|| {
            StudyData::generate(
                &StudyConfig::builder()
                    .subjects(16)
                    .seed(42)
                    .impostors_per_cell(60)
                    .build(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_are_runnable_and_unique() {
        let data = testdata::small();
        let mut seen = std::collections::HashSet::new();
        for id in ALL_IDS {
            assert!(seen.insert(id), "duplicate id {id}");
            let report = run(id, data).expect("runnable");
            assert_eq!(report.id, id);
            assert!(!report.body.is_empty(), "{id} has empty body");
        }
    }

    #[test]
    fn unknown_id_returns_none() {
        assert!(run("nope", testdata::small()).is_none());
    }

    #[test]
    fn run_all_produces_all_reports() {
        let reports = run_all(testdata::small());
        assert_eq!(reports.len(), ALL_IDS.len());
    }
}
