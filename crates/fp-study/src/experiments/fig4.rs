//! **Figure 4 (gallery sweep)** — genuine score distributions of probes
//! from every device against the Cross Match Seek II (D3) gallery.
//!
//! The paper reads two things off this figure: same-sensor pairs score
//! highest, and ink ten-print probes score lowest. (The same paper's
//! Table 5 contradicts the first claim for D3 specifically — its small
//! capture window makes {D3,D3} worse than {D3,D0} — so we report the full
//! per-probe summary and flag the measured ordering instead of asserting
//! the figure's prose.)

use fp_core::ids::DeviceId;
use fp_stats::summary::{median, Summary};
use serde_json::json;

use crate::report::Report;
use crate::scores::StudyData;

/// Runs the experiment.
pub fn run(data: &StudyData) -> Report {
    let gallery = DeviceId(3);
    let mut rows = Vec::new();
    for probe in DeviceId::ALL {
        let xs = data.scores.genuine_values(gallery, probe);
        let s = Summary::of(&xs).expect("non-empty cell");
        rows.push((probe, s.mean, median(&xs).unwrap(), s.min));
    }
    let mut ranked: Vec<DeviceId> = DeviceId::ALL.to_vec();
    ranked.sort_by(|a, b| {
        let ma = rows[a.0 as usize].1;
        let mb = rows[b.0 as usize].1;
        mb.partial_cmp(&ma).expect("finite means")
    });

    let mut body = format!(
        "gallery: D3 (Cross Match Seek II)\n\n{:<8}{:>10}{:>10}{:>10}\n",
        "probe", "mean", "median", "min"
    );
    for (probe, mean, med, min) in &rows {
        body.push_str(&format!("{probe:<8}{mean:>10.2}{med:>10.2}{min:>10.2}\n"));
    }
    body.push_str(&format!(
        "\nranking by mean (best to worst): {}\n\
         paper claims: same-sensor highest, ten-print (D4) lowest\n",
        ranked
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(" > ")
    ));

    Report::new(
        "fig4",
        "Genuine scores by probe device vs Seek II gallery (paper Figure 4 sweep)",
        body,
        json!({
            "gallery": "D3",
            "rows": rows
                .iter()
                .map(|(d, mean, med, min)| json!({
                    "probe": d.to_string(), "mean": mean, "median": med, "min": min
                }))
                .collect::<Vec<_>>(),
            "ranking": ranked.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
            "ink_is_worst": ranked.last() == Some(&DeviceId(4)),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testdata;

    #[test]
    fn sweep_covers_all_probe_devices() {
        let r = run(testdata::small());
        assert_eq!(r.values["rows"].as_array().unwrap().len(), 5);
        assert_eq!(r.values["ranking"].as_array().unwrap().len(), 5);
    }

    #[test]
    fn ink_probe_is_not_the_best() {
        // At the tiny test-cohort size the full ranking is noisy; the
        // large-scale ordering (ink at/near the bottom) is the finding
        // `ink-probes-score-lowest` of `findings::check_all`, asserted by
        // the `paper_findings` integration test. Here we only require that ink
        // is never the *best* probe for a Seek II gallery.
        let r = run(testdata::small());
        let ranking = r.values["ranking"].as_array().unwrap();
        let pos = ranking
            .iter()
            .position(|v| v.as_str() == Some("D4"))
            .expect("D4 present");
        assert!(pos >= 1, "ink probe ranked best");
    }
}
