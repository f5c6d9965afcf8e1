//! The paper's qualitative findings as checkable predicates.
//!
//! `EXPERIMENTS.md` promises the reproduction preserves the paper's *shape*:
//! orderings, anomalies, crossovers. This module encodes each claim as a
//! predicate over [`StudyData`], and [`check_all`] is their one definition:
//! `study verify` prints it and `tests/paper_findings.rs` asserts it on a
//! 120-subject cohort (seed 2013).

use fp_core::ids::DeviceId;
use fp_stats::roc::ScoreSet;
use serde::Serialize;

use crate::scores::{GenuineScore, StudyData};

/// Outcome of checking one finding.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Stable identifier.
    pub id: &'static str,
    /// The claim, quoting the paper where possible.
    pub claim: &'static str,
    /// Whether this run satisfies it.
    pub holds: bool,
    /// The measured evidence.
    pub evidence: String,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Both sides of a genuine pair are at NFIQ level 1 or 2.
fn good_quality(s: &GenuineScore) -> bool {
    s.gallery_quality.value() <= 2 && s.probe_quality.value() <= 2
}

/// Checks every encoded finding against a study run.
pub fn check_all(data: &StudyData) -> Vec<Finding> {
    let mut findings = Vec::new();
    let fnmr = |g: u8, p: u8| {
        data.scores
            .score_set(DeviceId(g), DeviceId(p))
            .fnmr_at_fmr(1e-4)
    };

    // F1: same-device genuine scores higher.
    {
        let dmg = mean(&data.scores.dmg());
        let ddmg = mean(&data.scores.ddmg());
        findings.push(Finding {
            id: "same-device-genuine-higher",
            claim: "genuine matching scores were generally higher when both \
                    images were captured using the same device",
            holds: dmg > ddmg + 1.0,
            evidence: format!("mean DMG {dmg:.2} vs mean DDMG {ddmg:.2} (margin 1.0)"),
        });
    }

    // F2: FNMR affected by diversity, FMR not.
    {
        let same = ScoreSet::new(data.scores.dmg(), data.scores.dmi());
        let cross = ScoreSet::new(data.scores.ddmg(), data.scores.ddmi());
        let t = same.threshold_at_fmr(1e-3);
        let fnmr_moved = cross.fnmr_at(t) > same.fnmr_at(t);
        let fmr_stable = (cross.fmr_at(t) - same.fmr_at(t)).abs() < 5e-3;
        findings.push(Finding {
            id: "fnmr-affected-fmr-not",
            claim: "false-non-match-rates were affected by capture device \
                    diversity; conversely the false-match-rates were not",
            holds: fnmr_moved && fmr_stable,
            evidence: format!(
                "at t={t:.2}: FNMR {:.4} -> {:.4}, FMR {:.5} -> {:.5}",
                same.fnmr_at(t),
                cross.fnmr_at(t),
                same.fmr_at(t),
                cross.fmr_at(t)
            ),
        });
    }

    // F3: impostor ceiling, with the genuine median far above it.
    {
        let max_dmi = max(&data.scores.dmi());
        let max_ddmi = max(&data.scores.ddmi());
        let mut dmg = data.scores.dmg();
        dmg.sort_by(f64::total_cmp);
        let median = dmg.get(dmg.len() / 2).copied().unwrap_or(0.0);
        findings.push(Finding {
            id: "impostor-ceiling",
            claim: "the impostor scores never go higher than 7",
            // Calibrated scale; the paper's landmark is 7, and 10 leaves
            // headroom for the sampled tail.
            holds: max_dmi < 10.0 && max_ddmi < 10.0 && median > max_dmi,
            evidence: format!(
                "DMI max {max_dmi:.2}, DDMI max {max_ddmi:.2} (ceiling 10), \
                 DMG median {median:.2}"
            ),
        });
    }

    // F4: the FNMR anomaly structure (paper Table 5).
    {
        let d0_min = (1..5).all(|p| fnmr(0, 0) <= fnmr(0, p) + 1e-12);
        let d1_anomaly = fnmr(1, 0) <= fnmr(1, 1);
        let d3_anomaly = fnmr(3, 0) <= fnmr(3, 3);
        let d4_best_diag = (0..4).all(|g| fnmr(4, 4) <= fnmr(g, g) + 1e-12);
        findings.push(Finding {
            id: "fnmr-anomaly-structure",
            claim: "intra-device FNMR is lower than inter-device, the \
                    exceptions being {D1,D1} and {D3,D3}; {D4,D4} is the \
                    best diagonal",
            holds: d0_min && d1_anomaly && d3_anomaly && d4_best_diag,
            evidence: format!(
                "D0 row-min {d0_min}, D1 anomaly {d1_anomaly}, D3 anomaly \
                 {d3_anomaly}, D4 best diagonal {d4_best_diag}"
            ),
        });
    }

    // F5: ink is the least interoperable source.
    {
        let row_mean = |g: u8| {
            mean(
                &(0..5)
                    .filter(|&p| p != g)
                    .map(|p| fnmr(g, p))
                    .collect::<Vec<_>>(),
            )
        };
        let ink_worst = (0..4).all(|g| row_mean(4) >= row_mean(g));
        findings.push(Finding {
            id: "ink-least-interoperable",
            claim: "matching scores of any Live-scan devices are higher than \
                    those obtained from ten-prints",
            holds: ink_worst,
            evidence: format!(
                "mean off-diagonal FNMR by gallery: {}",
                (0..5)
                    .map(|g| format!("D{g}={:.3}", row_mean(g)))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        });
    }

    // F6: Kendall diagonal extreme + asymmetry (paper Table 4).
    findings.push(kendall_structure(data));

    // F7: quality interacts with interoperability (Figure 5).
    {
        // Per scenario (same, cross): genuine pairs, low scores, low
        // scores in good-quality pairs.
        let mut counts = [[0usize; 3]; 2];
        for g in 0..5u8 {
            for p in 0..5u8 {
                let c = &mut counts[usize::from(g != p)];
                for s in data.scores.genuine_cell(DeviceId(g), DeviceId(p)) {
                    let low = s.score < 10.0;
                    c[0] += 1;
                    c[1] += low as usize;
                    c[2] += (low && good_quality(s)) as usize;
                }
            }
        }
        let rate = |c: [usize; 3]| c[1] as f64 / c[0].max(1) as f64;
        let protected = |c: [usize; 3]| c[2] as f64 <= c[1] as f64 * 0.5 + 1.0;
        let [same, cross] = counts;
        findings.push(Finding {
            id: "diversity-increases-low-scores",
            claim: "the number of genuine match scores < 10 significantly \
                    increases when the verification device differs",
            holds: rate(cross) > rate(same) && protected(same) && protected(cross),
            evidence: format!(
                "low-score rate {:.3} (same) vs {:.3} (cross); low scores in \
                 good-quality pairs {}/{} (same), {}/{} (cross), at most half + 1",
                rate(same),
                rate(cross),
                same[2],
                same[1],
                cross[2],
                cross[1]
            ),
        });
    }

    // F8: ink probes score lowest (Figure 4).
    {
        // Live-scan probe devices whose mean genuine score, per live-scan
        // gallery, is below the ink probe's.
        let beaten: Vec<usize> = (0..4u8)
            .map(|g| {
                let means: Vec<f64> = (0..5u8)
                    .map(|p| mean(&data.scores.genuine_values(DeviceId(g), DeviceId(p))))
                    .collect();
                means[..4].iter().filter(|&&m| m < means[4]).count()
            })
            .collect();
        findings.push(Finding {
            id: "ink-probes-score-lowest",
            claim: "for every live-scan gallery, the ink ten-print probe is \
                    among the two lowest-scoring probe devices",
            holds: beaten.iter().all(|&n| n <= 1),
            evidence: format!(
                "live-scan probes scoring below the ink probe, by gallery D0-D3: {beaten:?}"
            ),
        });
    }

    // F9: quality gating never hurts FNMR (Table 6).
    {
        // The largest FNMR rise over the cells with enough gated data.
        let mut worst: Option<(f64, u8, u8)> = None;
        for g in 0..5u8 {
            for p in 0..5u8 {
                let good: Vec<f64> = data
                    .scores
                    .genuine_cell(DeviceId(g), DeviceId(p))
                    .iter()
                    .filter(|s| good_quality(s))
                    .map(|s| s.score)
                    .collect();
                if good.len() < 10 {
                    continue; // too little gated data to compare rates
                }
                let all = data.scores.score_set(DeviceId(g), DeviceId(p));
                let t = all.threshold_at_fmr(1e-3);
                let rise = ScoreSet::new(good, Vec::new()).fnmr_at(t) - all.fnmr_at(t);
                if worst.is_none_or(|(w, _, _)| rise > w) {
                    worst = Some((rise, g, p));
                }
            }
        }
        findings.push(Finding {
            id: "quality-gating-never-hurts-fnmr",
            claim: "restricting to good-quality pairs improves or preserves \
                    the FNMR of every cell at FMR 0.1 %",
            holds: worst.is_none_or(|(rise, _, _)| rise <= 0.02),
            evidence: match worst {
                Some((rise, g, p)) => format!(
                    "largest FNMR change from gating {rise:+.3} at (D{g},D{p}) \
                     (tolerance +0.02)"
                ),
                None => "no cell has 10 good-quality genuine pairs".to_string(),
            },
        });
    }

    findings
}

/// F6: τ(x,x) = 1 on the live-scan diagonal; every other probe y has
/// τ(x,y) < 1 and a less extreme p than the diagonal; and some pair differs
/// from its transpose by more than 0.01. A degenerate cell fails the finding.
fn kendall_structure(data: &StudyData) -> Finding {
    let claim = "the results of Kendall's rank test are not symmetric, \
                 with a perfectly-correlated diagonal";
    let mut cells = Vec::with_capacity(4);
    for x in 0..4u8 {
        let mut row = Vec::with_capacity(5);
        for y in 0..5u8 {
            match fp_stats::kendall::kendall_tau_b(
                &data.scores.genuine_values(DeviceId(x), DeviceId(x)),
                &data.scores.genuine_values(DeviceId(x), DeviceId(y)),
            ) {
                Some(t) => row.push(t),
                None => {
                    return Finding {
                        id: "kendall-structure",
                        claim,
                        holds: false,
                        evidence: format!("degenerate cell (D{x},D{y})"),
                    }
                }
            }
        }
        cells.push(row);
    }
    let mut diag_perfect = true;
    let mut off_weaker = Vec::new();
    let mut max_gap = 0.0f64;
    for (x, row) in cells.iter().enumerate() {
        let diag = &row[x];
        diag_perfect &= (diag.tau - 1.0).abs() < 1e-9;
        for (y, off) in row.iter().enumerate().filter(|&(y, _)| y != x) {
            if !(off.tau < 1.0 && diag.log10_p < off.log10_p) {
                off_weaker.push(format!("(D{x},D{y})"));
            }
            if let Some(transpose) = cells.get(y) {
                max_gap = max_gap.max((off.tau - transpose[x].tau).abs());
            }
        }
    }
    Finding {
        id: "kendall-structure",
        claim,
        holds: diag_perfect && off_weaker.is_empty() && max_gap > 0.01,
        evidence: format!(
            "diagonal tau = 1: {diag_perfect}, off-diagonal cells not weaker \
             than their diagonal: [{}], max |tau(x,y)-tau(y,x)| = {max_gap:.3}",
            off_weaker.join(" ")
        ),
    }
}

/// Renders the findings as a terminal report; returns `(report, all_hold)`.
pub fn render(findings: &[Finding]) -> (String, bool) {
    let mut out = String::new();
    let mut all = true;
    for f in findings {
        let mark = if f.holds { "PASS" } else { "FAIL" };
        all &= f.holds;
        out.push_str(&format!(
            "[{mark}] {}\n       {}\n       -> {}\n",
            f.id, f.claim, f.evidence
        ));
    }
    (out, all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testdata;

    #[test]
    fn all_findings_are_reported() {
        let findings = check_all(testdata::small());
        assert_eq!(findings.len(), 9);
        let ids: std::collections::HashSet<&str> = findings.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), 9, "duplicate finding ids");
    }

    #[test]
    fn core_findings_hold_even_at_small_scale() {
        // The big orderings are robust; the fine anomaly structure needs a
        // larger cohort (exercised by tests/paper_findings.rs), so only the
        // first three findings are required here.
        let findings = check_all(testdata::small());
        for f in &findings[..3] {
            assert!(f.holds, "{}: {}", f.id, f.evidence);
        }
    }

    #[test]
    fn render_marks_pass_and_fail() {
        let findings = vec![
            Finding {
                id: "a",
                claim: "c",
                holds: true,
                evidence: "e".into(),
            },
            Finding {
                id: "b",
                claim: "c",
                holds: false,
                evidence: "e".into(),
            },
        ];
        let (report, all) = render(&findings);
        assert!(report.contains("[PASS] a"));
        assert!(report.contains("[FAIL] b"));
        assert!(!all);
    }
}
