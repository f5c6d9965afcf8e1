//! **Gate: stage-1 kernel parity** — `CodeArena::score_into` must be
//! byte-identical to the scalar reference, end to end, on a real enrolled
//! gallery, and must be running the body it was tuned on.
//!
//! The proptest suite (`fp-index/tests/kernel.rs`) proves kernel ≡ oracle
//! over random packed codes; this gate re-proves it on every CI run at
//! system scale, over the same synthetic cohort the scaling study uses:
//!
//! 1. **Width census** — every coded entry of the enrolled arena, and of
//!    the same index saved to a store and opened again, must be
//!    [`LANE_WORDS`] wide. The kernel's specialised lane body runs only on
//!    that width; a change to `MccConfig`'s default grid would otherwise
//!    drop every search onto the general body without a test noticing.
//! 2. **Score parity** — for every probe, the enrolled index's per-entry
//!    stage-1 scores must be *bitwise* equal to the scalar reference
//!    driver's, and the `hamming_ops` meters must agree exactly. The step
//!    is repeated for every lane body the CPU can run, and the report
//!    names the one searches run ([`fp_index::lane_body_name`]): a host
//!    that fell back to a slower body says so, and the bodies it does not
//!    pick stay proven on it. The report also names the compilation of
//!    the pair-table matcher's association scan that exact re-rank runs
//!    ([`fp_match::scan_body_name`]), so a committed record names both
//!    bodies its host ran; that one's parity is `fp-match`'s own test
//!    (every body against the retained scalar oracle).
//!
//! RUNFP equality across transports is the `ladder` gate's (and
//! `fp-serve`'s `run_fingerprints_agree_across_transports`).
//!
//! Any divergence fails the gate loudly with the first offending probe and
//! entry.

use std::collections::BTreeMap;

use fp_core::rng::SeedTree;
use fp_index::{CandidateIndex, CodeArena, CylinderCodes, IndexConfig, LANE_WORDS};
use fp_match::{MccMatcher, PairTableMatcher};
use fp_store::GalleryStore;
use serde_json::json;

use fp_study::config::StudyConfig;
use fp_study::experiments::harness::Cohort;
use fp_study::report::Report;

/// Probes checked (each one scores the whole gallery twice, kernel and
/// oracle).
const MAX_PROBES: usize = 32;

/// What the parity pass measured.
struct KernelStats {
    gallery: usize,
    /// Coded entries per packed width (words per cylinder).
    widths: BTreeMap<usize, u64>,
    probes: usize,
    entries_checked: u64,
    hamming_ops: u64,
    /// Entries proven against the reference per lane body the CPU runs.
    body_parity: BTreeMap<String, u64>,
    arena_kib: usize,
}

/// Counts `arena`'s coded entries by packed width and refuses any width
/// but [`LANE_WORDS`] (an entry without cylinders has no width).
fn width_census(what: &str, arena: &CodeArena) -> Result<BTreeMap<usize, u64>, String> {
    let mut widths = BTreeMap::new();
    for entry in (0..arena.len()).map(|i| arena.entry(i)) {
        if !entry.is_empty() {
            *widths.entry(entry.words_per()).or_insert(0u64) += 1;
        }
    }
    match widths.iter().find(|(&width, _)| width != LANE_WORDS) {
        Some((width, n)) => Err(format!(
            "{what}: {n} coded entries are {width} words wide, not LANE_WORDS = {LANE_WORDS} \
             — the kernel's lane body no longer runs on them"
        )),
        None => Ok(widths),
    }
}

/// `index` saved to a scratch gallery and opened again: the arena a
/// store-backed shard hands the kernel.
fn reopened(
    index: &CandidateIndex<PairTableMatcher>,
) -> Result<CandidateIndex<PairTableMatcher>, String> {
    let dir = std::env::temp_dir().join(format!("fp-check-kernel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opened = GalleryStore::create(&dir)
        .and_then(|mut store| {
            store.append_index(index)?;
            store.open_index()
        })
        .map_err(|e| format!("store round trip in {}: {e}", dir.display()));
    let _ = std::fs::remove_dir_all(&dir);
    opened
}

/// Runs the gate: `Ok` with the stats, or the first divergence found.
fn check(config: &StudyConfig) -> Result<KernelStats, String> {
    let gallery = config.subjects * 10;
    let cohort = Cohort::new(
        SeedTree::new(config.seed).child(&[0xEC]),
        gallery,
        MAX_PROBES,
    );
    let pool = cohort.pool();
    let index_config = IndexConfig::scaled(gallery);

    let mut index = CandidateIndex::with_config(PairTableMatcher::default(), index_config);
    index.enroll_all(pool);

    let probes = cohort.probes();
    let probe_of = |p: usize| cohort.probe(p).1;

    // 1. Width census, on the arena as enrolled and as a store reopens it.
    let widths = width_census("enrolled arena", index.arena())?;
    if width_census("store-opened arena", reopened(&index)?.arena())? != widths {
        return Err("store-opened arena's width census differs from the enrolled one".to_string());
    }

    // 2. Score parity: kernel vs scalar reference, bitwise, plus exact
    // hamming_ops agreement, for every probe over the whole gallery —
    // through the search path's entry, then through each lane body.
    let mut entries_checked = 0u64;
    let mut hamming_ops = 0u64;
    let mut body_parity = BTreeMap::new();
    for p in 0..probes {
        let probe = probe_of(p);
        let (scores, ops) = index.stage1_cylinder_scores(&probe);
        let (reference, ops_reference) = index.stage1_cylinder_scores_reference(&probe);
        let parity = |kernel: &str, scores: &[f64], ops: u64| {
            if ops != ops_reference {
                return Err(format!(
                    "probe {p}: hamming_ops diverged ({kernel} {ops}, reference {ops_reference})"
                ));
            }
            for (id, (k, r)) in scores.iter().zip(&reference).enumerate() {
                if k.to_bits() != r.to_bits() {
                    return Err(format!(
                        "probe {p}, gallery entry {id}: {kernel} scored {k} \
                         ({:#018x}), scalar reference scored {r} ({:#018x})",
                        k.to_bits(),
                        r.to_bits()
                    ));
                }
            }
            Ok(())
        };
        parity("arena kernel", &scores, ops)?;
        entries_checked += scores.len() as u64;
        hamming_ops += ops;

        let codes =
            CylinderCodes::extract(&MccMatcher::default(), &probe, index_config.max_cylinders);
        for (body, scores, ops) in index
            .arena()
            .score_with_each_lane_body(&codes, index_config.lss_depth)
        {
            parity(&format!("lane body {body}"), &scores, ops)?;
            *body_parity.entry(body.to_string()).or_insert(0u64) += scores.len() as u64;
        }
    }

    Ok(KernelStats {
        gallery,
        widths,
        probes,
        entries_checked,
        hamming_ops,
        body_parity,
        arena_kib: index.arena().packed_bytes() / 1024,
    })
}

/// Runs the gate and renders the report. `values["error"]` is `null` on
/// success; the CLI exit code keys off it.
pub fn run_check(config: &StudyConfig) -> Report {
    match check(config) {
        Ok(stats) => {
            let body = format!(
                "stage-1 kernel parity over a {}-entry gallery ({} KiB packed arena):\n\
                 \n\
                 coded entries by words per cylinder, enrolled and store-opened: {:?}\n\
                 searches run lane body {}; same parity per body this CPU runs: {:?}\n\
                 re-rank runs scan body {} (proven against its oracle in fp-match's tests)\n\
                 kernel ≡ scalar: {} per-entry scores bitwise equal over {} probes\n\
                 hamming_ops meters agree exactly: {} word ops\n",
                stats.gallery,
                stats.arena_kib,
                stats.widths,
                fp_index::lane_body_name(),
                stats.body_parity,
                fp_match::scan_body_name(),
                stats.entries_checked,
                stats.probes,
                stats.hamming_ops,
            );
            let widths: BTreeMap<String, u64> = stats
                .widths
                .iter()
                .map(|(width, n)| (width.to_string(), *n))
                .collect();
            Report::new(
                "check-kernel",
                "stage-1 arena kernel ≡ scalar reference (bitwise)",
                body,
                json!({
                    "error": null,
                    "gallery": stats.gallery,
                    "widths": widths,
                    "lane_body": fp_index::lane_body_name(),
                    "scan_body": fp_match::scan_body_name(),
                    "body_parity": stats.body_parity,
                    "probes": stats.probes,
                    "entries_checked": stats.entries_checked,
                    "hamming_ops": stats.hamming_ops,
                    "arena_kib": stats.arena_kib,
                }),
            )
        }
        Err(error) => Report::new(
            "check-kernel",
            "stage-1 arena kernel ≡ scalar reference (bitwise)",
            format!("KERNEL PARITY FAILED: {error}\n"),
            json!({ "error": error }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_on_the_default_cohort() {
        let config = StudyConfig::builder().subjects(6).build();
        let report = run_check(&config);
        assert!(
            report.values["error"].is_null(),
            "kernel parity gate failed: {}",
            report.body
        );
        // 6 subjects x 10 entries, every one coded and lane-wide.
        assert_eq!(report.values["widths"], json!({ "5": 60 }));
        // The body searches run is named and is among the proven ones,
        // each over as many entries as the search path's own pass.
        let body = report.values["lane_body"].as_str().unwrap();
        assert_eq!(
            report.values["body_parity"][body],
            report.values["entries_checked"]
        );
        assert_eq!(
            report.values["body_parity"]["portable"],
            report.values["entries_checked"]
        );
        assert_eq!(report.values["scan_body"], fp_match::scan_body_name());
        assert!(report.values["entries_checked"].as_u64().unwrap() > 0);
        assert!(report.values["hamming_ops"].as_u64().unwrap() > 0);
    }

    #[test]
    fn census_refuses_an_entry_the_lane_body_would_not_run() {
        use fp_index::CylinderCodes;
        let lane =
            CylinderCodes::from_raw(vec![1; LANE_WORDS], vec![LANE_WORDS as u32], LANE_WORDS);
        let narrow = CylinderCodes::from_raw(vec![1; 3], vec![3], 3);
        let empty = CylinderCodes::from_raw(Vec::new(), Vec::new(), 0);
        let mut arena = CodeArena::new();
        arena.push(&lane);
        arena.push(&empty);
        assert_eq!(
            width_census("test", &arena),
            Ok(BTreeMap::from([(LANE_WORDS, 1)]))
        );
        arena.push(&narrow);
        let error = width_census("test", &arena).unwrap_err();
        assert!(error.contains("3 words wide"), "{error}");
    }
}
