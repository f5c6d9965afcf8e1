//! **Extension: identification scaling (1:N search throughput)** — how far
//! the two-stage candidate index stretches beyond the paper's 494-subject
//! cohort.
//!
//! The study's closed-set experiment asks *how accurate* identification is;
//! this one asks *how expensive*. Galleries of `subjects`, `5 x subjects`
//! and `10 x subjects` synthetic templates are enrolled into an
//! [`fp_index::CandidateIndex`] and probed with jittered second captures in
//! two perturbation profiles (same-device-like and cross-device-like, the
//! same distortion scales the sensor model applies). Each rung reports
//! indexed search throughput, an exhaustive-scan baseline on a probe
//! subsample, the speedup, shortlist recall, and rank-1 agreement with
//! brute force.
//!
//! Galleries and probes are the library's synthetic cohort
//! (`fp_study::experiments::harness`, seed-tree child `0xE5`).

use fp_core::rng::SeedTree;
use fp_index::{CandidateIndex, IndexConfig};
use fp_match::PairTableMatcher;
use fp_telemetry::Telemetry;
use serde_json::json;

use fp_study::config::StudyConfig;
use fp_study::experiments::harness::Cohort;
use fp_study::parallel::parallel_map_metered;
use fp_study::report::Report;

use crate::fleet::ShardFleet;

/// Gallery ladder: multiples of `config.subjects`.
const LADDER: [usize; 3] = [1, 5, 10];

/// Probes searched per rung (capped so the ladder stays wall-clock-bounded).
const MAX_PROBES: usize = 96;

/// Exhaustive-scan audits per rung (brute force is the expensive baseline).
const MAX_AUDITS: usize = 12;

/// One rung of the gallery ladder.
struct ScalingRow {
    gallery: usize,
    shortlist: usize,
    probes: usize,
    recall: f64,
    rank1: f64,
    audit_sampled: usize,
    audit_agreed: usize,
    build_seconds: f64,
    searches_per_second: f64,
    brute_searches_per_second: f64,
    /// Run fingerprint (hex) over exactly the rung's probe loop — the
    /// chain is snapshotted before the audits re-search the index, so the
    /// remote rung running the same probes must report the very same
    /// value.
    runfp: String,
}

/// The cross-process rung: `remote_shards` child `serve-shard` processes
/// behind an `fp-serve` coordinator, always over the top gallery rung.
struct RemoteRow {
    shards: usize,
    probes: usize,
    recall: f64,
    build_seconds: f64,
    searches_per_second: f64,
    /// Parity audits against the unsharded top-rung index (full candidate
    /// lists: ids AND scores, in order).
    parity_checked: usize,
    parity_agreed: usize,
    /// Run fingerprint (hex) over the rung's probe loop; must equal the
    /// unsharded top rung's.
    runfp: String,
}

/// Runs the ladder: the three gallery rungs, then the cross-process rung
/// over `remote_shards` `serve-shard` children (0: none). The index's
/// build/search instruments land in `telemetry`. Accuracy numbers (recall,
/// rank-1, audit agreement) are pure functions of the seed; throughput
/// numbers vary with the machine.
pub fn run(config: &StudyConfig, remote_shards: usize, telemetry: &Telemetry) -> Report {
    let max_gallery = config.subjects * LADDER[LADDER.len() - 1];

    // One template pool, shared by every rung as a prefix: rung results at
    // size N are independent of the ladder above them.
    let cohort = Cohort::metered(
        SeedTree::new(config.seed).child(&[0xE5]),
        max_gallery,
        MAX_PROBES,
        telemetry,
    );
    let pool = cohort.pool();

    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut top_index: Option<CandidateIndex<PairTableMatcher>> = None;
    for multiple in LADDER {
        let gallery = config.subjects * multiple;
        let _span = telemetry.span_with(
            &format!("scaling.gallery{gallery}"),
            &[("gallery", gallery.to_string())],
        );
        let mut index =
            CandidateIndex::with_config(PairTableMatcher::default(), IndexConfig::scaled(gallery))
                .with_telemetry(telemetry)
                .with_run_seed(config.seed);
        let build_start = std::time::Instant::now();
        index.enroll_all(&pool[..gallery]);
        let build_seconds = build_start.elapsed().as_secs_f64();
        let shortlist = index.config().shortlist.min(gallery);

        let probes = cohort.probes_over(gallery);
        let probe_of = |p: usize| cohort.probe_over(gallery, p);

        let search_start = std::time::Instant::now();
        let outcomes: Vec<(bool, bool)> =
            parallel_map_metered(probes, telemetry, "scaling.search", |p| {
                let (subject, probe) = probe_of(p);
                let result = index.search(&probe);
                let rank = result.genuine_rank(subject as u32);
                (rank.is_some(), rank == Some(1))
            });
        let search_seconds = search_start.elapsed().as_secs_f64();
        let in_shortlist = outcomes.iter().filter(|(hit, _)| *hit).count();
        let rank1_hits = outcomes.iter().filter(|(_, r1)| *r1).count();
        // Snapshot the run fingerprint NOW: the audits below re-search the
        // index, and the rung's reported chain must cover exactly the
        // probe loop the remote rung replays.
        let runfp = index.run_fingerprint().hex();

        // Exhaustive-scan baseline and agreement audit on a probe subsample.
        let audits = probes.min(MAX_AUDITS);
        let audit_stride = probes / audits;
        let brute_start = std::time::Instant::now();
        let agreed_flags: Vec<bool> =
            parallel_map_metered(audits, telemetry, "scaling.audit", |a| {
                let (_, probe) = probe_of(a * audit_stride);
                let exhaustive = index.brute_force(&probe);
                let indexed = index.search(&probe);
                indexed.best().map(|c| c.id) == exhaustive.best().map(|c| c.id)
            });
        let brute_seconds = brute_start.elapsed().as_secs_f64();
        let audit_agreed = agreed_flags.iter().filter(|&&ok| ok).count();

        rows.push(ScalingRow {
            gallery,
            shortlist,
            probes,
            recall: in_shortlist as f64 / probes as f64,
            rank1: rank1_hits as f64 / probes as f64,
            audit_sampled: audits,
            audit_agreed,
            build_seconds,
            searches_per_second: probes as f64 / search_seconds.max(1e-9),
            // Each audit also re-runs the indexed search; subtract its
            // (much smaller) cost estimate to keep the baseline honest.
            brute_searches_per_second: audits as f64
                / (brute_seconds - audits as f64 * search_seconds.max(1e-9) / probes as f64)
                    .max(1e-9),
            runfp,
        });
        if multiple == LADDER[LADDER.len() - 1] {
            top_index = Some(index);
        }
    }

    // Cross-process rung: N `serve-shard` children over loopback behind a
    // coordinator, audited for byte-identical parity against the
    // unsharded index.
    let mut remote_rows: Vec<RemoteRow> = Vec::new();
    let mut remote_error: Option<String> = None;
    if remote_shards >= 1 {
        let unsharded = top_index.as_ref().expect("ladder is non-empty");
        match remote_rung(config, remote_shards, telemetry, &cohort, unsharded) {
            Ok(row) => remote_rows.push(row),
            Err(e) => remote_error = Some(e),
        }
    }

    let mut body = format!(
        "identification scaling: gallery ladder x{:?} of {} subjects, \
         {MAX_PROBES} probes per rung (two capture-perturbation profiles)\n\n\
         {:<10}{:>10}{:>9}{:>10}{:>9}{:>12}{:>12}{:>10}\n",
        LADDER,
        config.subjects,
        "gallery",
        "shortlist",
        "build s",
        "recall",
        "rank-1",
        "search/s",
        "brute/s",
        "speedup"
    );
    for r in &rows {
        body.push_str(&format!(
            "{:<10}{:>10}{:>9.2}{:>10.3}{:>9.3}{:>12.1}{:>12.1}{:>10.1}\n",
            r.gallery,
            r.shortlist,
            r.build_seconds,
            r.recall,
            r.rank1,
            r.searches_per_second,
            r.brute_searches_per_second,
            r.searches_per_second / r.brute_searches_per_second.max(1e-9),
        ));
    }
    let last = rows.last().expect("ladder is non-empty");
    body.push_str(&format!(
        "\nat {} gallery entries the shortlist scores {} candidates exactly \
         ({:.0}x fewer exact comparisons than an exhaustive scan);\n\
         rank-1 matched brute force on {} of {} audited probes\n",
        last.gallery,
        last.shortlist,
        last.gallery as f64 / last.shortlist.max(1) as f64,
        rows.iter().map(|r| r.audit_agreed).sum::<usize>(),
        rows.iter().map(|r| r.audit_sampled).sum::<usize>(),
    ));
    if !remote_rows.is_empty() {
        body.push_str(&format!(
            "\ncross-process rung over the {max_gallery}-entry gallery \
             (serve-shard children over loopback, fp-serve wire protocol):\n\
             {:<8}{:>9}{:>10}{:>12}{:>10}\n",
            "shards", "build s", "recall", "search/s", "parity"
        ));
        for r in &remote_rows {
            body.push_str(&format!(
                "{:<8}{:>9.2}{:>10.3}{:>12.1}{:>7}/{}\n",
                r.shards,
                r.build_seconds,
                r.recall,
                r.searches_per_second,
                r.parity_agreed,
                r.parity_checked,
            ));
        }
    }
    if let Some(e) = &remote_error {
        body.push_str(&format!("\ncross-process rung FAILED: {e}\n"));
    }
    body.push_str(&format!(
        "\nrun fingerprint (top rung, seed {}): {} — the remote rung over \
         the same probes must report this exact value\n",
        config.seed, last.runfp
    ));

    Report::new(
        "ext-scaling",
        "1:N search throughput and recall vs gallery size",
        body,
        json!({
            "base_subjects": config.subjects,
            "ladder": LADDER,
            "remote_shards": remote_shards,
            "seed": config.seed,
            "remote_error": remote_error,
            "remote_rows": remote_rows
                .iter()
                .map(|r| json!({
                    "shards": r.shards,
                    "probes": r.probes,
                    "recall": r.recall,
                    "build_seconds": r.build_seconds,
                    "searches_per_second": r.searches_per_second,
                    "parity_checked": r.parity_checked,
                    "parity_agreed": r.parity_agreed,
                    "runfp": r.runfp,
                }))
                .collect::<Vec<_>>(),
            "rows": rows
                .iter()
                .map(|r| json!({
                    "gallery": r.gallery,
                    "shortlist": r.shortlist,
                    "probes": r.probes,
                    "recall": r.recall,
                    "rank1": r.rank1,
                    "audit_sampled": r.audit_sampled,
                    "audit_agreed": r.audit_agreed,
                    "build_seconds": r.build_seconds,
                    "searches_per_second": r.searches_per_second,
                    "brute_searches_per_second": r.brute_searches_per_second,
                    "runfp": r.runfp,
                }))
                .collect::<Vec<_>>(),
        }),
    )
}

/// Runs the cross-process rung: spawns `s` `serve-shard` children, enrolls
/// the top gallery rung through an `fp-serve` coordinator, and audits full
/// candidate-list parity against the unsharded index.
///
/// Errors are returned as strings so a failed rung shows up loudly in the
/// report (and fails `check-serve`) without aborting the in-process ladder
/// results.
fn remote_rung(
    config: &StudyConfig,
    s: usize,
    telemetry: &Telemetry,
    cohort: &Cohort,
    unsharded: &CandidateIndex<PairTableMatcher>,
) -> Result<RemoteRow, String> {
    use std::time::Instant;

    let pool = cohort.pool();
    let gallery = pool.len();
    let _span = telemetry.span_with(
        &format!("scaling.remote{s}"),
        &[("gallery", gallery.to_string()), ("shards", s.to_string())],
    );
    let fleet = ShardFleet::spawn(s, |_| Vec::new())?;
    let index_config = IndexConfig::scaled(gallery);
    let mut remote = fleet
        .connect(index_config)?
        .with_telemetry(telemetry)
        .with_run_seed(config.seed);

    let build_start = Instant::now();
    remote.enroll_all(pool).map_err(|e| e.to_string())?;
    let build_seconds = build_start.elapsed().as_secs_f64();

    let probes = cohort.probes();
    let search_start = Instant::now();
    let mut in_shortlist = 0usize;
    for p in 0..probes {
        let (subject, probe) = cohort.probe(p);
        let result = remote.search(&probe).map_err(|e| e.to_string())?;
        if result.genuine_rank(subject as u32).is_some() {
            in_shortlist += 1;
        }
    }
    let search_seconds = search_start.elapsed().as_secs_f64();
    // Snapshot before the parity audits, then scrape every shard's served
    // chain: a shard whose recorded chain disagrees with what the
    // coordinator decoded fails the whole rung loudly.
    let runfp = remote.run_fingerprint().hex();
    remote
        .verify_fingerprints()
        .map_err(|e| format!("fingerprint verification: {e}"))?;
    // Each shard's own `index.*` instruments, as `shard<k>.remote.*`
    // gauges: `check-serve` reads them to see every shard did its share.
    remote
        .scrape_stats()
        .map_err(|e| format!("stats scrape: {e}"))?;

    let audits = probes.min(MAX_AUDITS);
    let audit_stride = probes / audits;
    let mut parity_agreed = 0usize;
    for a in 0..audits {
        let (_, probe) = cohort.probe(a * audit_stride);
        let remote_result = remote.search(&probe).map_err(|e| e.to_string())?;
        if remote_result.candidates() == unsharded.search(&probe).candidates() {
            parity_agreed += 1;
        }
    }
    fleet.retire(&remote);

    Ok(RemoteRow {
        shards: s,
        probes,
        recall: in_shortlist as f64 / probes as f64,
        build_seconds,
        searches_per_second: probes as f64 / search_seconds.max(1e-9),
        parity_checked: audits,
        parity_agreed,
        runfp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> StudyConfig {
        StudyConfig::builder()
            .subjects(12)
            .seed(9)
            .impostors_per_cell(10)
            .build()
    }

    fn tiny() -> Report {
        run(&tiny_config(), 0, &Telemetry::disabled())
    }

    #[test]
    fn ladder_has_three_rungs_with_expected_sizes() {
        let r = tiny();
        let rows = r.values["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0]["gallery"], 12);
        assert_eq!(rows[1]["gallery"], 60);
        assert_eq!(rows[2]["gallery"], 120);
    }

    #[test]
    fn recall_and_rank1_are_high_at_small_scale() {
        // Every rung's shortlist (min 48) covers these tiny galleries
        // entirely except the last; recall must stay near-perfect and the
        // audits must agree with brute force.
        let r = tiny();
        for row in r.values["rows"].as_array().unwrap() {
            assert!(row["recall"].as_f64().unwrap() >= 0.97, "{row}");
            assert!(row["rank1"].as_f64().unwrap() >= 0.9, "{row}");
            assert_eq!(row["audit_agreed"], row["audit_sampled"], "{row}");
        }
    }

    #[test]
    fn remote_rung_is_off_by_default() {
        let r = tiny();
        assert_eq!(r.values["remote_shards"], 0);
        assert!(r.values["remote_rows"].as_array().unwrap().is_empty());
        assert!(r.values["remote_error"].is_null());
    }

    #[test]
    fn accuracy_fields_are_deterministic() {
        let a = tiny();
        let b = tiny();
        let rows_a = a.values["rows"].as_array().unwrap();
        let rows_b = b.values["rows"].as_array().unwrap();
        for (ra, rb) in rows_a.iter().zip(rows_b) {
            for key in [
                "gallery",
                "shortlist",
                "probes",
                "recall",
                "rank1",
                "audit_agreed",
                "runfp",
            ] {
                assert_eq!(ra[key], rb[key], "{key}");
            }
        }
    }
}
