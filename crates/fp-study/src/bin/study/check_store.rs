//! **Gate: persistent gallery store parity** — search over a gallery
//! reopened from disk must be *byte-identical* to fresh in-memory
//! enrollment of the same entries, through every lifecycle event the
//! store supports.
//!
//! The fp-store unit tests prove the invariant on a small gallery; this
//! gate re-proves it on every CI run at system scale, over the same
//! synthetic cohort the scaling study uses, across four rungs:
//!
//! 1. **Open parity** — a two-segment gallery opened as a
//!    [`CandidateIndex`] returns bitwise-equal candidate lists and an
//!    equal RUNFP chain vs fresh enrollment (and records how much faster
//!    opening is than enrolling).
//! 2. **Serve-from-store** (with `--remote-shards`) — a real
//!    `serve-shard --gallery-dir` child answers the same probes without a
//!    single enroll RPC, is then SIGKILLed mid-run and restarted from the
//!    same directory, and still agrees — the crash-recovery path.
//! 3. **Churn parity** — tombstone a spread of entries, append a
//!    re-enrollment segment, and the live view still equals fresh
//!    enrollment of the survivors in live order.
//! 4. **Compact parity** — compaction reclaims the tombstones into one
//!    fresh segment without perturbing a byte, and every CRC checks out.
//!
//! Any divergence fails the gate loudly with the first offending probe.

use std::path::Path;
use std::time::Instant;

use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{CandidateIndex, IndexConfig};
use fp_match::PairTableMatcher;
use fp_store::{CompactStats, GalleryStore};
use serde_json::json;

use fp_study::config::StudyConfig;
use fp_study::experiments::harness::{synthetic_template, Cohort};
use fp_study::report::Report;

use crate::fleet::ShardFleet;

/// Probes checked on every rung (each searches the whole gallery).
const MAX_PROBES: usize = 24;

/// What the parity pass measured.
struct StoreStats {
    gallery: usize,
    probes: usize,
    runfp: String,
    enroll_ms: f64,
    open_ms: f64,
    remote_checked: bool,
    churn_tombstoned: usize,
    churn_replacements: usize,
    compact: CompactStats,
    live_final: usize,
}

/// Refuses to clobber a directory that doesn't look like a gallery; clears
/// it when it does (the gate rebuilds the store from scratch every run).
fn prepare_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        let is_gallery = dir.join("MANIFEST").exists();
        let is_empty = std::fs::read_dir(dir)
            .map(|mut d| d.next().is_none())
            .unwrap_or(false);
        if !is_gallery && !is_empty {
            return Err(format!(
                "{} exists and holds no gallery MANIFEST; refusing to rebuild it",
                dir.display()
            ));
        }
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Candidate lists must agree element-wise; scores compare by bits via
/// `Candidate`'s derived equality.
fn assert_parity(
    rung: &str,
    p: usize,
    got: &fp_index::SearchResult,
    want: &fp_index::SearchResult,
) -> Result<(), String> {
    if got.candidates() != want.candidates() {
        return Err(format!(
            "probe {p}: {rung} candidate list diverged from fresh enrollment"
        ));
    }
    Ok(())
}

/// The gate's cohort: `subjects * 10` entries on the scaling study's seed
/// child, so a built gallery holds the `ext-scaling` top rung.
fn cohort(config: &StudyConfig) -> Cohort {
    Cohort::new(
        SeedTree::new(config.seed).child(&[0xE5]),
        config.subjects * 10,
        MAX_PROBES,
    )
}

/// Builds the gate's synthetic gallery at `dir` as two segments — the
/// `study gallery build` entry point. Returns `(live entries, segments)`.
/// The cohort is identical to `study check-store`'s at the same
/// `--subjects`/`--seed`, so a built gallery can be served, inspected and
/// compacted by the other subcommands.
pub fn build_gallery(config: &StudyConfig, dir: &Path) -> Result<(usize, usize), String> {
    prepare_dir(dir)?;
    let cohort = cohort(config);
    let pool = cohort.pool();
    let gallery = pool.len();
    let index_config = IndexConfig::scaled(gallery);
    let enroll = |templates: &[Template]| -> CandidateIndex<PairTableMatcher> {
        let mut index = CandidateIndex::with_config(PairTableMatcher::default(), index_config);
        index.enroll_all(templates);
        index
    };
    let mut store =
        GalleryStore::create(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let split = gallery * 3 / 5;
    store
        .append_index(&enroll(&pool[..split]))
        .map_err(|e| format!("append segment A: {e}"))?;
    store
        .append_index(&enroll(&pool[split..]))
        .map_err(|e| format!("append segment B: {e}"))?;
    Ok((store.live_len(), store.segments().len()))
}

/// Runs the gate: `Ok` with the stats, or the first divergence found.
fn check(config: &StudyConfig, remote_shards: usize, dir: &Path) -> Result<StoreStats, String> {
    prepare_dir(dir)?;

    let cohort = cohort(config);
    let pool = cohort.pool();
    let gallery = pool.len();
    let index_config = IndexConfig::scaled(gallery);
    let enroll = |templates: &[Template]| -> CandidateIndex<PairTableMatcher> {
        let mut index = CandidateIndex::with_config(PairTableMatcher::default(), index_config);
        index.enroll_all(templates);
        index
    };

    let probes = cohort.probes();
    let probe_of = |p: usize| cohort.probe(p).1;

    // The fresh-enrollment baseline every rung is compared against — and
    // the enroll-from-scratch cost the store exists to avoid paying twice.
    let start = Instant::now();
    let mut baseline = CandidateIndex::with_config(PairTableMatcher::default(), index_config)
        .with_run_seed(config.seed);
    baseline.enroll_all(pool);
    let enroll_ms = start.elapsed().as_secs_f64() * 1e3;
    let baseline_results: Vec<_> = (0..probes).map(|p| baseline.search(&probe_of(p))).collect();
    let runfp = baseline.run_fingerprint().hex();

    // Build the store as TWO segments (60/40) so the open path exercises
    // multi-segment concatenation, not just a trivial single-file load.
    let mut store =
        GalleryStore::create(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let split = gallery * 3 / 5;
    let seq_a = store
        .append_index(&enroll(&pool[..split]))
        .map_err(|e| format!("append segment A: {e}"))?;
    store
        .append_index(&enroll(&pool[split..]))
        .map_err(|e| format!("append segment B: {e}"))?;

    // Rung 1: plain open parity (timed — the headline number).
    let start = Instant::now();
    let opened = GalleryStore::open(dir)
        .and_then(|s| s.open_index())
        .map_err(|e| format!("open gallery: {e}"))?
        .with_run_seed(config.seed);
    let open_ms = start.elapsed().as_secs_f64() * 1e3;
    if opened.len() != gallery {
        return Err(format!(
            "opened index has {} entries, enrolled {gallery}",
            opened.len()
        ));
    }
    for (p, want) in baseline_results.iter().enumerate() {
        assert_parity("opened-store", p, &opened.search(&probe_of(p)), want)?;
    }
    let runfp_opened = opened.run_fingerprint().hex();
    if runfp_opened != runfp {
        return Err(format!(
            "RUNFP diverged: fresh {runfp}, opened store {runfp_opened}"
        ));
    }

    // Rung 2: a real serve-shard child loads the gallery itself — zero
    // enroll RPCs — then survives a SIGKILL + restart from the same dir.
    let mut remote_checked = false;
    if remote_shards >= 1 {
        remote_rung(
            config,
            dir,
            index_config,
            &baseline_results,
            &probe_of,
            &runfp,
        )?;
        remote_checked = true;
    }

    // Rung 3: churn. Tombstone every 7th entry of segment A, append a
    // re-enrollment segment, and the live view must equal fresh
    // enrollment of the survivors in live order.
    for at in (0..split as u32).step_by(7) {
        store
            .tombstone(seq_a, at)
            .map_err(|e| format!("tombstone ({seq_a}, {at}): {e}"))?;
    }
    let churn_tombstoned = split.div_ceil(7);
    let replacements: Vec<Template> = (0..3)
        .map(|j| synthetic_template(cohort.seeds(), (gallery * 10 + j) as u64, 26))
        .collect();
    store
        .append_index(&enroll(&replacements))
        .map_err(|e| format!("append replacement segment: {e}"))?;

    let mut live: Vec<Template> = pool[..split]
        .iter()
        .enumerate()
        .filter(|(at, _)| at % 7 != 0)
        .map(|(_, t)| t.clone())
        .collect();
    live.extend_from_slice(&pool[split..]);
    live.extend_from_slice(&replacements);
    let mut fresh = CandidateIndex::with_config(PairTableMatcher::default(), index_config)
        .with_run_seed(config.seed);
    fresh.enroll_all(&live);
    let fresh_results: Vec<_> = (0..probes).map(|p| fresh.search(&probe_of(p))).collect();
    let fresh_runfp = fresh.run_fingerprint().hex();

    let churned = store
        .open_index()
        .map_err(|e| format!("open churned gallery: {e}"))?
        .with_run_seed(config.seed);
    if churned.len() != live.len() {
        return Err(format!(
            "churned live view has {} entries, expected {}",
            churned.len(),
            live.len()
        ));
    }
    for (p, want) in fresh_results.iter().enumerate() {
        assert_parity("churned-store", p, &churned.search(&probe_of(p)), want)?;
    }
    let runfp_churned = churned.run_fingerprint().hex();
    if runfp_churned != fresh_runfp {
        return Err(format!(
            "RUNFP diverged after churn: fresh {fresh_runfp}, opened {runfp_churned}"
        ));
    }

    // Rung 4: compact reclaims the tombstones without perturbing a byte.
    let compact = store.compact().map_err(|e| format!("compact: {e}"))?;
    if compact.segments_after != 1 || store.tombstone_count() != 0 {
        return Err(format!(
            "compact left {} segments and {} tombstones (expected 1 and 0)",
            compact.segments_after,
            store.tombstone_count()
        ));
    }
    if compact.bytes_after >= compact.bytes_before {
        return Err(format!(
            "compact did not reclaim space ({} -> {} bytes)",
            compact.bytes_before, compact.bytes_after
        ));
    }
    let compacted = store
        .open_index()
        .map_err(|e| format!("open compacted gallery: {e}"))?
        .with_run_seed(config.seed);
    for (p, want) in fresh_results.iter().enumerate() {
        assert_parity("compacted-store", p, &compacted.search(&probe_of(p)), want)?;
    }
    let runfp_compacted = compacted.run_fingerprint().hex();
    if runfp_compacted != fresh_runfp {
        return Err(format!(
            "RUNFP diverged after compact: fresh {fresh_runfp}, opened {runfp_compacted}"
        ));
    }
    let inspect = store.inspect().map_err(|e| format!("inspect: {e}"))?;
    if !inspect.all_crc_ok() {
        return Err("a compacted segment failed its CRC check".to_string());
    }

    Ok(StoreStats {
        gallery,
        probes,
        runfp,
        enroll_ms,
        open_ms,
        remote_checked,
        churn_tombstoned,
        churn_replacements: replacements.len(),
        compact,
        live_final: live.len(),
    })
}

/// The cross-process rung: a `serve-shard --gallery-dir` child answers the
/// probe loop from the persisted gallery (no enroll RPCs), gets SIGKILLed,
/// is restarted from the same directory, and must still agree byte for
/// byte.
///
/// One child, not `--remote-shards` of them: the store persists the whole
/// gallery, and every child opening the same directory would serve every
/// entry. Serving one store across many hosts needs per-shard gallery
/// directories (see ROADMAP).
fn remote_rung(
    config: &StudyConfig,
    dir: &Path,
    index_config: IndexConfig,
    baseline_results: &[fp_index::SearchResult],
    probe_of: &dyn Fn(usize) -> Template,
    runfp: &str,
) -> Result<(), String> {
    let dir_arg = dir.to_str().ok_or("gallery dir is not valid UTF-8")?;
    let probe_loop = |label: &str| -> Result<(), String> {
        let fleet = ShardFleet::spawn(1, |_| {
            vec!["--gallery-dir".to_string(), dir_arg.to_string()]
        })?;
        let remote = fleet
            .connect(index_config)
            .map_err(|e| format!("{label}: connect: {e}"))?
            .with_run_seed(config.seed);
        for (p, want) in baseline_results.iter().enumerate() {
            let result = remote
                .search(&probe_of(p))
                .map_err(|e| format!("{label}: probe {p}: {e}"))?;
            if result.candidates() != want.candidates() {
                return Err(format!(
                    "probe {p}: {label} candidate list diverged from fresh enrollment"
                ));
            }
        }
        let hex = remote.run_fingerprint().hex();
        if hex != runfp {
            return Err(format!("RUNFP diverged: fresh {runfp}, {label} {hex}"));
        }
        remote
            .verify_fingerprints()
            .map_err(|e| format!("{label}: fingerprint verification: {e}"))?;
        if label.starts_with("serve-from-store") {
            // First pass: crash the child (dropping a fleet SIGKILLs it)
            // instead of shutting it down — the restart pass below must
            // recover from the same directory.
            drop(fleet);
        } else {
            fleet.retire(&remote);
        }
        Ok(())
    };
    probe_loop("serve-from-store")?;
    probe_loop("serve-after-crash-restart")
}

/// Runs the gate and renders the report. `values["error"]` is `null` on
/// success; the CLI exit code keys off it.
pub fn run_check(config: &StudyConfig, remote_shards: usize, gallery_dir: &Path) -> Report {
    match check(config, remote_shards, gallery_dir) {
        Ok(stats) => {
            let speedup = stats.enroll_ms / stats.open_ms.max(1e-9);
            let mut body = format!(
                "persistent-store parity over a {}-entry gallery ({} probes):\n\
                 \n\
                 open = fresh enrollment: candidate lists bitwise equal, RUNFP {}\n",
                stats.gallery, stats.probes, stats.runfp,
            );
            if stats.remote_checked {
                body.push_str(
                    "serve-shard --gallery-dir: equal, zero enroll RPCs, survived kill+restart\n",
                );
            } else {
                body.push_str("serve-shard --gallery-dir: skipped (run with --remote-shards 1)\n");
            }
            body.push_str(&format!(
                "churn ({} tombstones + {} re-enrollments): equal\n\
                 compact ({} -> {} segments, {} entries reclaimed, {} -> {} bytes): equal, all CRCs ok\n\
                 \n\
                 open {:.1} ms vs enroll {:.1} ms ({speedup:.0}x); {} live entries on disk\n",
                stats.churn_tombstoned,
                stats.churn_replacements,
                stats.compact.segments_before,
                stats.compact.segments_after,
                stats.compact.entries_dropped,
                stats.compact.bytes_before,
                stats.compact.bytes_after,
                stats.open_ms,
                stats.enroll_ms,
                stats.live_final,
            ));
            Report::new(
                "check-store",
                "persisted gallery = fresh enrollment (bitwise)",
                body,
                json!({
                    "error": null,
                    "gallery": stats.gallery,
                    "probes": stats.probes,
                    "runfp": stats.runfp,
                    "enroll_ms": stats.enroll_ms,
                    "open_ms": stats.open_ms,
                    "remote_checked": stats.remote_checked,
                    "churn_tombstoned": stats.churn_tombstoned,
                    "churn_replacements": stats.churn_replacements,
                    "compact": serde_json::to_value(stats.compact).expect("serializable"),
                    "live_final": stats.live_final,
                }),
            )
        }
        Err(error) => Report::new(
            "check-store",
            "persisted gallery = fresh enrollment (bitwise)",
            format!("STORE PARITY FAILED: {error}\n"),
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
        let dir = std::env::temp_dir().join(format!("fp-check-store-{}", std::process::id()));
        let report = run_check(&config, 0, &dir);
        assert!(
            report.values["error"].is_null(),
            "store parity gate failed: {}",
            report.body
        );
        assert!(report.values["open_ms"].as_f64().unwrap() > 0.0);
        assert_eq!(report.values["compact"]["segments_after"], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_to_clobber_a_non_gallery_directory() {
        let dir = std::env::temp_dir().join(format!("fp-check-store-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("precious.txt"), "not a gallery").unwrap();
        let config = StudyConfig::builder().subjects(2).build();
        let report = run_check(&config, 0, &dir);
        assert!(!report.values["error"].is_null());
        assert!(
            dir.join("precious.txt").exists(),
            "must not delete user files"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
