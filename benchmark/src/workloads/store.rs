//! `store_lifecycle`: a gallery's whole life on disk, cycle after cycle —
//! enroll, save as a segment, reopen lazily, search cold and warm, tombstone
//! every 20th entry, compact, reopen, search again.
//!
//! It uses `fp-index` and `fp-store` in the write direction (enroll, encode,
//! compact) beside the read direction (lazy open, demand table loads), so a
//! change that buys search or open speed by slowing inserts or saves, or by
//! growing the file, shows here. Single operations are noisy, hence cycles
//! and medians. Throughput is gallery entries taken through the lifecycle
//! per second; latency is a search on a store-opened index, demand table
//! loads included.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fp_core::template::Template;
use fp_index::{CandidateIndex, SearchResult};
use fp_match::PairTableMatcher;
use fp_store::{CompactStats, GalleryStore};
use fp_telemetry::{Span, Telemetry};

use super::identify::{build_index, result_digest};
use super::{closed_loop, peak_rss_mb, trace_path, RunArgs, SetupClock, Timed};
use crate::gen;
use crate::ledger::Outcome;
use crate::stats;
use crate::trace::Tracer;

/// Every `TOMBSTONE_EVERY`-th entry is deleted before compaction (5 % churn).
const TOMBSTONE_EVERY: usize = 20;

/// Scratch space for the stores, removed when dropped — on success, on an
/// error return and on a panic alike.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(out_dir: &Path) -> Result<ScratchDir, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Inputs {
    gallery: Vec<Template>,
    /// Probe 0 is searched first (cold) and again (warm); then come the
    /// warm-store probes and the compacted-store probes.
    probes: Vec<Template>,
}

fn inputs(args: &RunArgs) -> Inputs {
    let sizes = args.sizes;
    let gallery = gen::gallery(args.seed, sizes.store_entries);
    let count = 1 + sizes.store_warm_searches + sizes.store_compacted_searches;
    let probes = gen::probes(args.seed, &gallery, count)
        .into_iter()
        .map(|p| p.template)
        .collect();
    Inputs { gallery, probes }
}

/// What one cycle measured and returned.
struct Cycle {
    /// Latency (ms) of every search on a store-opened index.
    search_ms: Vec<f64>,
    /// Digests of the searches on the freshly opened store, in probe order
    /// (probe 0 twice), then of those on the compacted store.
    opened: Vec<u64>,
    compacted: Vec<u64>,
    segment_bytes: u64,
    compact: CompactStats,
    live_after_compact: usize,
}

/// Bytes of every segment file in `dir`.
fn segment_bytes(dir: &Path) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("size of {}: {e}", dir.display());
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        if entry.path().extension().is_some_and(|ext| ext == "fpseg") {
            bytes += entry.metadata().map_err(io)?.len();
        }
    }
    Ok(bytes)
}

fn timed_search(
    index: &CandidateIndex<PairTableMatcher>,
    probe: &Template,
    search_ms: &mut Vec<f64>,
) -> SearchResult {
    let start = Instant::now();
    let result = index.search(probe);
    search_ms.push(start.elapsed().as_secs_f64() * 1e3);
    result
}

/// One lifecycle in directory `dir` (created and removed here). With a
/// tracer, every call into `fp-index` and `fp-store` runs inside a span, and
/// the stores count their reads into `telemetry`.
fn cycle(
    inputs: &Inputs,
    args: &RunArgs,
    dir: &Path,
    n: u64,
    tracer: Option<&Tracer>,
    telemetry: &Telemetry,
) -> Result<Cycle, String> {
    let span = |name: &str| -> Option<Span> { tracer.map(|t| t.span(name)) };
    let _root = tracer.map(|t| t.root("cycle", n));
    let store_err = |what: &str, e: fp_store::StoreError| format!("{what}: {e}");
    let warm = args.sizes.store_warm_searches;

    let index = {
        let _span = span("index.enroll_all");
        build_index(&inputs.gallery, args.seed)
    };
    let (mut store, seq) = {
        let _span = span("store.append");
        let mut store = GalleryStore::create(dir).map_err(|e| store_err("create", e))?;
        let seq = store
            .append_index(&index)
            .map_err(|e| store_err("append", e))?;
        (store, seq)
    };
    drop(index);
    let segment_bytes = segment_bytes(dir)?;

    let mut search_ms = Vec::new();
    let mut opened_digests = Vec::new();
    {
        let reopened = {
            let _span = span("store.open_manifest");
            GalleryStore::open(dir).map_err(|e| store_err("open", e))?
        }
        .with_telemetry(telemetry);
        let opened = {
            let _span = span("store.open_index");
            reopened
                .open_index()
                .map_err(|e| store_err("open_index", e))?
        };
        {
            let _span = span("store.first_search");
            opened_digests.push(result_digest(&timed_search(
                &opened,
                &inputs.probes[0],
                &mut search_ms,
            )));
        }
        {
            let _span = span("store.repeat_search");
            opened_digests.push(result_digest(&timed_search(
                &opened,
                &inputs.probes[0],
                &mut search_ms,
            )));
        }
        for probe in &inputs.probes[1..1 + warm] {
            let _span = span("store.warm_search");
            opened_digests.push(result_digest(&timed_search(&opened, probe, &mut search_ms)));
        }
    }

    {
        let _span = span("store.tombstone");
        for at in (0..inputs.gallery.len()).step_by(TOMBSTONE_EVERY) {
            store
                .tombstone(seq, at as u32)
                .map_err(|e| store_err("tombstone", e))?;
        }
    }
    let compact = {
        let _span = span("store.compact");
        store.compact().map_err(|e| store_err("compact", e))?
    };
    let live_after_compact = store.live_len();
    let mut compacted_digests = Vec::new();
    {
        let compacted = {
            let _span = span("store.reopen");
            GalleryStore::open(dir)
                .and_then(|s| s.open_index())
                .map_err(|e| store_err("reopen", e))?
        };
        for probe in &inputs.probes[1 + warm..] {
            compacted_digests.push(result_digest(&timed_search(
                &compacted,
                probe,
                &mut search_ms,
            )));
        }
    }
    if tracer.is_some() {
        let inspect = store.inspect().map_err(|e| store_err("inspect", e))?;
        if !inspect.all_crc_ok() {
            return Err("a compacted segment fails its checksums".to_string());
        }
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(Cycle {
        search_ms,
        opened: opened_digests,
        compacted: compacted_digests,
        segment_bytes,
        compact,
        live_after_compact,
    })
}

/// What the opened and the compacted store must answer: fresh in-memory
/// enrolment of the same entries — all of them, then the survivors in live
/// order, which also proves no tombstoned entry is ever returned.
struct Expected {
    opened: Vec<u64>,
    compacted: Vec<u64>,
    survivors: usize,
    dropped: usize,
}

fn expected(inputs: &Inputs, args: &RunArgs) -> Expected {
    let warm = args.sizes.store_warm_searches;
    let fresh = build_index(&inputs.gallery, args.seed);
    let mut opened = vec![result_digest(&fresh.search(&inputs.probes[0])); 2];
    opened.extend(
        inputs.probes[1..1 + warm]
            .iter()
            .map(|p| result_digest(&fresh.search(p))),
    );
    drop(fresh);
    let survivors: Vec<Template> = inputs
        .gallery
        .iter()
        .enumerate()
        .filter(|(at, _)| at % TOMBSTONE_EVERY != 0)
        .map(|(_, t)| t.clone())
        .collect();
    let fresh = build_index(&survivors, args.seed);
    let compacted = inputs.probes[1 + warm..]
        .iter()
        .map(|p| result_digest(&fresh.search(p)))
        .collect();
    Expected {
        opened,
        compacted,
        survivors: survivors.len(),
        dropped: inputs.gallery.len() - survivors.len(),
    }
}

impl Expected {
    fn matches(&self, cycle: &Cycle) -> bool {
        cycle.opened == self.opened
            && cycle.compacted == self.compacted
            && cycle.live_after_compact == self.survivors
            && cycle.compact.segments_after == 1
            && cycle.compact.entries_dropped == self.dropped
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let scratch = ScratchDir::create(args.out_dir)?;
    let tracer = args.trace.then(Tracer::new);
    let telemetry = if args.trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut clock = SetupClock::default();
    let inputs = clock.time(|| Ok(inputs(args)))?;
    let expected = expected(&inputs, args);
    outcome.note("entries", inputs.gallery.len());
    outcome.note("searches_per_cycle", inputs.probes.len() + 1);

    let mut cycles: Vec<Cycle> = Vec::new();
    let mut errors = Vec::new();
    let timed = closed_loop(
        args.seconds,
        &mut outcome,
        |n| {
            let dir = scratch.0.join(format!("store-{n}"));
            cycle(&inputs, args, &dir, n as u64, tracer.as_ref(), &telemetry)
        },
        |_, cycle| match cycle {
            Ok(cycle) => {
                let ok = expected.matches(&cycle);
                cycles.push(cycle);
                ok
            }
            Err(e) => {
                errors.push(e);
                false
            }
        },
    );
    for error in errors {
        outcome.check(false, || error);
    }
    outcome.check(outcome.failed == 0, || {
        "an opened or compacted store answered differently from fresh enrolment".to_string()
    });
    outcome.note("cycles", cycles.len());
    let Some(last) = cycles.last() else {
        return Err("no lifecycle completed".to_string());
    };
    let entries = inputs.gallery.len() as f64;

    if let Some(tracer) = &tracer {
        let summary = tracer.finish(&trace_path(args.out_dir, "store_lifecycle"))?;
        outcome.note("trace_spans", summary.spans);
        let enroll_ms = summary.median_ms("index.enroll_all");
        let append_ms = summary.median_ms("store.append");
        let open_ms =
            summary.median_ms("store.open_manifest") + summary.median_ms("store.open_index");
        let first_ms = summary.median_ms("store.first_search");
        let compact_ms = summary.median_ms("store.compact");
        let shortlist = fp_index::IndexConfig::scaled(inputs.gallery.len()).shortlist as f64;
        let tombstones = inputs.gallery.len().div_ceil(TOMBSTONE_EVERY) as f64;
        let mb = |bytes: u64| bytes as f64 / 1e6;
        outcome.set("index.enroll_us_per_template", enroll_ms * 1e3 / entries);
        outcome.set("store.enroll_per_s", entries / (enroll_ms / 1e3));
        outcome.set("store.append_ms", append_ms);
        outcome.set(
            "store.save_mb_per_s",
            mb(last.segment_bytes) / (append_ms / 1e3),
        );
        outcome.set(
            "store.open_manifest_ms",
            summary.median_ms("store.open_manifest"),
        );
        outcome.set("store.open_index_ms", summary.median_ms("store.open_index"));
        outcome.set("store.first_search_ms", first_ms);
        outcome.set("store.open_to_first_result_ms", open_ms + first_ms);
        outcome.set(
            "store.warm_search_ms",
            summary.median_ms("store.warm_search"),
        );
        outcome.set(
            "store.table_load_us",
            (first_ms - summary.median_ms("store.repeat_search")) * 1e3 / shortlist,
        );
        outcome.set(
            "store.tombstone_us",
            summary.median_ms("store.tombstone") * 1e3 / tombstones,
        );
        outcome.set("store.compact_ms", compact_ms);
        outcome.set(
            "store.compact_mb_per_s",
            mb(last.compact.bytes_after) / (compact_ms / 1e3),
        );
        outcome.set("store.segment_bytes", last.segment_bytes as f64);
        outcome.set(
            "store.disk_bytes_per_entry",
            last.segment_bytes as f64 / entries,
        );
        let bytes_read = telemetry
            .snapshot()
            .counters
            .get("store.load.bytes")
            .copied()
            .unwrap_or(0);
        outcome.set(
            "store.bytes_read_on_open",
            bytes_read as f64 / cycles.len() as f64,
        );
        outcome.set(
            "store.compact_bytes_rewritten",
            last.compact.bytes_after as f64,
        );
    } else {
        let search_ms: Vec<f64> = cycles
            .iter()
            .flat_map(|c| c.search_ms.iter().copied())
            .collect();
        let searches = Timed {
            latencies_ms: search_ms,
            wall_s: timed.wall_s,
        };
        searches.report(&mut outcome, entries * cycles.len() as f64);
        outcome.note("cycle_ms_median", stats::median(&timed.latencies_ms));
        outcome.set("peak_rss_mb", peak_rss_mb(std::process::id())?);
        let setup_s = clock.finish(args.sizes.setup_repeats, || Ok(self::inputs(args)))?;
        outcome.set("setup_s", setup_s);
    }
    Ok(outcome)
}
