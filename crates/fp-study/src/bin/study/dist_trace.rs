//! **Gate: cross-process distributed tracing** — `study check-dist-trace`.
//!
//! Spawns a real `serve-shard` topology (one shard with an injected
//! stage delay), runs the same probe set twice — once untraced, once with
//! tracing and a tail-latency slow log armed — and asserts the whole
//! distributed-tracing contract at once:
//!
//! 1. **Behavioral invisibility** — the traced run's candidate lists are
//!    byte-identical to the untraced run *and* to a sequential in-process
//!    baseline, and all three RUNFP chains are equal. Tracing must never
//!    perturb a result bit.
//! 2. **One connected tree** — after [`Coordinator::collect_traces`]
//!    drains every shard, the merged snapshot passes `validate_tree` with
//!    exactly one root: every remote `server.request` span is re-parented
//!    under the coordinator `serve.rpc` span that issued it, and every
//!    `server.queue_wait` span sits under its request.
//!    A truncated trace can still be connected, so the merged snapshot
//!    must also report zero dropped spans and events.
//! 3. **One lane per process** — the merged trace carries one Chrome
//!    `pid` lane per shard process plus the coordinator's own.
//! 4. **The exemplar names the culprit** — every slow-log exemplar's
//!    `slowest_shard` is the delayed shard, and its server-reported work
//!    time covers the injected delay (the `ServerTiming` echo made it
//!    across the wire, not just a coordinator-side round-trip guess).
//!
//! [`Coordinator::collect_traces`]: fp_serve::Coordinator::collect_traces

use std::sync::Arc;

use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{CandidateIndex, IndexConfig, SearchResult};
use fp_match::PairTableMatcher;
use fp_serve::{SlowLog, SlowLogEntry};
use fp_telemetry::{Telemetry, TraceSnapshot, LOCAL_PID};
use serde_json::json;

use fp_study::config::StudyConfig;
use fp_study::experiments::harness::Cohort;
use fp_study::report::Report;

use crate::fleet::ShardFleet;

/// Shard processes.
const SHARDS: usize = 2;

/// The shard whose stage handlers sleep: the last one.
const DELAYED: usize = SHARDS - 1;

/// Probes per pass: small — the delayed shard pays `2 * delay_ms` per
/// search, and the gate runs the set twice.
const MAX_PROBES: usize = 12;

/// Everything the gate hands back to the CLI: the report (with pass/fail
/// in `values.error`), plus the artifacts worth writing to disk.
pub struct DistTraceOutcome {
    /// The gate report; `values["error"]` is null iff every check held.
    pub report: Report,
    /// The merged multi-process trace of the traced pass (empty on an
    /// early failure) — `--trace PATH` writes it as Chrome trace JSON.
    pub merged: TraceSnapshot,
    /// The traced pass's slow-log exemplars as JSONL (`--slowlog PATH`).
    pub slowlog_jsonl: String,
}

/// What one pass over the topology measured.
struct Pass {
    results: Vec<SearchResult>,
    runfp: String,
    /// Traced pass only: the merged snapshot and the retained exemplars.
    merged: Option<TraceSnapshot>,
    spans_collected: usize,
    exemplars: Vec<SlowLogEntry>,
    slowlog_jsonl: String,
}

/// Runs the full gate over [`SHARDS`] children. `delay_ms` is injected
/// into [`DELAYED`]'s stage handlers via `serve-shard --delay-ms`.
pub fn run_check(config: &StudyConfig, delay_ms: u64) -> DistTraceOutcome {
    let delay_ms = delay_ms.max(1);

    let (checks, merged, slowlog_jsonl, error) = match run_passes(config, delay_ms) {
        Ok((checks, merged, jsonl)) => {
            let failed = checks.iter().any(|(_, ok, _)| !*ok);
            let error = failed.then(|| {
                checks
                    .iter()
                    .filter(|(_, ok, _)| !*ok)
                    .map(|(name, _, _)| name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            });
            (checks, merged, jsonl, error)
        }
        Err(e) => (Vec::new(), TraceSnapshot::default(), String::new(), Some(e)),
    };

    let mut body = format!(
        "distributed-tracing gate: {} subjects over {SHARDS} serve-shard \
         process(es), shard {DELAYED} delayed by {delay_ms} ms\n\n",
        config.subjects,
    );
    for (name, ok, detail) in &checks {
        body.push_str(&format!(
            "  [{}] {name}: {detail}\n",
            if *ok { "ok" } else { "FAIL" }
        ));
    }
    if let Some(e) = &error {
        body.push_str(&format!("\ncheck-dist-trace FAILED: {e}\n"));
    } else {
        body.push_str("\nall distributed-tracing checks hold\n");
    }

    let values = json!({
        "subjects": config.subjects,
        "seed": config.seed,
        "shards": SHARDS,
        "delayed_shard": DELAYED,
        "delay_ms": delay_ms,
        "error": error,
        "checks": checks.iter().map(|(name, ok, detail)| json!({
            "check": name,
            "ok": ok,
            "detail": detail,
        })).collect::<Vec<_>>(),
    });

    DistTraceOutcome {
        report: Report::new(
            "check-dist-trace",
            "cross-process distributed tracing gate",
            body,
            values,
        ),
        merged,
        slowlog_jsonl,
    }
}

/// Check rows: (name, held, human detail).
type Checks = Vec<(String, bool, String)>;

fn run_passes(
    config: &StudyConfig,
    delay_ms: u64,
) -> Result<(Checks, TraceSnapshot, String), String> {
    let gallery = config.subjects;
    let cohort = Cohort::new(
        SeedTree::new(config.seed).child(&[0xD7]),
        gallery,
        MAX_PROBES,
    );
    let pool = cohort.pool();
    let probes: Vec<Template> = (0..cohort.probes()).map(|p| cohort.probe(p).1).collect();

    // Sequential in-process baseline: the untraced and traced passes must
    // both be byte-identical to it (and hence to each other).
    let mut baseline_index =
        CandidateIndex::with_config(PairTableMatcher::default(), IndexConfig::scaled(gallery))
            .with_run_seed(config.seed);
    baseline_index.enroll_all(pool);
    let baseline: Vec<SearchResult> = probes.iter().map(|p| baseline_index.search(p)).collect();
    let runfp_baseline = baseline_index.run_fingerprint().hex();

    let untraced = run_pass(config, pool, &probes, delay_ms, false)?;
    let traced = run_pass(config, pool, &probes, delay_ms, true)?;

    let mut checks: Checks = Vec::new();
    let mut check =
        |name: &str, ok: bool, detail: String| checks.push((name.to_string(), ok, detail));

    // 1. Behavioral invisibility.
    let parity = |pass: &Pass| {
        pass.results
            .iter()
            .zip(&baseline)
            .filter(|(got, want)| {
                got.candidates() == want.candidates() && got.gallery_len() == want.gallery_len()
            })
            .count()
    };
    let (untraced_parity, traced_parity) = (parity(&untraced), parity(&traced));
    check(
        "candidate parity",
        untraced_parity == probes.len() && traced_parity == probes.len(),
        format!(
            "untraced {untraced_parity}/{} and traced {traced_parity}/{} probes \
             byte-identical to the in-process baseline",
            probes.len(),
            probes.len()
        ),
    );
    check(
        "runfp parity",
        untraced.runfp == runfp_baseline && traced.runfp == runfp_baseline,
        format!(
            "baseline {runfp_baseline}, untraced {}, traced {}",
            untraced.runfp, traced.runfp
        ),
    );

    // 2. One connected tree.
    let merged = traced.merged.clone().unwrap_or_default();
    let tree = merged.validate_tree();
    check(
        "connected tree",
        matches!(tree, Ok(1)),
        match &tree {
            Ok(roots) => format!(
                "{} spans ({} drained from shards), {roots} root(s)",
                merged.spans.len(),
                traced.spans_collected
            ),
            Err(e) => format!("validate_tree failed: {e}"),
        },
    );
    let (complete, dropped) = no_dropped_spans(&merged);
    check("no dropped spans", complete, dropped);
    let name_of: std::collections::BTreeMap<u64, &str> = merged
        .spans
        .iter()
        .map(|s| (s.id, s.name.as_str()))
        .collect();
    let requests: Vec<_> = merged
        .spans
        .iter()
        .filter(|s| s.name == "server.request")
        .collect();
    let nested = requests
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| name_of.get(&p).copied() == Some("serve.rpc"))
        })
        .count();
    check(
        "remote spans nest under rpc spans",
        !requests.is_empty() && nested == requests.len(),
        format!(
            "{nested}/{} server.request spans parented under serve.rpc",
            requests.len()
        ),
    );
    let queue_waits = merged
        .spans
        .iter()
        .filter(|s| s.name == "server.queue_wait")
        .count();
    check(
        "queue-wait spans present",
        queue_waits > 0,
        format!("{queue_waits} server.queue_wait spans"),
    );

    // 3. One Chrome lane per process.
    let mut pids: Vec<u64> = merged.spans.iter().map(|s| s.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    check(
        "one lane per process",
        pids.len() == SHARDS + 1 && pids.contains(&LOCAL_PID),
        format!(
            "{} process lanes for coordinator + {SHARDS} shard(s)",
            pids.len()
        ),
    );

    // 4. The exemplar names the culprit.
    let naming = traced
        .exemplars
        .iter()
        .filter(|e| e.slowest_shard() == Some(DELAYED))
        .count();
    check(
        "slow-log exemplars name the delayed shard",
        !traced.exemplars.is_empty() && naming == traced.exemplars.len(),
        format!(
            "{naming}/{} exemplars name shard {DELAYED}",
            traced.exemplars.len()
        ),
    );
    let delay_ns = delay_ms.saturating_mul(1_000_000);
    let covered = traced
        .exemplars
        .iter()
        .filter_map(|e| e.shards.iter().find(|b| b.shard == DELAYED))
        .filter(|b| b.work_ns >= delay_ns)
        .count();
    check(
        "server timing covers the injected delay",
        covered == traced.exemplars.len() && !traced.exemplars.is_empty(),
        format!(
            "{covered}/{} exemplars report >= {delay_ms} ms shard-side work for shard {DELAYED}",
            traced.exemplars.len()
        ),
    );

    Ok((checks, merged, traced.slowlog_jsonl))
}

/// The `no dropped spans` check row: a flight-recorder overflow (here or on
/// a shard) means the merged trace is a truncation of what happened.
fn no_dropped_spans(merged: &TraceSnapshot) -> (bool, String) {
    (
        merged.dropped_spans == 0 && merged.dropped_events == 0,
        format!(
            "{} dropped spans, {} dropped events",
            merged.dropped_spans, merged.dropped_events
        ),
    )
}

/// One full pass over a fresh topology: spawn, enroll, search every probe,
/// (optionally) drain + merge traces, tear down.
fn run_pass(
    config: &StudyConfig,
    pool: &[Template],
    probes: &[Template],
    delay_ms: u64,
    traced: bool,
) -> Result<Pass, String> {
    // The injected delay rides in *both* passes so their latencies — and
    // hence their results and fingerprints — are measured under identical
    // conditions; only the tracing differs.
    let fleet = ShardFleet::spawn(SHARDS, |k| {
        if k == DELAYED {
            vec!["--delay-ms".to_string(), delay_ms.to_string()]
        } else {
            Vec::new()
        }
    })?;

    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    // Arm the slow log well under the injected delay: every search waits
    // on the delayed shard, so every search must become an exemplar.
    let slowlog = Arc::new(SlowLog::with_threshold_ns(
        &telemetry,
        delay_ms.saturating_mul(1_000_000) / 2,
    ));
    let mut remote = fleet
        .connect(IndexConfig::scaled(pool.len()))?
        .with_telemetry(&telemetry)
        .with_run_seed(config.seed);
    if traced {
        remote = remote.with_slowlog(Arc::clone(&slowlog));
    }

    let mut results = Vec::with_capacity(probes.len());
    let mut spans_collected = 0;
    {
        // The pass root span: every serve.rpc (enroll, stage-1, re-rank,
        // trace drain) nests under it, so the merged snapshot forms a
        // single connected tree.
        let _root = telemetry.span_with("check.dist_trace", &[("shards", SHARDS.to_string())]);
        remote.enroll_all(pool).map_err(|e| e.to_string())?;
        for probe in probes {
            results.push(remote.search(probe).map_err(|e| e.to_string())?);
        }
        if traced {
            spans_collected = remote.collect_traces().map_err(|e| e.to_string())?;
        }
    }
    let merged = traced.then(|| remote.merged_trace());
    let runfp = remote.run_fingerprint().hex();

    fleet.retire(&remote);

    Ok(Pass {
        results,
        runfp,
        merged,
        spans_collected,
        exemplars: slowlog.entries(),
        slowlog_jsonl: slowlog.to_jsonl(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_truncated_trace_fails_the_dropped_spans_row() {
        let mut merged = TraceSnapshot::default();
        assert!(no_dropped_spans(&merged).0);
        merged.dropped_spans = 1;
        let (ok, detail) = no_dropped_spans(&merged);
        assert!(!ok);
        assert_eq!(detail, "1 dropped spans, 0 dropped events");
    }
}
