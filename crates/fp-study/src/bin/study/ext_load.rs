//! **Extension: concurrent-serving load harness** — sustained multiplexed
//! 1:N identification traffic through a real coordinator + `serve-shard`
//! topology, proven byte-identical to a sequential in-process baseline.
//!
//! The scaling experiment (`ext_scaling`) asks how far one search
//! stretches; this one asks what happens when many searches share the
//! wire. It spawns `serve-shard` child processes over loopback, enrolls a
//! synthetic gallery, and then:
//!
//! 1. **Correctness under concurrency** — N client threads drive the one
//!    coordinator at once; every candidate list must be byte-identical
//!    (ids AND score bits) to an unsharded in-process index searching the
//!    same probes sequentially, and the coordinator's RUNFP chain must
//!    equal the baseline's. One flipped bit anywhere fails the run.
//! 2. **Pipeline-depth proof** — a raw [`MuxConn`] to shard 0 puts eight
//!    stage-1 requests on the wire before awaiting any; the connection's
//!    `peak_in_flight` must observably reach eight and every pipelined
//!    response must equal the sequential reply to the same request. This
//!    is deterministic, not a race the scheduler has to win.
//! 3. **Latency ladder** — 1/2/4/8 client threads replay the probe set,
//!    each search timed to the nanosecond; every rung reports throughput
//!    and nearest-rank p50/p95/p99/p999 of those raw timings, which is
//!    where overload and head-of-line blocking actually show up.
//! 4. **Admission ledger** — the shards' `serve.offered` /
//!    `serve.accepted` / `serve.overloaded` counters are scraped over the
//!    wire; offered must equal accepted + overloaded exactly. A request
//!    the server dropped without a typed answer breaks the ledger (and
//!    would already have hung or failed its caller).
//!
//! The run judges itself ([`verdict`]): a parity break, a fingerprint
//! mismatch, a shallow pipeline or a broken ledger lands in
//! `values.error`, and `study load` exits non-zero.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{CandidateIndex, IndexConfig, SearchResult};
use fp_match::PairTableMatcher;
use fp_serve::wire::Frame;
use fp_serve::{MuxConn, SlowLog};
use fp_telemetry::{Level, Telemetry};
use serde_json::json;

use fp_study::config::StudyConfig;
use fp_study::experiments::harness::Cohort;
use fp_study::report::Report;

use crate::fleet::{ShardFleet, RPC_DEADLINE};

/// `serve-shard` child processes behind the coordinator.
const SHARDS: usize = 2;

/// Probes per pass (capped so the whole harness stays seconds-scale).
const MAX_PROBES: usize = 48;

/// Client threads for the concurrent-correctness pass.
const PARITY_THREADS: usize = 4;

/// Requests put on the wire before any is awaited in the pipeline probe.
const PIPELINE_DEPTH: usize = 8;

/// The in-flight peak the pipeline probe must reach to pass.
const MIN_PIPELINE_PEAK: usize = 4;

/// Client-thread counts of the latency ladder.
const LADDER: [usize; 4] = [1, 2, 4, 8];

/// Nearest-rank percentile `q` of ascending `sorted`: the sample at rank
/// `ceil(q * n)`, so every reported latency is one a request really had
/// (0 for no samples).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0;
    };
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(last)]
}

/// One rung of the latency ladder.
struct LoadRung {
    clients: usize,
    searches: usize,
    answered: usize,
    wall_seconds: f64,
    throughput_per_s: f64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

/// Everything the load rungs measured; serialized into the report values.
struct LoadData {
    gallery: usize,
    probes: usize,
    parity_checked: usize,
    parity_agreed: usize,
    runfp_remote: String,
    runfp_baseline: String,
    pipeline_peak: usize,
    pipeline_parity: bool,
    coordinator_peak: usize,
    offered: u64,
    accepted: u64,
    overloaded: u64,
    rungs: Vec<LoadRung>,
}

/// Runs the harness over [`SHARDS`] `serve-shard` children. Parity counts,
/// fingerprints and the admission ledger are pure functions of the seed; latency and throughput vary with the machine. Every search
/// (concurrent pass and ladder rungs alike) is offered to `slowlog`, and the
/// caller reads the retained exemplars afterwards (`study load --slowlog
/// PATH` writes them as JSONL).
pub fn run(config: &StudyConfig, telemetry: &Telemetry, slowlog: Option<Arc<SlowLog>>) -> Report {
    let outcome = load_rung(config, telemetry, slowlog);
    if let Err(e) = &outcome {
        telemetry.event_with(Level::Error, "load rung failed", &[("error", e.clone())]);
    }
    report(config, outcome)
}

/// The run's verdict, a pure function of what it measured: every failure,
/// one message each (empty is a pass).
fn verdict(d: &LoadData) -> Vec<String> {
    let mut failures = Vec::new();
    if d.parity_checked == 0 || d.parity_agreed != d.parity_checked {
        failures.push(format!(
            "concurrent results diverged from the sequential baseline \
             (agreed {}/{})",
            d.parity_agreed, d.parity_checked
        ));
    }
    if d.runfp_remote != d.runfp_baseline {
        failures.push(format!(
            "run fingerprint diverged from the sequential baseline \
             (remote {}, baseline {})",
            d.runfp_remote, d.runfp_baseline
        ));
    }
    if d.pipeline_peak < MIN_PIPELINE_PEAK || !d.pipeline_parity {
        failures.push(format!(
            "pipeline probe failed (peak {} in flight, need {MIN_PIPELINE_PEAK}; \
             responses equal to sequential: {})",
            d.pipeline_peak, d.pipeline_parity
        ));
    }
    if d.offered == 0 || d.offered != d.accepted + d.overloaded {
        failures.push(format!(
            "admission ledger broken: offered {} != accepted {} + overloaded {}",
            d.offered, d.accepted, d.overloaded
        ));
    }
    failures
}

/// Renders the report; `values.error` holds the harness's error or the
/// failures of [`verdict`], joined, and is null on a pass.
fn report(config: &StudyConfig, outcome: Result<LoadData, String>) -> Report {
    let (data, error) = match outcome {
        Ok(data) => {
            let failures = verdict(&data);
            let error = (!failures.is_empty()).then(|| failures.join("; "));
            (Some(data), error)
        }
        Err(e) => (None, Some(e)),
    };

    let mut body = String::new();
    if let Some(d) = &data {
        body.push_str(&format!(
            "serving load harness: {} subjects over {} serve-shard process(es), \
             {} probes per pass\n\n\
             concurrent pass ({PARITY_THREADS} client threads) vs sequential \
             in-process baseline:\n  \
             candidate-list parity {}/{} probes, RUNFP {} {} baseline {}\n\
             pipeline probe: {} requests in flight on one connection \
             (target {PIPELINE_DEPTH}), responses {} sequential replies\n\
             coordinator peak interleaving: {} concurrent requests on one \
             shard connection\n\
             admission ledger: offered {} = accepted {} + overloaded {}\n\n\
             {:<9}{:>10}{:>12}{:>11}{:>11}{:>11}{:>11}\n",
            d.gallery,
            SHARDS,
            d.probes,
            d.parity_agreed,
            d.parity_checked,
            d.runfp_remote,
            if d.runfp_remote == d.runfp_baseline {
                "=="
            } else {
                "!="
            },
            d.runfp_baseline,
            d.pipeline_peak,
            if d.pipeline_parity {
                "equal"
            } else {
                "DIFFER from"
            },
            d.coordinator_peak,
            d.offered,
            d.accepted,
            d.overloaded,
            "clients",
            "answered",
            "search/s",
            "p50 us",
            "p95 us",
            "p99 us",
            "p999 us",
        ));
        for r in &d.rungs {
            body.push_str(&format!(
                "{:<9}{:>7}/{:<3}{:>11.1}{:>11.1}{:>11.1}{:>11.1}{:>11.1}\n",
                r.clients,
                r.answered,
                r.searches,
                r.throughput_per_s,
                r.p50_ns as f64 / 1e3,
                r.p95_ns as f64 / 1e3,
                r.p99_ns as f64 / 1e3,
                r.p999_ns as f64 / 1e3,
            ));
        }
        let knee = d
            .rungs
            .iter()
            .max_by(|a, b| a.throughput_per_s.total_cmp(&b.throughput_per_s))
            .map(|r| r.clients)
            .unwrap_or(1);
        body.push_str(&format!(
            "\nthroughput knee at {knee} client thread(s); latency numbers vary \
             with the machine, parity and the ledger do not\n"
        ));
    }
    if let Some(e) = &error {
        body.push_str(&format!("load FAILED: {e}\n"));
    }

    let values = match &data {
        Some(d) => {
            let knee = d
                .rungs
                .iter()
                .max_by(|a, b| a.throughput_per_s.total_cmp(&b.throughput_per_s))
                .map(|r| r.clients)
                .unwrap_or(1);
            json!({
                "subjects": d.gallery,
                "probes": d.probes,
                "shards": SHARDS,
                "seed": config.seed,
                "error": error,
                "parity_checked": d.parity_checked,
                "parity_agreed": d.parity_agreed,
                "runfp_remote": d.runfp_remote,
                "runfp_baseline": d.runfp_baseline,
                "pipeline": {
                    "target": PIPELINE_DEPTH,
                    "peak_in_flight": d.pipeline_peak,
                    "responses_match": d.pipeline_parity,
                    "coordinator_peak": d.coordinator_peak,
                },
                "admission": {
                    "offered": d.offered,
                    "accepted": d.accepted,
                    "overloaded": d.overloaded,
                },
                "knee_clients": knee,
                "rungs": d.rungs.iter().map(|r| json!({
                    "clients": r.clients,
                    "searches": r.searches,
                    "answered": r.answered,
                    "wall_seconds": r.wall_seconds,
                    "throughput_per_s": r.throughput_per_s,
                    "p50_ns": r.p50_ns,
                    "p95_ns": r.p95_ns,
                    "p99_ns": r.p99_ns,
                    "p999_ns": r.p999_ns,
                })).collect::<Vec<_>>(),
            })
        }
        None => json!({
            "subjects": config.subjects,
            "seed": config.seed,
            "error": error,
            "rungs": [],
        }),
    };

    Report::new(
        "ext-load",
        "multiplexed serving under concurrent load",
        body,
        values,
    )
}

/// Spawns the topology, runs all four load phases, tears everything down.
fn load_rung(
    config: &StudyConfig,
    telemetry: &Telemetry,
    slowlog: Option<Arc<SlowLog>>,
) -> Result<LoadData, String> {
    let gallery = config.subjects;
    let _span = telemetry.span_with(
        "load.harness",
        &[
            ("gallery", gallery.to_string()),
            ("shards", SHARDS.to_string()),
        ],
    );

    let cohort = Cohort::new(
        SeedTree::new(config.seed).child(&[0xEA]),
        gallery,
        MAX_PROBES,
    );
    let pool = cohort.pool();
    let probes: Vec<Template> = (0..cohort.probes()).map(|p| cohort.probe(p).1).collect();
    let n = probes.len();

    // Sequential in-process baseline: the byte-level ground truth every
    // concurrent result — and the coordinator's RUNFP chain — must equal.
    let mut baseline_index =
        CandidateIndex::with_config(PairTableMatcher::default(), IndexConfig::scaled(gallery))
            .with_run_seed(config.seed);
    baseline_index.enroll_all(pool);
    let baseline: Vec<SearchResult> = probes.iter().map(|p| baseline_index.search(p)).collect();
    let runfp_baseline = baseline_index.run_fingerprint().hex();

    let fleet = ShardFleet::spawn(SHARDS, |_| Vec::new())?;
    let addrs = fleet.addrs();
    let mut remote = fleet
        .connect(IndexConfig::scaled(gallery))?
        .with_telemetry(telemetry)
        .with_run_seed(config.seed);
    if let Some(slowlog) = slowlog {
        remote = remote.with_slowlog(slowlog);
    }
    remote.enroll_all(pool).map_err(|e| e.to_string())?;
    telemetry.event_with(
        Level::Info,
        "load topology up",
        &[
            ("gallery", gallery.to_string()),
            ("shards", SHARDS.to_string()),
            ("probes", n.to_string()),
        ],
    );

    // Phase 1: concurrent correctness. PARITY_THREADS threads share the
    // one coordinator; probe i goes to thread i % PARITY_THREADS. Results
    // come back tagged with their probe index, so parity is per-probe.
    let results = Mutex::new(vec![None::<SearchResult>; n]);
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..PARITY_THREADS)
            .map(|t| {
                let remote = &remote;
                let probes = &probes;
                let results = &results;
                scope.spawn(move || -> Result<(), String> {
                    for i in (t..probes.len()).step_by(PARITY_THREADS) {
                        let result = remote.search(&probes[i]).map_err(|e| e.to_string())?;
                        results.lock().expect("results lock")[i] = Some(result);
                    }
                    Ok(())
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread panicked")?;
        }
        Ok(())
    })?;
    let results = results.into_inner().expect("results lock");
    let mut parity_agreed = 0usize;
    for (got, want) in results.iter().zip(&baseline) {
        let got = got.as_ref().expect("every probe searched");
        // Byte-level parity: same ids in the same order with the very same
        // score bits (`Candidate: PartialEq` compares the f64 exactly).
        if got.candidates() == want.candidates() && got.gallery_len() == want.gallery_len() {
            parity_agreed += 1;
        }
    }
    // The chain covers exactly the concurrent pass; snapshot before the
    // ladder replays the probes, then check shard chains for drift.
    let runfp_remote = remote.run_fingerprint().hex();
    remote
        .verify_fingerprints()
        .map_err(|e| format!("fingerprint verification after concurrent pass: {e}"))?;
    telemetry.event_with(
        if parity_agreed == n {
            Level::Info
        } else {
            Level::Error
        },
        "concurrent pass complete",
        &[
            ("parity_agreed", parity_agreed.to_string()),
            ("parity_checked", n.to_string()),
            ("runfp", runfp_remote.clone()),
        ],
    );

    // Phase 2: deterministic pipeline-depth proof on a raw connection to
    // shard 0. Eight requests go on the wire before any response is
    // awaited — peak_in_flight reaching eight is guaranteed by
    // construction, not by scheduler luck — and each pipelined response
    // must equal the sequential reply to the same request.
    let conn = MuxConn::new(addrs[0], RPC_DEADLINE);
    let request = Frame::StageOne {
        probe: probes[0].clone(),
        trace: None,
    };
    let tickets: Vec<_> = (0..PIPELINE_DEPTH)
        .map(|_| conn.begin(&request).map(|(t, _)| t))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("pipeline begin: {e}"))?;
    let pipeline_peak = conn.peak_in_flight();
    let mut pipelined = Vec::with_capacity(PIPELINE_DEPTH);
    for ticket in tickets {
        pipelined.push(
            conn.finish(ticket)
                .map_err(|e| format!("pipeline finish: {e}"))?
                .0,
        );
    }
    let (reference, _, _) = conn
        .call(&request)
        .map_err(|e| format!("pipeline sequential reference: {e}"))?;
    let pipeline_parity = pipelined.iter().all(|f| *f == reference);
    drop(conn);
    telemetry.event_with(
        if pipeline_parity {
            Level::Info
        } else {
            Level::Error
        },
        "pipeline probe complete",
        &[
            ("peak_in_flight", pipeline_peak.to_string()),
            ("target", PIPELINE_DEPTH.to_string()),
        ],
    );

    // Phase 3: the latency ladder. Each rung replays every probe across
    // `clients` threads and keeps every search's own wall time: the
    // percentiles are read off those raw values (a histogram would round
    // each to a bucket edge). Correctness was already pinned in phase 1 —
    // here only the distribution changes with concurrency.
    let mut rungs = Vec::with_capacity(LADDER.len());
    for clients in LADDER {
        let _rung_span = telemetry.span_with("load.rung", &[("clients", clients.to_string())]);
        let mirror = telemetry.value(&format!("load.search_ns.c{clients}"));
        let wall = Instant::now();
        let mut latencies_ns = std::thread::scope(|scope| -> Result<Vec<u64>, String> {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    let remote = &remote;
                    let probes = &probes;
                    let mirror = &mirror;
                    scope.spawn(move || -> Result<Vec<u64>, String> {
                        let mut mine = Vec::with_capacity(probes.len() / clients + 1);
                        for i in (t..probes.len()).step_by(clients) {
                            let start = Instant::now();
                            remote.search(&probes[i]).map_err(|e| e.to_string())?;
                            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                            mirror.record(ns);
                            mine.push(ns);
                        }
                        Ok(mine)
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(probes.len());
            for handle in handles {
                all.extend(handle.join().expect("client thread panicked")?);
            }
            Ok(all)
        })
        .map_err(|e| format!("ladder rung ({clients} clients): {e}"))?;
        let wall_seconds = wall.elapsed().as_secs_f64();
        latencies_ns.sort_unstable();
        let rung = LoadRung {
            clients,
            searches: n,
            answered: latencies_ns.len(),
            wall_seconds,
            throughput_per_s: n as f64 / wall_seconds.max(1e-9),
            p50_ns: nearest_rank(&latencies_ns, 0.50),
            p95_ns: nearest_rank(&latencies_ns, 0.95),
            p99_ns: nearest_rank(&latencies_ns, 0.99),
            p999_ns: nearest_rank(&latencies_ns, 0.999),
        };
        telemetry.event_with(
            Level::Info,
            "ladder rung complete",
            &[
                ("clients", clients.to_string()),
                ("p50_ns", rung.p50_ns.to_string()),
                ("p99_ns", rung.p99_ns.to_string()),
            ],
        );
        rungs.push(rung);
    }
    let coordinator_peak = remote.peak_in_flight();
    remote
        .verify_fingerprints()
        .map_err(|e| format!("fingerprint verification after ladder: {e}"))?;

    // Phase 4: scrape the admission ledger straight off each shard over
    // the wire. Every shard must satisfy offered == accepted + overloaded
    // on its own; the report sums them.
    let (mut offered, mut accepted, mut overloaded) = (0u64, 0u64, 0u64);
    for (k, &addr) in addrs.iter().enumerate() {
        let stats_conn = MuxConn::new(addr, RPC_DEADLINE);
        let (response, _, _) = stats_conn
            .call(&Frame::Stats)
            .map_err(|e| format!("stats scrape shard {k}: {e}"))?;
        let Frame::StatsOk { counters, .. } = response else {
            return Err(format!(
                "stats scrape shard {k}: expected stats_ok, got '{}'",
                response.kind()
            ));
        };
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let (o, a, v) = (
            get("serve.offered"),
            get("serve.accepted"),
            get("serve.overloaded"),
        );
        if o != a + v {
            return Err(format!(
                "shard {k} admission ledger broken: offered {o} != accepted {a} + overloaded {v}"
            ));
        }
        offered += o;
        accepted += a;
        overloaded += v;
    }
    telemetry.event_with(
        Level::Info,
        "admission ledger scraped",
        &[
            ("offered", offered.to_string()),
            ("accepted", accepted.to_string()),
            ("overloaded", overloaded.to_string()),
        ],
    );

    fleet.retire(&remote);

    Ok(LoadData {
        gallery,
        probes: n,
        parity_checked: n,
        parity_agreed,
        runfp_remote,
        runfp_baseline,
        pipeline_peak,
        pipeline_parity,
        coordinator_peak,
        offered,
        accepted,
        overloaded,
        rungs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5_800_000 and 5_900_000 ns share one bucket of the telemetry
    /// histogram (5_767_168..6_029_312), whose snapshot the rungs used to
    /// be read from: both came out as the bucket edge 5_767_168.
    #[test]
    fn percentiles_are_raw_latencies_not_bucket_edges() {
        let sorted = [5_800_000, 5_900_000];
        assert_eq!(nearest_rank(&sorted, 0.50), 5_800_000);
        assert_eq!(nearest_rank(&sorted, 0.95), 5_900_000);

        let ladder: Vec<u64> = (1..=48).collect();
        assert_eq!(nearest_rank(&ladder, 0.50), 24);
        assert_eq!(nearest_rank(&ladder, 0.95), 46);
        assert_eq!(nearest_rank(&ladder, 0.999), 48);
        assert_eq!(nearest_rank(&[], 0.50), 0);
    }

    /// What a clean 200-subject run measures.
    fn passing() -> LoadData {
        LoadData {
            gallery: 200,
            probes: 48,
            parity_checked: 48,
            parity_agreed: 48,
            runfp_remote: "0123456789abcdef".to_string(),
            runfp_baseline: "0123456789abcdef".to_string(),
            pipeline_peak: PIPELINE_DEPTH,
            pipeline_parity: true,
            coordinator_peak: 3,
            offered: 400,
            accepted: 398,
            overloaded: 2,
            rungs: Vec::new(),
        }
    }

    /// The report's `values.error` for `data`.
    fn error_of(data: LoadData) -> serde_json::Value {
        let config = StudyConfig::builder().subjects(200).build();
        report(&config, Ok(data)).values["error"].clone()
    }

    #[test]
    fn a_clean_run_passes() {
        assert!(verdict(&passing()).is_empty());
        assert!(error_of(passing()).is_null());
    }

    #[test]
    fn a_short_parity_count_fails_the_run() {
        let data = LoadData {
            parity_agreed: 47,
            ..passing()
        };
        assert!(error_of(data).as_str().unwrap().contains("agreed 47/48"));
        let data = LoadData {
            parity_checked: 0,
            parity_agreed: 0,
            ..passing()
        };
        assert!(error_of(data).as_str().unwrap().contains("diverged"));
    }

    #[test]
    fn a_fingerprint_off_the_baseline_fails_the_run() {
        let data = LoadData {
            runfp_remote: "1123456789abcdef".to_string(),
            ..passing()
        };
        assert!(error_of(data)
            .as_str()
            .unwrap()
            .contains("run fingerprint diverged"));
    }

    #[test]
    fn a_shallow_pipeline_fails_the_run() {
        let data = LoadData {
            pipeline_peak: MIN_PIPELINE_PEAK - 1,
            ..passing()
        };
        assert!(error_of(data).as_str().unwrap().contains("pipeline"));
        let data = LoadData {
            pipeline_parity: false,
            ..passing()
        };
        assert!(error_of(data).as_str().unwrap().contains("pipeline"));
    }

    #[test]
    fn a_broken_admission_ledger_fails_the_run() {
        let data = LoadData {
            accepted: 397,
            ..passing()
        };
        assert!(error_of(data).as_str().unwrap().contains("ledger"));
        let data = LoadData {
            offered: 0,
            accepted: 0,
            overloaded: 0,
            ..passing()
        };
        assert!(error_of(data).as_str().unwrap().contains("ledger"));
    }
}
