//! The study driver: regenerates every table and figure of Lugini et al.
//! (DSN 2013) on the synthetic substrate.
//!
//! ```sh
//! study all                         # every experiment at the default scale
//! study table5 --subjects 494      # one experiment at paper scale
//! study ext-scaling --subjects 1000 # 1:N search ladder: 1k/5k/10k galleries
//! study all --json results.json    # machine-readable output (incl. telemetry)
//! study all --metrics metrics.json # telemetry snapshot to its own file
//! study --all --trace trace.json   # flight-recorder timeline (chrome://tracing)
//! study all --events events.jsonl  # structured event log (JSON Lines)
//! study devices                    # print the device table (paper Table 1)
//! study metrics                    # explain the telemetry instruments
//! study verify --subjects 150      # check the paper's findings hold
//! study ext-scaling --remote-shards 2 # 1:N over serve-shard child processes
//! study serve-shard                # one gallery shard behind a TCP socket
//! study load --subjects 200        # concurrent-load harness over serve-shards
//! study check-scaling results.json # gate an ext-scaling JSON (recall/audits)
//! study check-serve results.json   # gate the cross-process parity rung
//! study check-load load.json       # gate the load harness (parity/ledger/tails)
//! study load --slowlog slow.jsonl   # tail-latency exemplars (running p99)
//! study check-dist-trace --remote-shards 2 # distributed-tracing gate
//! study check-telemetry results.json # gate a study JSON's telemetry section
//! study fingerprint results.json   # print/save the run-fingerprint manifest
//! study check-fingerprint results.json [--deep] # gate fingerprint parity
//! study render --seed 7 --out print.pgm   # render a synthetic print (PGM)
//! study gallery build store/ --subjects 200 # persist a synthetic gallery
//! study gallery inspect store/ --json i.json # per-segment sizes and CRCs
//! study gallery compact store/              # reclaim tombstoned entries
//! study serve-shard --gallery-dir store/    # serve a persisted gallery
//! study check-store --remote-shards 1       # store-parity gate (open/churn/compact)
//! ```

use std::process::ExitCode;

use fp_sensor::DEVICES;
use fp_study::config::StudyConfig;
use fp_study::experiments;
use fp_study::scores::StudyData;
use fp_telemetry::{Level, Telemetry};

struct Args {
    experiment: String,
    /// Positional input path (`check-scaling RESULTS.json`), or the
    /// action word of `gallery <build|inspect|compact> DIR`.
    path: Option<String>,
    /// `--gallery-dir PATH` (serve-shard, check-store) or the positional
    /// DIR of `gallery <action> DIR`.
    gallery_dir: Option<String>,
    subjects: Option<usize>,
    seed: Option<u64>,
    shards: Option<usize>,
    remote_shards: Option<usize>,
    port: Option<u16>,
    json: Option<String>,
    out: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
    events: Option<String>,
    /// `load --slowlog PATH` / `check-dist-trace --slowlog PATH`: write
    /// tail-latency exemplars as JSON Lines.
    slowlog: Option<String>,
    /// `serve-shard --delay-ms N`: sleep N ms at the top of each stage
    /// handler (fault injection for the distributed-tracing gate).
    delay_ms: Option<u64>,
    /// `check-fingerprint --deep`: stricter audit of the manifest.
    deep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1).peekable();
    // `study --trace t.json` / `study --all ...` run every experiment: a
    // leading flag means the experiment name was omitted.
    let experiment = match args.peek() {
        Some(first) if !first.starts_with('-') => args.next().expect("peeked"),
        _ => "all".to_string(),
    };
    let mut parsed = Args {
        experiment,
        path: None,
        gallery_dir: None,
        subjects: None,
        seed: None,
        shards: None,
        remote_shards: None,
        port: None,
        json: None,
        out: None,
        metrics: None,
        trace: None,
        events: None,
        slowlog: None,
        delay_ms: None,
        deep: false,
    };
    if matches!(
        parsed.experiment.as_str(),
        "check-scaling"
            | "check-telemetry"
            | "check-serve"
            | "check-load"
            | "check-fingerprint"
            | "fingerprint"
    ) {
        if let Some(next) = args.peek() {
            if !next.starts_with('-') {
                parsed.path = Some(args.next().expect("peeked"));
            }
        }
    }
    if parsed.experiment == "gallery" {
        // `gallery <build|inspect|compact> DIR`: the action word lands in
        // `path`, the directory in `gallery_dir`.
        for slot in [&mut parsed.path, &mut parsed.gallery_dir] {
            if let Some(next) = args.peek() {
                if !next.starts_with('-') {
                    *slot = Some(args.next().expect("peeked"));
                }
            }
        }
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--all" => parsed.experiment = "all".to_string(),
            "--subjects" => {
                let v = args.next().ok_or("--subjects needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --subjects: {v}"))?;
                if n < 2 {
                    return Err(format!(
                        "--subjects must be at least 2 (genuine and impostor pairs both need subjects), got {n}"
                    ));
                }
                parsed.subjects = Some(n);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                parsed.seed = Some(v.parse().map_err(|_| format!("bad --seed: {v}"))?);
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --shards: {v}"))?;
                if n < 1 {
                    return Err(format!("--shards must be at least 1, got {n}"));
                }
                parsed.shards = Some(n);
            }
            "--remote-shards" => {
                let v = args.next().ok_or("--remote-shards needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --remote-shards: {v}"))?;
                if n < 1 {
                    return Err(format!("--remote-shards must be at least 1, got {n}"));
                }
                parsed.remote_shards = Some(n);
            }
            "--port" => {
                let v = args.next().ok_or("--port needs a value")?;
                parsed.port = Some(v.parse().map_err(|_| format!("bad --port: {v}"))?);
            }
            "--json" => {
                parsed.json = Some(args.next().ok_or("--json needs a path")?);
            }
            "--out" => {
                parsed.out = Some(args.next().ok_or("--out needs a path")?);
            }
            "--metrics" => {
                parsed.metrics = Some(args.next().ok_or("--metrics needs a path")?);
            }
            "--trace" => {
                parsed.trace = Some(args.next().ok_or("--trace needs a path")?);
            }
            "--events" => {
                parsed.events = Some(args.next().ok_or("--events needs a path")?);
            }
            "--slowlog" => {
                parsed.slowlog = Some(args.next().ok_or("--slowlog needs a path")?);
            }
            "--delay-ms" => {
                let v = args.next().ok_or("--delay-ms needs a value")?;
                parsed.delay_ms = Some(v.parse().map_err(|_| format!("bad --delay-ms: {v}"))?);
            }
            "--gallery-dir" => {
                parsed.gallery_dir = Some(args.next().ok_or("--gallery-dir needs a path")?);
            }
            "--deep" => parsed.deep = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(parsed)
}

fn print_devices() {
    println!("devices (paper Table 1):");
    println!(
        "{:<6}{:<42}{:>8}{:>12}{:>14}",
        "id", "model", "dpi", "image px", "capture mm"
    );
    for d in &DEVICES {
        println!(
            "{:<6}{:<42}{:>8}{:>12}{:>14}",
            d.id.to_string(),
            d.model,
            d.resolution_dpi,
            format!("{}x{}", d.image_px.0, d.image_px.1),
            format!("{}x{}", d.capture_mm.0, d.capture_mm.1),
        );
    }
}

fn print_metrics_help() {
    println!("telemetry instruments (enabled for every experiment run):");
    println!();
    println!("  export: `--json PATH` embeds a \"telemetry\" section in the results;");
    println!("  `--metrics PATH` writes the snapshot alone. `--trace PATH` writes the");
    println!("  flight recorder as Chrome trace-event JSON (open in chrome://tracing");
    println!("  or https://ui.perfetto.dev); `--events PATH` writes the structured");
    println!("  event log as JSON Lines. `study all` also prints a one-screen summary");
    println!("  to stderr. Counters and work-size histograms are pure functions of");
    println!("  the seed (identical across same-seed runs); durations, gauges, stage");
    println!("  timings and trace timestamps vary with the machine.");
    println!();
    println!("  counters (deterministic work tallies)");
    println!("    synth.masters                     master prints synthesized");
    println!("    sensor.d<d>.impressions           impressions captured per device");
    println!("    sensor.minutiae.dropped/vignetted/clipped/spurious");
    println!("                                      acquisition gain/loss channels");
    println!("    match.{{pairtable,hough,mcc}}.comparisons   matcher invocations");
    println!("    scores.comparisons.genuine/impostor        study comparisons");
    println!("    index.enrolled/searches/hamming_ops/bucket_hits  1:N index work");
    println!("      (hamming_ops counts packed-u64 word comparisons, not entries;");
    println!("       sharded runs add per-shard index.shard<k>.* labels whose work");
    println!("       counters sum to the index.* roll-up; a serve-shard process");
    println!("       meters the index.search.* work of the stage-1/stage-2 calls");
    println!("       it serves, and a coordinator's STATS scrape merges them in");
    println!("       as shard<k>.remote.index.* gauges)");
    println!();
    println!("  work-size histograms (deterministic)");
    println!("    synth.minutiae_per_master         master template sizes");
    println!("    sensor.minutiae_per_impression    captured template sizes");
    println!("    match.pairtable.table_entries/associations/cluster_size");
    println!("    match.hough.vote_cells/peak_votes");
    println!("    match.mcc.valid_cylinders");
    println!("    index.search.hamming_ops_per_search    stage-1 work per probe");
    println!("    index.search.bucket_hits_per_search    stage-2 votes per probe");
    println!();
    println!("  duration histograms (spans; wall time)");
    println!("    index.build.seconds               per-template enrollment cost");
    println!("    index.build.batch_seconds         whole enroll_all batches");
    println!("    index.search.seconds              per 1:N search");
    println!("    study.dataset, study.dataset.population, study.scores");
    println!("    dataset.subject                   per-subject capture work");
    println!("    scores.cell.g<g>p<p>              per (gallery, probe) device cell");
    println!("    experiment.<id>                   per report");
    println!();
    println!("  stages (per-thread utilization)");
    println!("    dataset.capture, scores.prepare, scores.genuine, scores.impostor");
    println!("    scaling.pool, scaling.search, scaling.audit");
    println!();
    println!("  flight recorder (--trace / --events)");
    println!("    hierarchical span tree with per-span attributes (experiment,");
    println!("    gallery/probe device, subject, worker lane) and self-time");
    println!("    attribution; log events carry a severity (debug|info|warn|error).");
    println!("    Span names/parents/attributes are deterministic; timestamps vary.");
}

fn write_json(
    telemetry: &Telemetry,
    path: &str,
    value: &serde_json::Value,
) -> Result<(), ExitCode> {
    match std::fs::write(
        path,
        serde_json::to_string_pretty(value).expect("serializable"),
    ) {
        Ok(()) => {
            telemetry.event_with(Level::Info, "wrote output", &[("path", path.to_string())]);
            Ok(())
        }
        Err(e) => {
            telemetry.event_with(
                Level::Error,
                "failed to write output",
                &[("path", path.to_string()), ("error", e.to_string())],
            );
            Err(ExitCode::FAILURE)
        }
    }
}

/// Gates an `ext-scaling --json` results file: every rung must hold
/// shortlist recall >= 0.98 and full brute-force audit agreement. The Rust
/// replacement for the python heredocs the smoke gates used to need.
fn check_scaling(telemetry: &Telemetry, path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            telemetry.event_with(
                Level::Error,
                "cannot read results file",
                &[("path", path.to_string()), ("error", e.to_string())],
            );
            return ExitCode::FAILURE;
        }
    };
    let payload: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            telemetry.event_with(
                Level::Error,
                "results file is not valid JSON",
                &[("path", path.to_string()), ("error", e.to_string())],
            );
            return ExitCode::FAILURE;
        }
    };
    let report = payload["reports"]
        .as_array()
        .into_iter()
        .flatten()
        .find(|r| r["id"] == "ext-scaling");
    let Some(report) = report else {
        telemetry.event_with(
            Level::Error,
            "no ext-scaling report in results file",
            &[("path", path.to_string())],
        );
        return ExitCode::FAILURE;
    };
    let Some(rows) = report["values"]["rows"]
        .as_array()
        .filter(|r| !r.is_empty())
    else {
        telemetry.event(Level::Error, "ext-scaling report has no rows");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for row in rows {
        let recall = row["recall"].as_f64().unwrap_or(0.0);
        if recall < 0.98 {
            telemetry.event_with(
                Level::Error,
                "shortlist recall regressed",
                &[("row", row.to_string()), ("recall", format!("{recall}"))],
            );
            ok = false;
        }
        if row["audit_agreed"] != row["audit_sampled"] {
            telemetry.event_with(
                Level::Error,
                "brute-force audit mismatch",
                &[("row", row.to_string())],
            );
            ok = false;
        }
    }
    // Shard ladder (when run with --shards): every shard row must show
    // full candidate-list parity with the unsharded index, and — because
    // sharded search is provably identical — recall must equal the top
    // unsharded rung's recall *exactly*, not just within tolerance.
    let shard_rows = report["values"]["shard_rows"].as_array();
    let mut shard_count = 0usize;
    if let Some(shard_rows) = shard_rows.filter(|r| !r.is_empty()) {
        shard_count = shard_rows.len();
        let top_recall = rows.last().expect("non-empty")["recall"].as_f64();
        for row in shard_rows {
            if row["parity_checked"].as_u64().unwrap_or(0) == 0
                || row["parity_agreed"] != row["parity_checked"]
            {
                telemetry.event_with(
                    Level::Error,
                    "sharded search diverged from the unsharded index",
                    &[("row", row.to_string())],
                );
                ok = false;
            }
            if row["recall"].as_f64() != top_recall {
                telemetry.event_with(
                    Level::Error,
                    "sharded recall differs from the unsharded top rung",
                    &[("row", row.to_string())],
                );
                ok = false;
            }
        }
    }
    if ok {
        if shard_count > 0 {
            println!(
                "ext-scaling smoke ok ({} rungs, {shard_count} shard rows at exact parity)",
                rows.len()
            );
        } else {
            println!("ext-scaling smoke ok ({} rungs)", rows.len());
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Gates an `ext-scaling --remote-shards --json` results file: the
/// cross-process rung must have run, every audited probe must show full
/// candidate-list parity with BOTH the unsharded index and the in-process
/// sharded index, recall must equal the top unsharded rung exactly, the
/// `serve.*` transport counters must show real wire traffic, and every
/// shard's scraped `shard<k>.remote.index.searches` gauge must be non-zero.
fn check_serve(telemetry: &Telemetry, path: &str) -> ExitCode {
    let payload: serde_json::Value = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            telemetry.event_with(
                Level::Error,
                "cannot load results file",
                &[("path", path.to_string()), ("error", e)],
            );
            return ExitCode::FAILURE;
        }
    };
    let report = payload["reports"]
        .as_array()
        .into_iter()
        .flatten()
        .find(|r| r["id"] == "ext-scaling");
    let Some(report) = report else {
        telemetry.event_with(
            Level::Error,
            "no ext-scaling report in results file",
            &[("path", path.to_string())],
        );
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    if !report["values"]["remote_error"].is_null() {
        telemetry.event_with(
            Level::Error,
            "cross-process rung failed",
            &[("error", report["values"]["remote_error"].to_string())],
        );
        ok = false;
    }
    let remote_rows = report["values"]["remote_rows"].as_array();
    let Some(remote_rows) = remote_rows.filter(|r| !r.is_empty()) else {
        telemetry.event(
            Level::Error,
            "no remote rows (run ext-scaling with --remote-shards N)",
        );
        return ExitCode::FAILURE;
    };
    let top_recall = report["values"]["rows"]
        .as_array()
        .and_then(|rows| rows.last())
        .and_then(|row| row["recall"].as_f64());
    for row in remote_rows {
        let checked = row["parity_checked"].as_u64().unwrap_or(0);
        if checked == 0
            || row["parity_agreed"] != row["parity_checked"]
            || row["parity_sharded_agreed"] != row["parity_checked"]
        {
            telemetry.event_with(
                Level::Error,
                "remote search diverged from the in-process indexes",
                &[("row", row.to_string())],
            );
            ok = false;
        }
        // Remote sharded search is provably identical to the unsharded
        // index, so recall must match the top rung exactly — same probes,
        // same budget, not a tolerance check.
        if row["recall"].as_f64() != top_recall {
            telemetry.event_with(
                Level::Error,
                "remote recall differs from the unsharded top rung",
                &[("row", row.to_string())],
            );
            ok = false;
        }
    }
    let counters = &payload["telemetry"]["counters"];
    for key in ["serve.requests", "serve.bytes_tx", "serve.bytes_rx"] {
        if counters[key].as_u64().unwrap_or(0) == 0 {
            telemetry.event_with(
                Level::Error,
                "serve counter is zero or missing",
                &[("counter", key.to_string())],
            );
            ok = false;
        }
    }
    // Every shard must report the searches it served: a shard whose own
    // `index.searches` reads zero is either idle or not metering its work.
    let gauges = &payload["telemetry"]["gauges"];
    for row in remote_rows {
        for k in 0..row["shards"].as_u64().unwrap_or(0) {
            let key = format!("shard{k}.remote.index.searches");
            if gauges[key.as_str()].as_f64().unwrap_or(0.0) <= 0.0 {
                telemetry.event_with(
                    Level::Error,
                    "shard reports no served searches",
                    &[("gauge", key)],
                );
                ok = false;
            }
        }
    }
    if ok {
        println!(
            "serve smoke ok ({} remote row(s) at exact parity, {} rpcs, {} bytes on the wire)",
            remote_rows.len(),
            counters["serve.requests"].as_u64().unwrap_or(0),
            counters["serve.bytes_tx"].as_u64().unwrap_or(0)
                + counters["serve.bytes_rx"].as_u64().unwrap_or(0),
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Gates a `study load --json` results file: the concurrent pass must show
/// byte-identical candidate lists and an equal RUNFP chain vs the
/// sequential in-process baseline, the deterministic pipeline probe must
/// have carried at least 4 concurrent requests on one connection with
/// responses equal to sequential replies, the shards' admission ledger must
/// balance exactly (offered == accepted + overloaded — a silently dropped
/// request breaks it), and every latency rung must have answered every
/// search with monotone percentiles.
fn check_load(telemetry: &Telemetry, path: &str) -> ExitCode {
    let payload: serde_json::Value = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            telemetry.event_with(
                Level::Error,
                "cannot load results file",
                &[("path", path.to_string()), ("error", e)],
            );
            return ExitCode::FAILURE;
        }
    };
    let report = payload["reports"]
        .as_array()
        .into_iter()
        .flatten()
        .find(|r| r["id"] == "ext-load");
    let Some(report) = report else {
        telemetry.event_with(
            Level::Error,
            "no ext-load report in results file",
            &[("path", path.to_string())],
        );
        return ExitCode::FAILURE;
    };
    let values = &report["values"];
    let mut ok = true;
    if !values["error"].is_null() {
        telemetry.event_with(
            Level::Error,
            "load rung failed",
            &[("error", values["error"].to_string())],
        );
        ok = false;
    }
    let checked = values["parity_checked"].as_u64().unwrap_or(0);
    if checked == 0 || values["parity_agreed"] != values["parity_checked"] {
        telemetry.event_with(
            Level::Error,
            "concurrent results diverged from the sequential baseline",
            &[
                ("agreed", values["parity_agreed"].to_string()),
                ("checked", values["parity_checked"].to_string()),
            ],
        );
        ok = false;
    }
    let remote_fp = values["runfp_remote"].as_str().unwrap_or("");
    if !is_runfp_hex(remote_fp) || values["runfp_remote"] != values["runfp_baseline"] {
        telemetry.event_with(
            Level::Error,
            "run fingerprint diverged from the sequential baseline",
            &[
                ("remote", values["runfp_remote"].to_string()),
                ("baseline", values["runfp_baseline"].to_string()),
            ],
        );
        ok = false;
    }
    let pipeline = &values["pipeline"];
    if pipeline["peak_in_flight"].as_u64().unwrap_or(0) < 4 || pipeline["responses_match"] != true {
        telemetry.event_with(
            Level::Error,
            "pipeline probe failed (need >= 4 in flight with sequential-equal responses)",
            &[("pipeline", pipeline.to_string())],
        );
        ok = false;
    }
    let admission = &values["admission"];
    let offered = admission["offered"].as_u64().unwrap_or(0);
    let accepted = admission["accepted"].as_u64().unwrap_or(0);
    let overloaded = admission["overloaded"].as_u64().unwrap_or(0);
    if offered == 0 || offered != accepted + overloaded {
        telemetry.event_with(
            Level::Error,
            "admission ledger broken: a request was dropped without a typed answer",
            &[("admission", admission.to_string())],
        );
        ok = false;
    }
    let Some(rungs) = values["rungs"].as_array().filter(|r| !r.is_empty()) else {
        telemetry.event(Level::Error, "ext-load report has no latency rungs");
        return ExitCode::FAILURE;
    };
    for rung in rungs {
        if rung["answered"] != rung["searches"] {
            telemetry.event_with(
                Level::Error,
                "latency rung dropped searches",
                &[("rung", rung.to_string())],
            );
            ok = false;
        }
        let p = |key: &str| rung[key].as_u64().unwrap_or(0);
        if !(p("p50_ns") <= p("p95_ns")
            && p("p95_ns") <= p("p99_ns")
            && p("p99_ns") <= p("p999_ns"))
        {
            telemetry.event_with(
                Level::Error,
                "latency percentiles are not monotone",
                &[("rung", rung.to_string())],
            );
            ok = false;
        }
        if rung["throughput_per_s"].as_f64().unwrap_or(0.0) <= 0.0 {
            telemetry.event_with(
                Level::Error,
                "latency rung reports no throughput",
                &[("rung", rung.to_string())],
            );
            ok = false;
        }
    }
    if ok {
        let top = rungs.last().expect("non-empty");
        println!(
            "load smoke ok ({} probes at exact parity, pipeline depth {}, \
             offered {} = accepted {} + overloaded {}; {} clients: \
             p50 {:.1}us p95 {:.1}us p99 {:.1}us p999 {:.1}us)",
            checked,
            pipeline["peak_in_flight"],
            offered,
            accepted,
            overloaded,
            top["clients"],
            top["p50_ns"].as_u64().unwrap_or(0) as f64 / 1e3,
            top["p95_ns"].as_u64().unwrap_or(0) as f64 / 1e3,
            top["p99_ns"].as_u64().unwrap_or(0) as f64 / 1e3,
            top["p999_ns"].as_u64().unwrap_or(0) as f64 / 1e3,
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Loads a `--json` results file and extracts its ext-scaling report.
fn load_scaling_report(telemetry: &Telemetry, path: &str) -> Result<serde_json::Value, ExitCode> {
    let payload: serde_json::Value = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            telemetry.event_with(
                Level::Error,
                "cannot load results file",
                &[("path", path.to_string()), ("error", e)],
            );
            return Err(ExitCode::FAILURE);
        }
    };
    let report = payload["reports"]
        .as_array()
        .into_iter()
        .flatten()
        .find(|r| r["id"] == "ext-scaling")
        .cloned();
    report.ok_or_else(|| {
        telemetry.event_with(
            Level::Error,
            "no ext-scaling report in results file",
            &[("path", path.to_string())],
        );
        ExitCode::FAILURE
    })
}

/// A well-formed run fingerprint: exactly 16 lowercase hex digits.
fn is_runfp_hex(s: &str) -> bool {
    s.len() == 16
        && s.chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
}

/// Prints (and optionally saves) the run-fingerprint manifest of an
/// `ext-scaling --json` results file: the seed plus every rung's RUNFP
/// chain value. The manifest is the O(1) artifact two runs compare to
/// prove behavioral parity without diffing candidate lists.
fn fingerprint_manifest(telemetry: &Telemetry, path: &str, json_out: Option<&str>) -> ExitCode {
    let report = match load_scaling_report(telemetry, path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let values = &report["values"];
    let seed = values["seed"].as_u64().unwrap_or(0);
    let rung = |row: &serde_json::Value, label: &str| {
        serde_json::json!({
            "kind": label,
            "gallery": row["gallery"],
            "shards": row["shards"],
            "runfp": row["runfp"],
        })
    };
    let mut rungs = Vec::new();
    println!("run-fingerprint manifest (RUNFP v1, seed {seed}):");
    for row in values["rows"].as_array().into_iter().flatten() {
        println!(
            "  gallery {:<8} unsharded        {}",
            row["gallery"],
            row["runfp"].as_str().unwrap_or("<missing>")
        );
        rungs.push(rung(row, "unsharded"));
    }
    for row in values["shard_rows"].as_array().into_iter().flatten() {
        println!(
            "  shards  {:<8} in-process       {}",
            row["shards"],
            row["runfp"].as_str().unwrap_or("<missing>")
        );
        rungs.push(rung(row, "sharded"));
    }
    for row in values["remote_rows"].as_array().into_iter().flatten() {
        println!(
            "  shards  {:<8} cross-process    {}",
            row["shards"],
            row["runfp"].as_str().unwrap_or("<missing>")
        );
        rungs.push(rung(row, "remote"));
    }
    if rungs.is_empty() {
        telemetry.event_with(
            Level::Error,
            "results file has no fingerprinted rungs",
            &[("path", path.to_string())],
        );
        return ExitCode::FAILURE;
    }
    if let Some(out) = json_out {
        let manifest = serde_json::json!({
            "format": "RUNFP v1",
            "source": path,
            "seed": seed,
            "base_subjects": values["base_subjects"],
            "rungs": rungs,
        });
        if let Err(code) = write_json(telemetry, out, &manifest) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Gates fingerprint parity in an `ext-scaling --json` results file: the
/// unsharded top rung, every in-process shard rung and every cross-process
/// rung ran the same probes under the same seed, so their RUNFP chains must
/// be *equal*. One flipped score bit anywhere in a multi-thousand-search
/// run changes the chain — this is the O(1) behavioral-parity proof.
///
/// `--deep` additionally requires cross-process evidence (remote rungs
/// present) and audits the unsharded ladder itself: every rung must carry a
/// well-formed chain, and different gallery sizes must produce *different*
/// chains (equal values across different workloads signal a pinned or
/// forged constant).
fn check_fingerprint(telemetry: &Telemetry, path: &str, deep: bool) -> ExitCode {
    let report = match load_scaling_report(telemetry, path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let values = &report["values"];
    let mut ok = true;
    let Some(rows) = values["rows"].as_array().filter(|r| !r.is_empty()) else {
        telemetry.event(Level::Error, "ext-scaling report has no rows");
        return ExitCode::FAILURE;
    };
    for row in rows {
        let fp = row["runfp"].as_str().unwrap_or("");
        if !is_runfp_hex(fp) {
            telemetry.event_with(
                Level::Error,
                "rung carries no well-formed run fingerprint",
                &[("row", row.to_string())],
            );
            ok = false;
        }
    }
    let top = rows.last().expect("non-empty")["runfp"]
        .as_str()
        .unwrap_or("");
    if !values["remote_error"].is_null() {
        telemetry.event_with(
            Level::Error,
            "cross-process rung failed; its fingerprint is unverifiable",
            &[("error", values["remote_error"].to_string())],
        );
        ok = false;
    }
    let mut cross_checked = 0usize;
    for (section, label) in [
        ("shard_rows", "in-process sharded"),
        ("remote_rows", "remote"),
    ] {
        for row in values[section].as_array().into_iter().flatten() {
            cross_checked += 1;
            let fp = row["runfp"].as_str().unwrap_or("");
            if fp != top {
                telemetry.event_with(
                    Level::Error,
                    "run fingerprint diverged from the unsharded top rung",
                    &[
                        ("kind", label.to_string()),
                        ("expected", top.to_string()),
                        ("row", row.to_string()),
                    ],
                );
                ok = false;
            }
        }
    }
    if cross_checked == 0 {
        telemetry.event(
            Level::Error,
            "nothing to cross-check: run ext-scaling with --shards and/or --remote-shards",
        );
        ok = false;
    }
    if deep {
        if values["remote_rows"]
            .as_array()
            .is_none_or(|r| r.is_empty())
        {
            telemetry.event(
                Level::Error,
                "--deep requires cross-process evidence (run with --remote-shards N)",
            );
            ok = false;
        }
        // Different gallery sizes are different workloads: their chains
        // must differ, or someone pinned a constant.
        let mut seen = std::collections::BTreeMap::new();
        for row in rows {
            if let Some(prev) = seen.insert(row["runfp"].as_str().unwrap_or(""), &row["gallery"]) {
                telemetry.event_with(
                    Level::Error,
                    "distinct rungs report identical fingerprints",
                    &[
                        ("gallery_a", prev.to_string()),
                        ("gallery_b", row["gallery"].to_string()),
                    ],
                );
                ok = false;
            }
        }
    }
    if ok {
        println!(
            "fingerprint parity ok (top rung {top}, {cross_checked} sharded/remote rung(s) equal{})",
            if deep { ", deep audit passed" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Gates a study `--json` results file on its embedded telemetry section:
/// the run must have done real comparison and index work and recorded cell
/// spans and stage timings. The Rust replacement for CI's acceptance
/// heredoc.
fn check_telemetry(telemetry: &Telemetry, path: &str) -> ExitCode {
    let payload: serde_json::Value = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            telemetry.event_with(
                Level::Error,
                "cannot load results file",
                &[("path", path.to_string()), ("error", e)],
            );
            return ExitCode::FAILURE;
        }
    };
    let snap = &payload["telemetry"];
    let counter = |key: &str| snap["counters"][key].as_u64().unwrap_or(0);
    let mut ok = true;
    for key in ["scores.comparisons.genuine", "index.searches"] {
        if counter(key) == 0 {
            telemetry.event_with(
                Level::Error,
                "expected counter is zero or missing",
                &[("counter", key.to_string())],
            );
            ok = false;
        }
    }
    let has_cells = snap["durations"]
        .as_object()
        .is_some_and(|d| d.keys().any(|k| k.starts_with("scores.cell.")));
    if !has_cells {
        telemetry.event(Level::Error, "no scores.cell.* duration histograms");
        ok = false;
    }
    if snap["stages"].as_array().is_none_or(|s| s.is_empty()) {
        telemetry.event(Level::Error, "no stage records");
        ok = false;
    }
    if ok {
        println!("telemetry section ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `study gallery <build|inspect|compact> DIR`: the operator surface of
/// the persistent gallery store.
fn gallery_command(telemetry: &Telemetry, args: &Args) -> ExitCode {
    let action = args.path.as_deref().unwrap_or("");
    let Some(dir) = args.gallery_dir.as_deref() else {
        eprintln!("error: usage: study gallery <build|inspect|compact> DIR");
        return ExitCode::FAILURE;
    };
    match action {
        "build" => {
            let mut builder = StudyConfig::builder();
            if let Some(s) = args.subjects {
                builder = builder.subjects(s);
            }
            if let Some(s) = args.seed {
                builder = builder.seed(s);
            }
            let config = builder.build();
            match fp_study::experiments::check_store::build_gallery(
                &config,
                std::path::Path::new(dir),
            ) {
                Ok((live, segments)) => {
                    println!(
                        "built {dir}: {live} entries in {segments} segment(s) \
                         (subjects {}, seed {})",
                        config.subjects, config.seed
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "inspect" => {
            let inspect = match fp_store::GalleryStore::open(dir).and_then(|s| s.inspect()) {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("error: cannot inspect {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "gallery {dir}: {} live entries, {} tombstones, {} segment(s), next seq {}",
                inspect.live_entries,
                inspect.tombstone_count,
                inspect.segments.len(),
                inspect.next_seq
            );
            let crc = |ok: bool| if ok { "ok" } else { "BAD" };
            for seg in &inspect.segments {
                println!(
                    "  {} v{}: {} entries ({} tombstoned), {} bytes, header crc {}",
                    seg.file,
                    seg.segment.version,
                    seg.manifest_entry_count,
                    seg.tombstones,
                    seg.segment.file_bytes,
                    crc(seg.segment.header_crc_ok),
                );
                for sec in &seg.segment.sections {
                    println!(
                        "    {:<8} {:>12} bytes  crc {}",
                        sec.name,
                        sec.bytes,
                        crc(sec.crc_ok)
                    );
                }
            }
            if let Some(path) = &args.json {
                let payload = serde_json::to_value(&inspect).expect("serializable");
                if let Err(code) = write_json(telemetry, path, &payload) {
                    return code;
                }
            }
            if inspect.all_crc_ok() {
                println!("all checksums ok");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: checksum failure (see BAD rows above)");
                ExitCode::FAILURE
            }
        }
        "compact" => {
            let stats = match fp_store::GalleryStore::open(dir).and_then(|mut s| s.compact()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot compact {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "compacted {dir}: {} -> {} segment(s), {} entries reclaimed, {} -> {} bytes",
                stats.segments_before,
                stats.segments_after,
                stats.entries_dropped,
                stats.bytes_before,
                stats.bytes_after
            );
            if let Some(path) = &args.json {
                let payload = serde_json::to_value(stats).expect("serializable");
                if let Err(code) = write_json(telemetry, path, &payload) {
                    return code;
                }
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown gallery action '{other}' (build|inspect|compact)");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, telemetry: &Telemetry) -> ExitCode {
    if args.experiment == "devices" {
        print_devices();
        return ExitCode::SUCCESS;
    }

    if args.experiment == "gallery" {
        return gallery_command(telemetry, args);
    }

    if args.experiment == "metrics" {
        print_metrics_help();
        return ExitCode::SUCCESS;
    }

    if matches!(
        args.experiment.as_str(),
        "check-scaling"
            | "check-telemetry"
            | "check-serve"
            | "check-load"
            | "check-fingerprint"
            | "fingerprint"
    ) {
        let Some(path) = &args.path else {
            telemetry.event_with(
                Level::Error,
                "gate subcommand needs a results JSON path",
                &[("subcommand", args.experiment.clone())],
            );
            return ExitCode::FAILURE;
        };
        return match args.experiment.as_str() {
            "check-scaling" => check_scaling(telemetry, path),
            "check-serve" => check_serve(telemetry, path),
            "check-load" => check_load(telemetry, path),
            "check-fingerprint" => check_fingerprint(telemetry, path, args.deep),
            "fingerprint" => fingerprint_manifest(telemetry, path, args.json.as_deref()),
            _ => check_telemetry(telemetry, path),
        };
    }

    if args.experiment == "serve-shard" {
        // One gallery shard behind the fp-serve wire protocol. Binds
        // loopback (port 0 unless --port), prints the LISTENING handshake
        // line for the spawning coordinator, and serves until a wire-level
        // shutdown frame arrives.
        use std::io::Write as _;
        let addr = format!("127.0.0.1:{}", args.port.unwrap_or(0));
        // The shard keeps its own enabled registry so a coordinator's
        // STATS scrape sees real index.* instruments, whatever this
        // process's own telemetry mode.
        let shard_telemetry = Telemetry::enabled();
        let server =
            match fp_serve::ShardServer::bind(fp_match::PairTableMatcher::default(), addr.as_str())
            {
                Ok(s) => s.with_telemetry(&shard_telemetry),
                Err(e) => {
                    eprintln!("error: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
        // `--gallery-dir`: serve a persisted gallery instead of waiting
        // for enroll RPCs — the shard loads the store's live view (same
        // candidate bytes as fresh enrollment) before accepting clients.
        let server = if let Some(dir) = &args.gallery_dir {
            let index = match fp_store::GalleryStore::open(dir)
                .map(|s| s.with_telemetry(&shard_telemetry))
                .and_then(|s| s.open_index())
            {
                Ok(index) => index,
                Err(e) => {
                    eprintln!("error: cannot load gallery {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("serve-shard: loaded {} entries from {dir}", index.len());
            server.with_index(index)
        } else {
            server
        };
        if let Some(ms) = args.delay_ms {
            // Fault injection for the distributed-tracing gate: every
            // stage handler sleeps this long before doing its work, so
            // this shard shows up as the tail-latency culprit.
            server
                .delay_stage()
                .store(ms, std::sync::atomic::Ordering::Relaxed);
        }
        let local = match server.local_addr() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: no local address: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{} {local}", fp_serve::proc::LISTENING_PREFIX);
        let _ = std::io::stdout().flush();
        return match server.run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: serve loop failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.experiment == "render" {
        // Render one synthetic fingerprint with its master minutiae marked.
        let seed = args.seed.unwrap_or(7);
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| "fingerprint.pgm".to_string());
        let master = fp_synth::master::MasterPrint::generate(
            &fp_core::rng::SeedTree::new(seed),
            fp_core::ids::Digit::Index,
            1.0,
        );
        let window = fp_core::geometry::Rect::centred(fp_core::geometry::Point::ORIGIN, 18.0, 22.0)
            .expect("valid window");
        let config = fp_image::render::RenderConfig::default();
        telemetry.event_with(
            Level::Info,
            "rendering synthetic print at 500 dpi",
            &[
                ("class", master.class().to_string()),
                ("seed", seed.to_string()),
            ],
        );
        let mut image = fp_image::render::render_master(
            &master,
            window,
            &config,
            &fp_core::rng::SeedTree::new(seed ^ 0x9E37),
        );
        let template = fp_core::template::Template::builder(500.0)
            .capture_window(window)
            .extend(
                master
                    .minutiae()
                    .iter()
                    .filter(|m| window.contains(&m.pos))
                    .copied(),
            )
            .build()
            .expect("valid template");
        fp_image::render::overlay_minutiae(&mut image, &template, window, 500.0);
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                telemetry.event_with(
                    Level::Error,
                    "cannot create render output",
                    &[("path", path.clone()), ("error", e.to_string())],
                );
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = fp_image::pgm::write_pgm(&image, file) {
            telemetry.event_with(
                Level::Error,
                "cannot write render output",
                &[("path", path.clone()), ("error", e.to_string())],
            );
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {path}: {}x{} px, {} master minutiae marked",
            image.width(),
            image.height(),
            template.len()
        );
        if let Some(json_path) = &args.json {
            let payload = serde_json::json!({
                "seed": seed,
                "path": path,
                "width": image.width(),
                "height": image.height(),
                "minutiae": template.len(),
            });
            if let Err(code) = write_json(telemetry, json_path, &payload) {
                return code;
            }
        }
        return ExitCode::SUCCESS;
    }

    if args.experiment == "verify" {
        let mut builder = StudyConfig::builder();
        if let Some(s) = args.subjects {
            builder = builder.subjects(s);
        }
        if let Some(s) = args.seed {
            builder = builder.seed(s);
        }
        let config = builder.build();
        telemetry.event_with(
            Level::Info,
            "verifying paper findings",
            &[
                ("subjects", config.subjects.to_string()),
                ("seed", config.seed.to_string()),
            ],
        );
        let data = StudyData::generate_with(&config, telemetry);
        let findings = fp_study::findings::check_all(&data);
        let (report, all_hold) = fp_study::findings::render(&findings);
        println!("{report}");
        if let Some(path) = &args.json {
            let payload = serde_json::json!({"config": config, "findings": findings});
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        return if all_hold {
            println!("all findings hold");
            ExitCode::SUCCESS
        } else {
            println!("SOME FINDINGS FAILED (small cohorts are noisy; try --subjects 150+)");
            ExitCode::FAILURE
        };
    }

    let mut builder = StudyConfig::builder();
    if let Some(s) = args.subjects {
        builder = builder.subjects(s);
    }
    if let Some(s) = args.seed {
        builder = builder.seed(s);
    }
    if let Some(s) = args.shards {
        builder = builder.shards(s);
    }
    if let Some(s) = args.remote_shards {
        builder = builder.remote_shards(s);
    }

    if args.experiment == "check-kernel" {
        // The stage-1 kernel parity gate: bitwise blocked ≡ scalar scores
        // plus exact hamming_ops agreement on an enrolled gallery, and
        // identical RUNFP chains across unsharded / in-process sharded /
        // (with --remote-shards) cross-process execution.
        if args.subjects.is_none() {
            builder = builder.subjects(20);
        }
        let config = builder.build();
        let report = fp_study::experiments::check_kernel::run_check(&config);
        println!("{}", report.render());
        if let Some(path) = &args.json {
            let payload = serde_json::json!({"config": config, "reports": [report.clone()]});
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        return if report.values["error"].is_null() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if args.experiment == "check-store" {
        // The persistent-store parity gate: open / sharded-open / (with
        // --remote-shards 1) serve-from-store with a kill+restart / churn
        // / compact, each byte-identical to fresh enrollment. The gallery
        // directory is left behind (compacted) as an inspectable artifact.
        if args.subjects.is_none() {
            builder = builder.subjects(20);
        }
        let config = builder.build();
        let dir = args.gallery_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir()
                .join("fp-check-store")
                .to_string_lossy()
                .into_owned()
        });
        let report =
            fp_study::experiments::check_store::run_check(&config, std::path::Path::new(&dir));
        println!("{}", report.render());
        if let Some(path) = &args.json {
            let payload = serde_json::json!({"config": config, "reports": [report.clone()]});
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        return if report.values["error"].is_null() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if args.experiment == "check-dist-trace" {
        // The distributed-tracing gate: spawns a serve-shard topology with
        // one artificially slow shard, runs the same probes untraced and
        // traced, and asserts parity + a single connected trace tree +
        // culprit-naming slow-log exemplars. It exports its own MERGED
        // multi-process trace (main never records here), so `--trace` /
        // `--slowlog` are written in this branch rather than at exit.
        if args.subjects.is_none() {
            builder = builder.subjects(16);
        }
        if args.remote_shards.is_none() {
            builder = builder.remote_shards(2);
        }
        let config = builder.build();
        let outcome =
            fp_study::experiments::dist_trace::run_check(&config, args.delay_ms.unwrap_or(25));
        println!("{}", outcome.report.render());
        if let Some(path) = &args.trace {
            match std::fs::write(
                path,
                serde_json::to_string(&outcome.merged.to_chrome_trace()).expect("serializable"),
            ) {
                Ok(()) => eprintln!(
                    "wrote {path} ({} spans across {} process lanes; open in \
                     chrome://tracing or ui.perfetto.dev)",
                    outcome.merged.spans.len(),
                    {
                        let mut pids: Vec<u64> =
                            outcome.merged.spans.iter().map(|s| s.pid).collect();
                        pids.sort_unstable();
                        pids.dedup();
                        pids.len()
                    }
                ),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = &args.slowlog {
            let entries = outcome.slowlog_jsonl.lines().count();
            match std::fs::write(path, &outcome.slowlog_jsonl) {
                Ok(()) => eprintln!("wrote {path} ({entries} slow-query exemplars)"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = &args.json {
            let payload = serde_json::json!({
                "config": config,
                "reports": [outcome.report.clone()],
            });
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        return if outcome.report.values["error"].is_null() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if args.experiment == "load" {
        // The concurrent-serving load harness spawns its own serve-shard
        // children and builds its own synthetic gallery; no dataset/score
        // pipeline needed.
        let config = builder.build();
        telemetry.event_with(
            Level::Info,
            "serving load harness",
            &[
                ("subjects", config.subjects.to_string()),
                ("seed", config.seed.to_string()),
            ],
        );
        // `--slowlog PATH` arms the tail-latency exemplar log (threshold:
        // the running p99) and writes whatever it caught as JSON Lines.
        let slowlog = args
            .slowlog
            .as_ref()
            .map(|_| std::sync::Arc::new(fp_serve::SlowLog::running_p99(telemetry)));
        let report =
            fp_study::experiments::ext_load::run_with_slowlog(&config, telemetry, slowlog.clone());
        println!("{}", report.render());
        if let (Some(path), Some(slowlog)) = (&args.slowlog, &slowlog) {
            let entries = slowlog.entries().len();
            match std::fs::write(path, slowlog.to_jsonl()) {
                Ok(()) => eprintln!("wrote {path} ({entries} slow-query exemplars)"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let failed = !report.values["error"].is_null();
        let snapshot = telemetry.snapshot();
        if let Some(path) = &args.json {
            let payload = serde_json::json!({
                "config": config,
                "reports": [report.clone()],
                "telemetry": snapshot,
            });
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        if let Some(path) = &args.metrics {
            let payload = serde_json::to_value(&snapshot).expect("serializable");
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        // `--out` writes the latency rungs as a BENCH snapshot so
        // bench-diff can gate them like any other perf number.
        if let Some(path) = &args.out {
            let benches: Vec<serde_json::Value> = report.values["rungs"]
                .as_array()
                .into_iter()
                .flatten()
                .map(|r| {
                    serde_json::json!({
                        "bench": format!("load/search_c{}", r["clients"]),
                        "median_ns": r["p50_ns"],
                        "p95_ns": r["p95_ns"],
                        "iters": r["answered"],
                    })
                })
                .collect();
            let payload = serde_json::json!({
                "version": 1,
                "host": std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".to_string()),
                "benches": benches,
            });
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if args.experiment == "ext-scaling" {
        // The scaling ladder builds its own synthetic galleries (subjects,
        // 5x, 10x); skip the full dataset/score pipeline so large ladders
        // don't pay for rendering and score matrices they never read.
        let config = builder.build();
        telemetry.event_with(
            Level::Info,
            "scaling ladder",
            &[
                (
                    "galleries",
                    format!(
                        "{}/{}/{}",
                        config.subjects,
                        config.subjects * 5,
                        config.subjects * 10
                    ),
                ),
                ("seed", config.seed.to_string()),
            ],
        );
        let report = fp_study::experiments::ext_scaling::run_with(&config, telemetry);
        println!("{}", report.render());
        let snapshot = telemetry.snapshot();
        if let Some(path) = &args.json {
            let payload = serde_json::json!({
                "config": config,
                "reports": [report],
                "telemetry": snapshot,
            });
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        if let Some(path) = &args.metrics {
            let payload = serde_json::to_value(&snapshot).expect("serializable");
            if let Err(code) = write_json(telemetry, path, &payload) {
                return code;
            }
        }
        return ExitCode::SUCCESS;
    }

    let config = builder.build();
    telemetry.event_with(
        Level::Info,
        "generating study data",
        &[
            ("subjects", config.subjects.to_string()),
            ("impostors_per_cell", config.impostors_per_cell.to_string()),
            ("seed", config.seed.to_string()),
        ],
    );
    let start = std::time::Instant::now();
    let data = StudyData::generate_with(&config, telemetry);
    telemetry.event_with(
        Level::Info,
        "score matrices ready",
        &[("elapsed", format!("{:.1?}", start.elapsed()))],
    );

    let reports = if args.experiment == "all" {
        experiments::run_all_with(&data, telemetry)
    } else {
        match experiments::run_with(&args.experiment, &data, telemetry) {
            Some(r) => vec![r],
            None => {
                telemetry.event_with(
                    Level::Error,
                    "unknown experiment",
                    &[
                        ("experiment", args.experiment.clone()),
                        (
                            "known",
                            format!("all, devices, metrics, {}", experiments::ALL_IDS.join(", ")),
                        ),
                    ],
                );
                return ExitCode::FAILURE;
            }
        }
    };

    for report in &reports {
        println!("{}", report.render());
    }

    let snapshot = telemetry.snapshot();
    if args.experiment == "all" {
        eprintln!("{}", fp_telemetry::render_summary(&snapshot));
    }

    if let Some(path) = &args.json {
        let payload = serde_json::json!({
            "config": config,
            "reports": reports,
            "telemetry": snapshot,
        });
        if let Err(code) = write_json(telemetry, path, &payload) {
            return code;
        }
    }
    if let Some(path) = &args.metrics {
        let payload = serde_json::to_value(&snapshot).expect("serializable");
        if let Err(code) = write_json(telemetry, path, &payload) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: study <all|devices|metrics|verify|render|serve-shard|load|check-scaling|\
                 check-telemetry|check-serve|check-load|check-dist-trace|check-kernel|check-store|\
                 gallery|fingerprint|check-fingerprint|{}> \
                 [--subjects N] [--seed S] [--shards S] [--remote-shards N] [--port P] \
                 [--json PATH] [--metrics PATH] [--trace PATH] [--events PATH] [--out PATH] \
                 [--slowlog PATH] [--delay-ms N] [--gallery-dir PATH] [--deep]",
                experiments::ALL_IDS.join("|")
            );
            return ExitCode::FAILURE;
        }
    };
    // check-dist-trace records into its own per-pass registries and writes
    // the MERGED multi-process trace itself; main's telemetry must stay
    // quiet or the exit-time export below would clobber the merged trace
    // with an (empty) local one.
    let own_artifacts = args.experiment == "check-dist-trace";
    // Informational subcommands stay allocation-free unless a flight
    // recorder export was requested; experiment runs always record.
    let inert = own_artifacts
        || matches!(
            args.experiment.as_str(),
            "devices"
                | "metrics"
                | "render"
                | "check-scaling"
                | "check-telemetry"
                | "check-serve"
                | "check-load"
                | "check-kernel"
                | "check-store"
                | "gallery"
                | "check-fingerprint"
                | "fingerprint"
                | "serve-shard"
        ) && args.trace.is_none()
            && args.events.is_none();
    let telemetry = if inert {
        Telemetry::disabled()
    } else {
        Telemetry::enabled()
    };

    let code = run(&args, &telemetry);

    // Export the flight recorder even when the run failed: a trace of a
    // failing run is exactly what you want on the desk.
    let trace = (!own_artifacts && (args.trace.is_some() || args.events.is_some()))
        .then(|| telemetry.trace_snapshot());
    if let Some(trace) = &trace {
        if trace.dropped_spans > 0 || trace.dropped_events > 0 {
            telemetry.event_with(
                Level::Warn,
                "flight recorder buffer overflowed; trace is truncated",
                &[
                    ("dropped_spans", trace.dropped_spans.to_string()),
                    ("dropped_events", trace.dropped_events.to_string()),
                ],
            );
        }
        if let Some(path) = &args.trace {
            match std::fs::write(
                path,
                serde_json::to_string(&trace.to_chrome_trace()).expect("serializable"),
            ) {
                Ok(()) => eprintln!(
                    "wrote {path} ({} spans, {} events; open in chrome://tracing or ui.perfetto.dev)",
                    trace.spans.len(),
                    trace.events.len()
                ),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = &args.events {
            match std::fs::write(path, trace.events_jsonl()) {
                Ok(()) => eprintln!("wrote {path} ({} events)", trace.events.len()),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    code
}
