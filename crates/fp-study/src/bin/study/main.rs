//! The study driver: regenerates every table and figure of Lugini et al.
//! (DSN 2013) on the synthetic substrate, and runs the repo's smoke gates.
//!
//! ```sh
//! study all                         # every experiment at the default scale
//! study table5 --subjects 494      # one experiment at paper scale
//! study all --json results.json    # machine-readable output (incl. telemetry)
//! study --all --trace trace.json   # flight-recorder timeline (chrome://tracing)
//! study verify --subjects 150      # check the paper's findings hold
//! study gate                       # every smoke gate, artifacts in target/gates
//! study gate kernel store          # just those rows
//! ```
//!
//! Nothing here lists the subcommands by hand: the usage line `study`
//! prints on a bad invocation is assembled from [`SUBCOMMANDS`], the gate
//! table ([`gates`]) and the experiment ids, and those same tables decide
//! which flags and operands each subcommand takes.
//!
//! The paper's artefacts come from the `fp_study` library. Everything that
//! spawns shards, opens stores or gates a run — the modules below — is
//! private to this binary, so the library (which the benchmark links) does
//! not change when one of them does.

use std::process::ExitCode;

use fp_sensor::DEVICES;
use fp_study::config::StudyConfig;
use fp_study::experiments;
use fp_study::report::Report;
use fp_study::scores::StudyData;
use fp_telemetry::{Level, Telemetry};

mod check_kernel;
mod check_store;
mod dist_trace;
mod ext_load;
mod ext_scaling;
mod fleet;
mod gates;

#[derive(Default)]
struct Args {
    experiment: String,
    /// Operands: `fingerprint`'s results PATH, `gallery`'s action word and
    /// DIR, `gate`'s row names.
    positionals: Vec<String>,
    /// Every flag given, for the per-subcommand check.
    flags: Vec<String>,
    gallery_dir: Option<String>,
    subjects: Option<usize>,
    seed: Option<u64>,
    /// `ext-scaling` / `all`: the cross-process rung's shard count; 0 (no
    /// rung) when the flag is absent.
    remote_shards: usize,
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
}

type Handler = fn(&Args, &Telemetry) -> ExitCode;

/// A subcommand that is neither an experiment id nor the gate runner.
struct Subcommand {
    name: &'static str,
    /// Operand synopsis for the usage line; one operand per word.
    operands: &'static str,
    /// The flags it takes, space-separated.
    flags: &'static str,
    run: Handler,
}

/// Flags of a single experiment.
const STUDY_FLAGS: &str = "--subjects --seed --json --metrics --trace --events";

/// Flags of `all` and `ext-scaling`, which run the scaling ladder.
const LADDER_FLAGS: &str = "--subjects --seed --remote-shards --json --metrics --trace --events";

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "devices",
        operands: "",
        flags: "",
        run: print_devices,
    },
    Subcommand {
        name: "metrics",
        operands: "",
        flags: "",
        run: print_metrics_help,
    },
    Subcommand {
        name: "verify",
        operands: "",
        flags: "--subjects --seed --json --trace --events",
        run: verify,
    },
    Subcommand {
        name: "ext-scaling",
        operands: "",
        flags: LADDER_FLAGS,
        run: scaling_ladder,
    },
    Subcommand {
        name: "load",
        operands: "",
        flags: "--subjects --seed --json --metrics --slowlog --trace --events",
        run: load,
    },
    Subcommand {
        name: "serve-shard",
        operands: "",
        flags: "--port --gallery-dir --delay-ms",
        run: serve_shard,
    },
    Subcommand {
        name: "gallery",
        operands: "<build|inspect|compact> DIR",
        flags: "--subjects --seed --json",
        run: gallery_command,
    },
    Subcommand {
        name: "fingerprint",
        operands: "PATH",
        flags: "--json",
        run: fingerprint_manifest,
    },
    Subcommand {
        name: "check-kernel",
        operands: "",
        flags: "--subjects --seed --json",
        run: check_kernel,
    },
    Subcommand {
        name: "check-store",
        operands: "",
        flags: "--subjects --seed --gallery-dir --json",
        run: check_store,
    },
    Subcommand {
        name: "check-dist-trace",
        operands: "",
        flags: "--subjects --seed --delay-ms --trace --slowlog --json",
        run: check_dist_trace,
    },
];

/// What a subcommand name resolves to: how many operands and which flags
/// it takes, and what runs it.
struct Grammar {
    operands: std::ops::RangeInclusive<usize>,
    flags: &'static str,
    run: Handler,
}

impl Grammar {
    fn takes(&self, flag: &str) -> bool {
        self.flags.split_whitespace().any(|f| f == flag)
    }
}

/// Resolves a subcommand name: the gate runner takes up to one operand per
/// row of the gate table, the rest come from [`SUBCOMMANDS`], and anything
/// else is an experiment id (checked when it runs).
fn grammar(name: &str) -> Grammar {
    if name == "gate" {
        return Grammar {
            operands: 0..=gates::GATES.len(),
            flags: "--out",
            run: run_gates,
        };
    }
    match SUBCOMMANDS.iter().find(|s| s.name == name) {
        Some(sub) => {
            let operands = sub.operands.split_whitespace().count();
            Grammar {
                operands: operands..=operands,
                flags: sub.flags,
                run: sub.run,
            }
        }
        None => Grammar {
            operands: 0..=0,
            flags: if name == "all" {
                LADDER_FLAGS
            } else {
                STUDY_FLAGS
            },
            run: run_experiments,
        },
    }
}

fn usage() -> String {
    let mut names = vec!["gate [NAME…]".to_string(), "all".to_string()];
    for sub in SUBCOMMANDS {
        names.push(format!("{} {}", sub.name, sub.operands).trim().to_string());
    }
    names.extend(experiments::ALL_IDS.map(String::from));
    format!(
        "usage: study <{}> [flags]\ngates: {}",
        names.join("|"),
        gates::names()
    )
}

/// Parses a `study` command line (without the program name). Operands may
/// sit anywhere among the flags; a flag the subcommand does not take is an
/// error, not a no-op.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.into_iter().peekable();
    // `study --trace t.json` / `study --all ...` run every experiment: a
    // leading flag means the experiment name was omitted.
    let experiment = match argv.peek() {
        Some(first) if !first.starts_with('-') => argv.next().expect("peeked"),
        _ => "all".to_string(),
    };
    let mut parsed = Args {
        experiment,
        ..Args::default()
    };
    while let Some(word) = argv.next() {
        if !word.starts_with('-') {
            parsed.positionals.push(word);
            continue;
        }
        let mut value = |what: &str| argv.next().ok_or(format!("{word} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {flag}: {v}"))
        }
        match word.as_str() {
            "--all" => parsed.experiment = "all".to_string(),
            "--subjects" => {
                let n: usize = number(&word, value("a value")?)?;
                if n < 2 {
                    return Err(format!(
                        "--subjects must be at least 2 (genuine and impostor pairs both need subjects), got {n}"
                    ));
                }
                parsed.subjects = Some(n);
            }
            "--seed" => parsed.seed = Some(number(&word, value("a value")?)?),
            "--remote-shards" => {
                let n: usize = number(&word, value("a value")?)?;
                if n < 1 {
                    return Err(format!("{word} must be at least 1, got {n}"));
                }
                parsed.remote_shards = n;
            }
            "--port" => parsed.port = Some(number(&word, value("a value")?)?),
            "--delay-ms" => parsed.delay_ms = Some(number(&word, value("a value")?)?),
            "--json" => parsed.json = Some(value("a path")?),
            "--out" => parsed.out = Some(value("a path")?),
            "--metrics" => parsed.metrics = Some(value("a path")?),
            "--trace" => parsed.trace = Some(value("a path")?),
            "--events" => parsed.events = Some(value("a path")?),
            "--slowlog" => parsed.slowlog = Some(value("a path")?),
            "--gallery-dir" => parsed.gallery_dir = Some(value("a path")?),
            other => return Err(format!("unknown flag: {other}")),
        }
        if word != "--all" {
            parsed.flags.push(word);
        }
    }
    let grammar = grammar(&parsed.experiment);
    if let Some(flag) = parsed.flags.iter().find(|f| !grammar.takes(f)) {
        return Err(format!(
            "{flag} is not a flag of '{}' (it takes: {})",
            parsed.experiment,
            if grammar.flags.is_empty() {
                "no flags"
            } else {
                grammar.flags
            }
        ));
    }
    if parsed.experiment == "check-store" && parsed.gallery_dir.is_none() {
        return Err(
            "check-store needs --gallery-dir DIR (the gallery it rebuilds and leaves behind)"
                .to_string(),
        );
    }
    if !grammar.operands.contains(&parsed.positionals.len()) {
        let (min, max) = grammar.operands.into_inner();
        let arity = if min == max { "exactly" } else { "at most" };
        return Err(format!(
            "'{}' takes {arity} {max} operand(s), got {}",
            parsed.experiment,
            parsed.positionals.len()
        ));
    }
    Ok(parsed)
}

/// The study configuration the scale flags describe; a subcommand with a
/// smaller default cohort passes it as `default_subjects`.
fn config_from(args: &Args, default_subjects: Option<usize>) -> StudyConfig {
    let mut builder = StudyConfig::builder();
    if let Some(s) = args.subjects.or(default_subjects) {
        builder = builder.subjects(s);
    }
    if let Some(s) = args.seed {
        builder = builder.seed(s);
    }
    builder.build()
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

/// Writes a text artifact (trace, event log, slow log) and says so.
fn write_text(path: &str, text: &str, what: &str) -> Result<(), ExitCode> {
    match std::fs::write(path, text) {
        Ok(()) => {
            eprintln!("wrote {path} ({what})");
            Ok(())
        }
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// The tail every producer shares: print the reports, write `--json`
/// (config, reports, and the telemetry section when this run records one)
/// and `--metrics`, and fail when a report carries an error.
fn emit(args: &Args, telemetry: &Telemetry, config: &StudyConfig, reports: &[Report]) -> ExitCode {
    for report in reports {
        println!("{}", report.render());
    }
    let snapshot = telemetry.snapshot();
    if let Some(path) = &args.json {
        let payload = if telemetry.is_enabled() {
            serde_json::json!({"config": config, "reports": reports, "telemetry": snapshot})
        } else {
            serde_json::json!({"config": config, "reports": reports})
        };
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
    if reports.iter().all(|r| r.values["error"].is_null()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `study gate [name…] [--out DIR]`: runs gate rows — every row when none
/// is named. Each producer line runs in process and judges its own run; a
/// row passes when every line exits 0, its artifacts exist and it stayed
/// inside the budget.
fn run_gates(args: &Args, _telemetry: &Telemetry) -> ExitCode {
    let rows: Vec<&gates::Gate> = if args.positionals.is_empty() {
        gates::GATES.iter().collect()
    } else {
        match args.positionals.iter().map(|n| gates::find(n)).collect() {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let out = args.out.as_deref().unwrap_or("target/gates");
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("error: cannot create {out}: {e}");
        return ExitCode::FAILURE;
    }
    let mut failed: Vec<&str> = Vec::new();
    for gate in &rows {
        println!("==> gate {}: {}", gate.name, gate.proves);
        let start = std::time::Instant::now();
        let mut failures: Vec<String> = Vec::new();
        for step in gate.steps {
            let line: Vec<String> = step
                .split_whitespace()
                .map(|w| w.replace("{out}", out))
                .collect();
            println!("==> study {}", line.join(" "));
            let ok = match parse_args(line.clone()) {
                Ok(step_args) => invoke(&step_args) == ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    false
                }
            };
            if !ok {
                failures.push(format!("step failed: study {}", line.join(" ")));
                break;
            }
        }
        if failures.is_empty() {
            for artifact in gate.artifacts {
                if !std::path::Path::new(out).join(artifact).exists() {
                    failures.push(format!("artifact missing: {out}/{artifact}"));
                }
            }
        }
        let secs = start.elapsed().as_secs();
        if secs > gates::BUDGET_SECS {
            failures.push(format!("over budget by {} s", secs - gates::BUDGET_SECS));
        }
        for failure in &failures {
            eprintln!("gate {}: {failure}", gate.name);
        }
        let state = if failures.is_empty() { "ok" } else { "FAILED" };
        println!(
            "gate {} {state} in {secs} s (budget {} s)",
            gate.name,
            gates::BUDGET_SECS
        );
        if !failures.is_empty() {
            failed.push(gate.name);
        }
    }
    if failed.is_empty() {
        println!("{} gate(s) passed; artifacts in {out}", rows.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("gates failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn print_devices(_args: &Args, _telemetry: &Telemetry) -> ExitCode {
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
    ExitCode::SUCCESS
}

fn print_metrics_help(_args: &Args, _telemetry: &Telemetry) -> ExitCode {
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
    println!("       a serve-shard process meters the index.search.* work of the");
    println!("       stage-1/stage-2 calls it serves, and a coordinator's STATS");
    println!("       scrape merges them in as shard<k>.remote.index.* gauges)");
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
    println!("    scores.cell.g<g>p<p>              per run of up to 32 comparisons in a");
    println!("                                      (gallery, probe) device cell, one");
    println!("                                      span per run, genuine and impostor");
    println!("    experiment.<id>                   per report");
    println!();
    println!("  stages (per-thread utilization)");
    println!("    dataset.capture, scores.prepare, scores.genuine, scores.impostor");
    println!("    (the scores.genuine/impostor items are the cells' runs)");
    println!("    scaling.pool, scaling.search, scaling.audit");
    println!();
    println!("  flight recorder (--trace / --events)");
    println!("    hierarchical span tree with per-span attributes (experiment,");
    println!("    gallery/probe device, subject, worker lane) and self-time");
    println!("    attribution; log events carry a severity (debug|info|warn|error).");
    println!("    Span names/parents/attributes are deterministic; timestamps vary.");
    ExitCode::SUCCESS
}

/// `study fingerprint PATH [--json OUT]`: prints (and optionally saves) the
/// run-fingerprint manifest of an `ext-scaling --json` results file: the
/// seed plus every rung's RUNFP chain value. The manifest is the O(1)
/// artifact two runs compare to prove behavioral parity without diffing
/// candidate lists.
fn fingerprint_manifest(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let path = &args.positionals[0];
    let payload: serde_json::Value = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(payload) => payload,
        Err(e) => {
            eprintln!("cannot read results file (path={path}, error={e})");
            return ExitCode::FAILURE;
        }
    };
    let Some(values) = payload["reports"]
        .as_array()
        .into_iter()
        .flatten()
        .find(|r| r["id"] == "ext-scaling")
        .map(|r| &r["values"])
    else {
        eprintln!("no ext-scaling report in results file (path={path})");
        return ExitCode::FAILURE;
    };
    let seed = values["seed"].as_u64().unwrap_or(0);
    let mut rungs = Vec::new();
    println!("run-fingerprint manifest (RUNFP v1, seed {seed}):");
    for (section, kind, size, label, transport) in [
        ("rows", "unsharded", "gallery", "gallery", "unsharded"),
        (
            "remote_rows",
            "remote",
            "shards",
            "shards ",
            "cross-process",
        ),
    ] {
        for row in values[section].as_array().into_iter().flatten() {
            println!(
                "  {label} {:<8} {transport:<16} {}",
                row[size],
                row["runfp"].as_str().unwrap_or("<missing>")
            );
            rungs.push(serde_json::json!({
                "kind": kind,
                "gallery": row["gallery"],
                "shards": row["shards"],
                "runfp": row["runfp"],
            }));
        }
    }
    if rungs.is_empty() {
        eprintln!("results file has no fingerprinted rungs (path={path})");
        return ExitCode::FAILURE;
    }
    if let Some(out) = &args.json {
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

/// `study gallery <build|inspect|compact> DIR`: the operator surface of
/// the persistent gallery store.
fn gallery_command(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let (action, dir) = (&args.positionals[0], &args.positionals[1]);
    match action.as_str() {
        "build" => {
            let config = config_from(args, None);
            match check_store::build_gallery(&config, std::path::Path::new(dir)) {
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

/// `study serve-shard`: one gallery shard behind the fp-serve wire
/// protocol. Binds loopback (port 0 unless --port), prints the LISTENING
/// handshake line for the spawning coordinator, and serves until a
/// wire-level shutdown frame arrives.
fn serve_shard(args: &Args, _telemetry: &Telemetry) -> ExitCode {
    use std::io::Write as _;
    let addr = format!("127.0.0.1:{}", args.port.unwrap_or(0));
    // The shard keeps its own enabled registry so a coordinator's
    // STATS scrape sees real index.* instruments, whatever this
    // process's own telemetry mode.
    let shard_telemetry = Telemetry::enabled();
    let server =
        match fp_serve::ShardServer::bind(fp_match::PairTableMatcher::default(), addr.as_str()) {
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
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn verify(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let config = config_from(args, None);
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
    if all_hold {
        println!("all findings hold");
        ExitCode::SUCCESS
    } else {
        println!("SOME FINDINGS FAILED (small cohorts are noisy; try --subjects 150+)");
        ExitCode::FAILURE
    }
}

/// `study check-kernel`: the stage-1 kernel parity producer — every coded
/// entry at the lane width, and bitwise kernel ≡ scalar scores plus exact
/// hamming_ops agreement on an enrolled gallery.
fn check_kernel(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let config = config_from(args, Some(20));
    let report = check_kernel::run_check(&config);
    emit(args, telemetry, &config, &[report])
}

/// `study check-store`: the persistent-store parity producer — open /
/// serve-from-store with a kill+restart / churn / compact, each
/// byte-identical to fresh enrollment.
/// The gallery directory is left behind (compacted) as an inspectable
/// artifact.
fn check_store(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let config = config_from(args, Some(20));
    let dir = args.gallery_dir.as_deref().expect("required by parse_args");
    let report = check_store::run_check(&config, std::path::Path::new(dir));
    emit(args, telemetry, &config, &[report])
}

/// `study check-dist-trace`: the distributed-tracing producer — spawns a
/// serve-shard topology with one artificially slow shard, runs the same
/// probes untraced and traced, and asserts parity + a single connected
/// trace tree + culprit-naming slow-log exemplars. `--trace` here is the
/// MERGED multi-process trace of the traced pass, not this process's own
/// flight recorder (which stays off).
fn check_dist_trace(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let config = config_from(args, Some(16));
    let outcome = dist_trace::run_check(&config, args.delay_ms.unwrap_or(25));
    if let Some(path) = &args.trace {
        let mut pids: Vec<u64> = outcome.merged.spans.iter().map(|s| s.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        let text = serde_json::to_string(&outcome.merged.to_chrome_trace()).expect("serializable");
        let what = format!(
            "{} spans across {} process lanes; open in chrome://tracing or ui.perfetto.dev",
            outcome.merged.spans.len(),
            pids.len()
        );
        if let Err(code) = write_text(path, &text, &what) {
            return code;
        }
    }
    if let Some(path) = &args.slowlog {
        let what = format!(
            "{} slow-query exemplars",
            outcome.slowlog_jsonl.lines().count()
        );
        if let Err(code) = write_text(path, &outcome.slowlog_jsonl, &what) {
            return code;
        }
    }
    emit(args, telemetry, &config, &[outcome.report])
}

/// `study load`: the concurrent-serving load harness spawns its own
/// serve-shard children and builds its own synthetic gallery; no
/// dataset/score pipeline needed.
fn load(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let config = config_from(args, None);
    telemetry.event_with(
        Level::Info,
        "serving load harness",
        &[
            ("subjects", config.subjects.to_string()),
            ("seed", config.seed.to_string()),
        ],
    );
    // `--slowlog PATH` arms the tail-latency exemplar log (threshold: the
    // running p99) and writes whatever it caught as JSON Lines.
    let slowlog = args
        .slowlog
        .as_ref()
        .map(|_| std::sync::Arc::new(fp_serve::SlowLog::running_p99(telemetry)));
    let report = ext_load::run(&config, telemetry, slowlog.clone());
    if let (Some(path), Some(slowlog)) = (&args.slowlog, &slowlog) {
        let what = format!("{} slow-query exemplars", slowlog.entries().len());
        if let Err(code) = write_text(path, &slowlog.to_jsonl(), &what) {
            return code;
        }
    }
    emit(args, telemetry, &config, &[report])
}

/// `study ext-scaling`: the scaling ladder builds its own synthetic
/// galleries (subjects, 5x, 10x); skip the full dataset/score pipeline so
/// large ladders don't pay for rendering and score matrices they never
/// read.
fn scaling_ladder(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let config = config_from(args, None);
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
    let report = ext_scaling::run(&config, args.remote_shards, telemetry);
    emit(args, telemetry, &config, &[report])
}

/// `study all` / `study <experiment id>`: the paper's artifacts over one
/// generated dataset; `all` ends with the scaling ladder.
fn run_experiments(args: &Args, telemetry: &Telemetry) -> ExitCode {
    let all = args.experiment == "all";
    if !all && !experiments::ALL_IDS.contains(&args.experiment.as_str()) {
        telemetry.event_with(
            Level::Error,
            "unknown experiment",
            &[
                ("experiment", args.experiment.clone()),
                (
                    "known",
                    format!(
                        "all, devices, metrics, {}, ext-scaling",
                        experiments::ALL_IDS.join(", ")
                    ),
                ),
            ],
        );
        return ExitCode::FAILURE;
    }
    let config = config_from(args, None);
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
    let reports = if all {
        let mut reports = experiments::run_all_with(&data, telemetry);
        let _span = telemetry.span_with(
            "experiment.ext-scaling",
            &[("experiment", "ext-scaling".to_string())],
        );
        reports.push(ext_scaling::run(&config, args.remote_shards, telemetry));
        reports
    } else {
        let report = experiments::run_with(&args.experiment, &data, telemetry);
        vec![report.expect("id checked against ALL_IDS above")]
    };
    let code = emit(args, telemetry, &config, &reports);
    if all {
        eprintln!("{}", fp_telemetry::render_summary(&telemetry.snapshot()));
    }
    code
}

/// Runs one parsed command line: the subcommand's handler with its own
/// telemetry registry, then the flight-recorder exports. `study gate` calls
/// this once per producer line, so every line sees the fresh registry a
/// process of its own would.
fn invoke(args: &Args) -> ExitCode {
    let grammar = grammar(&args.experiment);
    // A subcommand records telemetry exactly when it can export it:
    // informational ones, and the producers that write their own merged
    // trace, stay allocation-free.
    let records = grammar.takes("--events");
    let telemetry = if records {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let code = (grammar.run)(args, &telemetry);

    // Export the flight recorder even when the run failed: a trace of a
    // failing run is exactly what you want on the desk.
    if records && (args.trace.is_some() || args.events.is_some()) {
        let trace = telemetry.trace_snapshot();
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
            let text = serde_json::to_string(&trace.to_chrome_trace()).expect("serializable");
            let what = format!(
                "{} spans, {} events; open in chrome://tracing or ui.perfetto.dev",
                trace.spans.len(),
                trace.events.len()
            );
            if let Err(code) = write_text(path, &text, &what) {
                return code;
            }
        }
        if let Some(path) = &args.events {
            let what = format!("{} events", trace.events.len());
            if let Err(code) = write_text(path, &trace.events_jsonl(), &what) {
                return code;
            }
        }
    }
    code
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(args) => invoke(&args),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_step_is_a_valid_command_line() {
        for gate in gates::GATES {
            for step in gate.steps {
                if let Err(e) = parse_args(step.split_whitespace().map(String::from)) {
                    panic!("gate {}: {e}", gate.name);
                }
            }
        }
    }
}
