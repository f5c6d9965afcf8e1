//! `serve_10k`: the gallery and probe list of `identify_10k`, enrolled over
//! the wire into two shard child processes behind one `Coordinator`, with
//! two closed-loop client threads sharing the coordinator.
//!
//! This puts the wire codec (~160 KB of stage-1 scores per search), the
//! multiplexer, the admission queue and loopback on the blocking path with
//! at least two probes in flight per shard — the only place probe batching,
//! codec or pool changes can show. It must return the same candidates, and
//! the same RUNFP chain, as the in-process index.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fp_core::template::Template;
use fp_index::{IndexConfig, SearchResult};
use fp_match::PairTableMatcher;
use fp_serve::proc::{spawn_shard, ShardChild, LISTENING_PREFIX};
use fp_serve::{
    decode_frame, encode_frame, Coordinator, Frame, MuxConn, RemoteShard, RetryPolicy,
    ShardBreakdown, ShardServer, SlowLog, SlowLogEntry,
};
use fp_telemetry::Telemetry;

use super::identify::{
    build_index, parity_chain, result_digest, search_by_seam, synthetic_inputs, Case, Inputs,
    SeamSpans, Verifier,
};
use super::{closed_loop, cores, peak_rss_mb, trace_path, RunArgs, SetupClock, Timed};
use crate::ledger::Outcome;
use crate::stats;
use crate::trace::Tracer;

/// Shard child processes.
const SHARDS: usize = 2;
/// Closed-loop client threads (callers block in `search`), capped by cores.
const CLIENTS: usize = 2;
/// Per-request deadline: generous, so that only a hung shard trips it.
const DEADLINE: Duration = Duration::from_secs(60);
/// Argument that makes the benchmark executable run one shard server.
pub const SHARD_CHILD_ARG: &str = "shard-child";
/// Encode/decode repetitions of the wire-codec measurement.
const CODEC_REPEATS: usize = 30;
/// Rank-1 classes tallied (the synthetic probe kinds that have a mate).
const CLASSES: [&str; 3] = [
    "index.rank1.same_device",
    "index.rank1.cross_device",
    "index.rank1.ink_like",
];

/// Runs one shard server on a loopback port of the kernel's choosing, with
/// the default worker pool, until a wire-level shutdown arrives — what
/// `study serve-shard` does. Like it, the shard keeps its own live telemetry
/// registry, which is what answers a coordinator's `Stats` scrape.
pub fn shard_child() -> Result<(), String> {
    use std::io::Write as _;
    let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0")
        .map_err(|e| format!("bind loopback: {e}"))?
        .with_telemetry(&Telemetry::enabled());
    let addr = server
        .local_addr()
        .map_err(|e| format!("local address: {e}"))?;
    println!("{LISTENING_PREFIX} {addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flush handshake: {e}"))?;
    server.run().map_err(|e| format!("serve loop: {e}"))
}

/// Shard children plus the coordinator connected to them. Field order is
/// drop order: the coordinator's connections close before the children are
/// killed (a `ShardChild` kills and reaps its process on drop, so no exit
/// path leaves a shard behind).
struct Topology {
    coordinator: Coordinator,
    children: Vec<ShardChild>,
}

impl Topology {
    /// Spawns the shards, connects and enrolls `gallery` over the wire. A
    /// live `telemetry` makes every request sampled; with a slow log every
    /// search's per-shard breakdown is kept.
    fn spawn(
        exe: &Path,
        gallery: &[Template],
        seed: u64,
        telemetry: &Telemetry,
        slowlog: Option<Arc<SlowLog>>,
    ) -> Result<Topology, String> {
        let children = (0..SHARDS)
            .map(|_| {
                spawn_shard(exe, &[SHARD_CHILD_ARG])
                    .map_err(|e| format!("spawn {} {SHARD_CHILD_ARG}: {e}", exe.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<SocketAddr> = children.iter().map(|c| c.addr).collect();
        let mut coordinator = Coordinator::connect(
            &addrs,
            IndexConfig::scaled(gallery.len()),
            DEADLINE,
            RetryPolicy::default(),
        )
        .map_err(|e| e.to_string())?
        .with_telemetry(telemetry)
        .with_run_seed(seed);
        if let Some(slowlog) = slowlog {
            coordinator = coordinator.with_slowlog(slowlog);
        }
        coordinator.enroll_all(gallery).map_err(|e| e.to_string())?;
        Ok(Topology {
            coordinator,
            children,
        })
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.children.iter().map(|c| c.addr).collect()
    }

    /// Summed peak resident memory of the shard processes (MB).
    fn shard_rss_mb(&self) -> Result<f64, String> {
        self.children.iter().map(|c| peak_rss_mb(c.id())).sum()
    }

    /// Clean wire-level shutdown, then reap.
    fn shutdown(mut self) {
        let _ = self.coordinator.shutdown_all();
        for child in &mut self.children {
            child.wait_exit(Duration::from_secs(5));
        }
    }
}

/// The shards' admission counters, summed: `(offered, accepted, shed)`.
fn admission_ledger(addrs: &[SocketAddr]) -> Result<(u64, u64, u64), String> {
    let mut sum = (0, 0, 0);
    for (k, &addr) in addrs.iter().enumerate() {
        let (response, _, _) = MuxConn::new(addr, DEADLINE)
            .call(&Frame::Stats)
            .map_err(|e| format!("stats scrape of shard {k}: {e}"))?;
        let Frame::StatsOk { counters, .. } = response else {
            return Err(format!(
                "shard {k} answered stats with '{}'",
                response.kind()
            ));
        };
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        sum.0 += get("serve.offered");
        sum.1 += get("serve.accepted");
        sum.2 += get("serve.overloaded");
    }
    Ok(sum)
}

/// What the client threads of one timed section measured together.
struct Load {
    timed: Timed,
    verifier: Verifier,
}

/// `CLIENTS` closed-loop client threads share the coordinator for `seconds`;
/// client `t` searches probes `t, t + clients, ...`, wrapping.
fn drive_clients(
    coordinator: &Coordinator,
    cases: &[Case],
    seconds: f64,
    outcome: &mut Outcome,
    tracer: Option<&Tracer>,
) -> Load {
    let clients = CLIENTS.min(cores());
    let shortlist = coordinator.config().shortlist;
    let per_client: Vec<(Timed, Verifier, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                scope.spawn(move || {
                    let mut outcome = Outcome::default();
                    let mut verifier =
                        Verifier::new(coordinator.len(), shortlist, CLASSES.len(), cases.len());
                    let at = |i: usize| (t + i * clients) % cases.len();
                    let timed = closed_loop(
                        seconds,
                        &mut outcome,
                        |i| {
                            let _root =
                                tracer.map(|tr| tr.root("search", (t + i * clients) as u64));
                            coordinator.search(&cases[at(i)].template)
                        },
                        |i, result| match result {
                            Ok(result) => verifier.observe(at(i), &cases[at(i)], &result),
                            Err(_) => false,
                        },
                    );
                    (timed, verifier, outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load {
        timed: Timed::default(),
        verifier: Verifier::new(coordinator.len(), shortlist, CLASSES.len(), cases.len()),
    };
    for (timed, verifier, client) in per_client {
        load.timed.latencies_ms.extend(timed.latencies_ms);
        load.timed.wall_s = load.timed.wall_s.max(timed.wall_s);
        load.verifier.absorb(&verifier);
        outcome.attempted += client.attempted;
        outcome.failed += client.failed;
    }
    outcome.note("client_threads", clients);
    load
}

/// Candidate lists and RUNFP chain of the first probes, through the
/// coordinator, against fresh in-process enrolment of the same gallery.
fn check_parity(
    outcome: &mut Outcome,
    inputs: &Inputs,
    seed: u64,
    config: &IndexConfig,
    served: &[SearchResult],
) {
    let reference = build_index(&inputs.gallery, seed);
    let expected: Vec<SearchResult> = inputs.cases[..served.len()]
        .iter()
        .map(|case| reference.search(&case.template))
        .collect();
    let same_lists = served
        .iter()
        .zip(&expected)
        .all(|(a, b)| a.candidates() == b.candidates() && a.gallery_len() == b.gallery_len());
    outcome.check(same_lists, || {
        "coordinator candidates differ from the in-process index's".to_string()
    });
    let served_chain = parity_chain(config, seed, served.iter().cloned());
    let expected_chain = parity_chain(config, seed, expected.into_iter());
    outcome.check(served_chain == expected_chain, || {
        format!("RUNFP chain {served_chain} differs from the in-process index's {expected_chain}")
    });
    outcome.note("runfp_parity", served_chain);
}

/// Searches the first probes sequentially (also the warm-up).
fn serve_first(
    coordinator: &Coordinator,
    cases: &[Case],
    count: usize,
) -> Result<Vec<SearchResult>, String> {
    cases[..count.min(cases.len())]
        .iter()
        .map(|case| {
            coordinator
                .search(&case.template)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Holds the run to the shards' own books: the shards' served-part chains
/// equal the coordinator's mirror of what it decoded, and every request
/// offered was either accepted or shed with a typed answer. Call it before
/// anything but the coordinator has asked the shards for a re-rank.
fn check_books(outcome: &mut Outcome, topology: &Topology) -> Result<(u64, u64, u64), String> {
    if let Err(e) = topology.coordinator.verify_fingerprints() {
        outcome.check(false, || format!("shard fingerprint verification: {e}"));
    }
    let (offered, accepted, shed) = admission_ledger(&topology.addrs())?;
    outcome.check(offered == accepted + shed, || {
        format!("admission ledger broken: offered {offered} != accepted {accepted} + shed {shed}")
    });
    Ok((offered, accepted, shed))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let setup = || {
        let inputs = synthetic_inputs(args.seed, args.sizes);
        let topology = Topology::spawn(
            args.exe,
            &inputs.gallery,
            args.seed,
            &Telemetry::disabled(),
            None,
        )?;
        Ok((inputs, topology))
    };
    let mut clock = SetupClock::default();
    let (inputs, topology) = clock.time(setup)?;
    outcome.note("gallery", topology.coordinator.len());
    outcome.note("shards", SHARDS);

    let first = args.sizes.warmup.max(args.sizes.parity_probes);
    let mut served = serve_first(&topology.coordinator, &inputs.cases, first)?;
    served.truncate(args.sizes.parity_probes);

    let load = drive_clients(
        &topology.coordinator,
        &inputs.cases,
        args.seconds,
        &mut outcome,
        None,
    );
    load.timed
        .report(&mut outcome, load.timed.latencies_ms.len() as f64);
    outcome.set(
        "peak_rss_mb",
        peak_rss_mb(std::process::id())? + topology.shard_rss_mb()?,
    );
    load.verifier.conclude(&mut outcome, &CLASSES);
    check_books(&mut outcome, &topology)?;
    let config = *topology.coordinator.config();
    topology.shutdown();
    let setup_s = clock.finish(args.sizes.setup_repeats, || {
        setup().map(|(_, topology)| topology.shutdown())
    })?;
    outcome.set("setup_s", setup_s);
    // After the memory reading: the reference index lives in this process.
    check_parity(&mut outcome, &inputs, args.seed, &config, &served);
    Ok(outcome)
}

/// Spans of a search driven shard by shard through `RemoteShard`.
const REMOTE_SPANS: SeamSpans = SeamSpans {
    root: "search_by_seam",
    stage_one: "serve.rpc_stage1",
    stage_two: "serve.rpc_rerank",
};

/// The per-shard breakdown of every search under load, from the slow log:
/// shard-side work and queue wait as the shards echoed them, what is left of
/// the round trips (wire, codec, mux), and the bytes moved.
fn set_breakdown_metrics(outcome: &mut Outcome, entries: &[SlowLogEntry]) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_shard = |f: &dyn Fn(&ShardBreakdown) -> f64| -> Vec<f64> {
        entries
            .iter()
            .flat_map(|e| e.shards.iter().map(f))
            .collect()
    };
    let wait = per_shard(&|b| ms(b.queue_wait_ns));
    let overhead =
        per_shard(&|b| ms((b.stage1_ns + b.rerank_ns).saturating_sub(b.work_ns + b.queue_wait_ns)));
    let bytes: Vec<f64> = entries
        .iter()
        .map(|e| {
            e.shards
                .iter()
                .map(|b| (b.bytes_tx + b.bytes_rx) as f64)
                .sum()
        })
        .collect();
    let retried = entries
        .iter()
        .filter(|e| e.shards.iter().any(|b| b.retried))
        .count();
    outcome.set(
        "serve.server_work_ms",
        median_or_zero(&per_shard(&|b| ms(b.work_ns))),
    );
    outcome.set("serve.queue_wait_ms", median_or_zero(&wait));
    let wait_p95 = match stats::sorted(&wait).as_slice() {
        [] => 0.0,
        sorted => stats::percentile(sorted, 95.0),
    };
    outcome.set("serve.queue_wait_p95_ms", wait_p95);
    outcome.set("serve.wire_overhead_ms", median_or_zero(&overhead));
    outcome.set("serve.bytes_per_search", median_or_zero(&bytes));
    outcome.note("searches_retried", retried);
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let tracer = Tracer::new();
    let inputs = synthetic_inputs(args.seed, args.sizes);
    // The shards echo their queue-wait/work split only on sampled requests,
    // i.e. when the coordinator's telemetry is live; a threshold-0 slow log
    // then keeps every search's per-shard breakdown.
    let telemetry = Telemetry::enabled();
    let slowlog = Arc::new(SlowLog::with_threshold_ns(&telemetry, 0).with_capacity(1 << 16));
    let topology = Topology::spawn(
        args.exe,
        &inputs.gallery,
        args.seed,
        &telemetry,
        Some(slowlog.clone()),
    )?;
    let cases = &inputs.cases;
    let first = args.sizes.warmup.max(args.sizes.parity_probes);
    let mut served = serve_first(&topology.coordinator, cases, first)?;
    served.truncate(args.sizes.parity_probes);
    let warmed = slowlog.entries().len();

    // Under load: the untraced pass's client threads, every search observed.
    let load = drive_clients(
        &topology.coordinator,
        cases,
        args.seconds * 0.6,
        &mut outcome,
        Some(&tracer),
    );
    let entries = slowlog.entries();
    let entries = &entries[warmed.min(entries.len())..];
    outcome.check(slowlog.dropped() == 0, || "slow log overflowed".to_string());
    set_breakdown_metrics(&mut outcome, entries);

    let (offered, accepted, shed) = check_books(&mut outcome, &topology)?;

    // One client, shard by shard, through the `ShardBackend` seam.
    let shards: Vec<RemoteShard> = topology
        .addrs()
        .iter()
        .enumerate()
        .map(|(k, &addr)| {
            let shard = RemoteShard::new(addr, k, DEADLINE, RetryPolicy::default());
            shard.health().map(|_| shard).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let shortlist = topology.coordinator.config().shortlist;
    let limit = Duration::from_secs_f64(args.seconds * 0.3);
    let section = Instant::now();
    let mut by_seam = 0usize;
    let mut seam_ok = true;
    let mut stage1_frame = None;
    while by_seam < cases.len() && (by_seam < served.len() || section.elapsed() < limit) {
        let (result, mut scores) = search_by_seam(
            &tracer,
            &shards,
            shortlist,
            &cases[by_seam].template,
            by_seam as u64,
            &REMOTE_SPANS,
        )?;
        if let Some(expected) = served.get(by_seam) {
            seam_ok &= result_digest(&result) == result_digest(expected);
        }
        stage1_frame = scores.pop().map(|scores| Frame::StageOneOk {
            scores,
            timing: None,
        });
        by_seam += 1;
    }
    drop(shards);
    outcome.check(seam_ok, || {
        "a search driven through RemoteShard returned other candidates than the coordinator"
            .to_string()
    });

    // Codec cost of the frame that dominates the wire: one shard's stage-1
    // scores.
    if let Some(frame) = &stage1_frame {
        let _root = tracer.root("wire_codec", 0);
        for _ in 0..CODEC_REPEATS {
            let bytes = {
                let _span = tracer.span("serve.encode_stage1ok");
                encode_frame(frame)
            };
            let _span = tracer.span("serve.decode_stage1ok");
            std::hint::black_box(decode_frame(&bytes).map_err(|e| e.to_string())?);
        }
    }

    let shard_rss = topology.shard_rss_mb()?;
    let peak_in_flight = topology.coordinator.peak_in_flight();
    let retries = telemetry
        .snapshot()
        .counters
        .get("serve.retries")
        .copied()
        .unwrap_or(0);
    let config = *topology.coordinator.config();
    topology.shutdown();
    check_parity(&mut outcome, &inputs, args.seed, &config, &served);

    let summary = tracer.finish(&trace_path(args.out_dir, "serve_10k"))?;
    outcome.note("traced_searches", entries.len());
    outcome.note("searches_by_seam", by_seam);
    outcome.note("trace_spans", summary.spans);
    outcome.check(
        summary.samples_ms("search").len()
            == load.timed.latencies_ms.len() + (outcome.failed as usize),
        || "the trace does not hold one `search` root per search under load".to_string(),
    );
    outcome.set(
        "serve.search_p50_ms",
        median_or_zero(&load.timed.latencies_ms),
    );
    outcome.set("serve.rpc_stage1_ms", summary.median_ms("serve.rpc_stage1"));
    outcome.set("serve.rpc_rerank_ms", summary.median_ms("serve.rpc_rerank"));
    outcome.set(
        "serve.encode_stage1ok_us",
        summary.median_ms("serve.encode_stage1ok") * 1e3,
    );
    outcome.set(
        "serve.decode_stage1ok_us",
        summary.median_ms("serve.decode_stage1ok") * 1e3,
    );
    outcome.set("serve.offered", offered as f64);
    outcome.set("serve.accepted", accepted as f64);
    outcome.set("serve.shed", shed as f64);
    outcome.set("serve.retries", retries as f64);
    outcome.set("serve.peak_in_flight", peak_in_flight as f64);
    outcome.set("serve.shard_rss_mb", shard_rss);
    outcome.set(
        "index.fuse_merge_ms",
        summary.median_ms("index.fuse") + summary.median_ms("index.merge"),
    );
    outcome.set("index.rank1.mated", load.verifier.mated_rate());
    for (class, name) in CLASSES.iter().enumerate() {
        outcome.set(name, load.verifier.rate(class));
    }
    load.verifier.conclude(&mut outcome, &CLASSES);
    Ok(outcome)
}
