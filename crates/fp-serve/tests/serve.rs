//! End-to-end server + coordinator tests over real loopback sockets.
//!
//! The load-bearing test is `remote_matches_unsharded`: a coordinator over
//! TCP shard servers must return candidate lists **byte identical** to the
//! unsharded [`CandidateIndex`] across shard counts and budgets. The rest pin the
//! failure contract — dead shards fail loudly with typed errors after a
//! bounded retry budget, config drift is rejected, shutdown is clean —
//! and the `serve.*` telemetry wiring.

use std::net::SocketAddr;
use std::time::Duration;

use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{search_backends, CandidateIndex, IndexConfig, ShardError};
use fp_match::PairTableMatcher;
use fp_serve::server::ServerHandle;
use fp_serve::{wire, Coordinator, Frame, MuxConn, RemoteShard, RetryPolicy, ShardServer};
use fp_telemetry::Telemetry;
use rand::Rng;

fn synthetic_template(seed: u64, n: usize) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x5D]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    let mut attempts = 0;
    while minutiae.len() < n && attempts < 10_000 {
        attempts += 1;
        let pos = Point::new(
            rng.gen::<f64>() * 16.0 - 8.0,
            rng.gen::<f64>() * 20.0 - 10.0,
        );
        if minutiae.iter().any(|m| m.pos.distance(&pos) < 1.4) {
            continue;
        }
        let kind = if rng.gen::<bool>() {
            MinutiaKind::RidgeEnding
        } else {
            MinutiaKind::Bifurcation
        };
        minutiae.push(Minutia::new(
            pos,
            Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU),
            kind,
            rng.gen::<f64>() * 0.5 + 0.5,
        ));
    }
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
}

fn second_capture(template: &Template, seed: u64) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x5E]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    for m in template.minutiae() {
        if rng.gen::<f64>() <= 0.08 {
            continue;
        }
        minutiae.push(Minutia::new(
            Point::new(
                m.pos.x + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                m.pos.y + fp_core::dist::normal(&mut rng, 0.0, 0.12),
            ),
            m.direction
                .rotated(fp_core::dist::normal(&mut rng, 0.0, 0.05)),
            m.kind,
            m.reliability,
        ));
    }
    let motion = RigidMotion::new(
        Direction::from_radians(fp_core::dist::normal(&mut rng, 0.0, 0.15)),
        Vector::new(
            fp_core::dist::normal(&mut rng, 0.0, 1.0),
            fp_core::dist::normal(&mut rng, 0.0, 1.0),
        ),
    );
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
        .transformed(&motion)
}

fn gallery(seed: u64, n: usize) -> Vec<Template> {
    (0..n)
        .map(|i| synthetic_template(seed * 1_000 + i as u64, 16 + (i * 7) % 16))
        .collect()
}

/// Spawns `s` in-process shard servers on loopback, returning their
/// handles (for fault injection) and addresses.
fn spawn_servers(s: usize) -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..s {
        let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0").unwrap();
        addrs.push(server.local_addr().unwrap());
        handles.push(server.spawn());
    }
    (handles, addrs)
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        seed: 7,
    }
}

#[test]
fn remote_matches_unsharded() {
    let n = 17;
    let templates = gallery(42, n);
    let config = IndexConfig::default();

    let mut unsharded = CandidateIndex::with_config(PairTableMatcher::default(), config);
    unsharded.enroll_all(&templates);

    for s in [1usize, 2, 3] {
        let (handles, addrs) = spawn_servers(s);
        let mut remote =
            Coordinator::connect(&addrs, config, Duration::from_secs(5), fast_retry()).unwrap();
        remote.enroll_all(&templates).unwrap();
        assert_eq!(remote.len(), n);
        assert_eq!(remote.shard_count(), s);

        for probe_pick in [0usize, 5, 11] {
            let probe = second_capture(&templates[probe_pick], 42 ^ probe_pick as u64);
            for budget in [0usize, 1, n / 2, n, n + 5] {
                let a = unsharded.search_with_budget(&probe, budget);
                let c = remote.search_with_budget(&probe, budget).unwrap();
                assert_eq!(
                    a.candidates(),
                    c.candidates(),
                    "remote != unsharded at s={s} budget={budget}"
                );
                assert_eq!(a.gallery_len(), c.gallery_len());
                assert_eq!(a.pruned(), c.pruned());
            }
        }

        remote.shutdown_all().unwrap();
        for handle in handles {
            handle.join();
        }
    }
}

#[test]
fn incremental_enrollment_keeps_global_ids_aligned() {
    let templates = gallery(77, 10);
    let config = IndexConfig::default();
    let (handles, addrs) = spawn_servers(3);
    let mut remote =
        Coordinator::connect(&addrs, config, Duration::from_secs(5), fast_retry()).unwrap();
    // Two batches with an awkward split: round-robin must continue where
    // the first batch stopped, so ids stay aligned with the unsharded index.
    remote.enroll_all(&templates[..4]).unwrap();
    remote.enroll_all(&templates[4..]).unwrap();

    let mut unsharded = CandidateIndex::with_config(PairTableMatcher::default(), config);
    unsharded.enroll_all(&templates);

    let probe = second_capture(&templates[3], 0xA11CE);
    let a = unsharded.search_with_budget(&probe, 10);
    let b = remote.search_with_budget(&probe, 10).unwrap();
    assert_eq!(a.candidates(), b.candidates());

    remote.shutdown_all().unwrap();
    for handle in handles {
        handle.join();
    }
}

/// Kill a shard under a live coordinator: the next search must fail with
/// `ShardError::Unavailable` naming the dead shard after the bounded retry
/// budget — never return a truncated candidate list.
#[test]
fn dead_shard_fails_loudly_after_retries() {
    let templates = gallery(9, 9);
    let (handles, addrs) = spawn_servers(3);
    let mut remote = Coordinator::connect(
        &addrs,
        IndexConfig::default(),
        Duration::from_millis(500),
        fast_retry(),
    )
    .unwrap();
    remote.enroll_all(&templates).unwrap();
    let probe = second_capture(&templates[2], 123);
    assert!(remote.search_with_budget(&probe, 9).is_ok());

    // Kill shard 1 (its connections die within the server's poll interval).
    let mut handles = handles;
    handles.remove(1).join();
    std::thread::sleep(Duration::from_millis(300));

    match remote.search_with_budget(&probe, 9) {
        Err(ShardError::Unavailable { shard, detail }) => {
            assert_eq!(shard, 1, "the dead shard must be named");
            assert!(detail.contains("attempts"), "detail: {detail}");
        }
        Err(other) => panic!("expected Unavailable, got {other}"),
        Ok(_) => panic!("search over a dead shard must not succeed"),
    }

    for handle in handles {
        handle.join();
    }
}

/// A coordinator whose config differs from what the shard enrolled under
/// is rejected with a typed protocol error (config mismatch), not served
/// under the wrong tuning.
#[test]
fn config_drift_is_rejected() {
    let templates = gallery(5, 6);
    let (handles, addrs) = spawn_servers(1);
    let config_a = IndexConfig::default();
    let mut remote_a =
        Coordinator::connect(&addrs, config_a, Duration::from_secs(5), fast_retry()).unwrap();
    remote_a.enroll_all(&templates).unwrap();

    let config_b = IndexConfig {
        lss_depth: config_a.lss_depth + 1,
        ..config_a
    };
    let mut remote_b =
        Coordinator::connect(&addrs, config_b, Duration::from_secs(5), fast_retry()).unwrap();
    match remote_b.enroll_all(&templates) {
        Err(ShardError::Protocol { detail, .. }) => {
            assert!(detail.contains("config mismatch"), "detail: {detail}");
        }
        other => panic!("expected Protocol(config mismatch), got {other:?}"),
    }

    remote_a.shutdown_all().unwrap();
    for handle in handles {
        handle.join();
    }
}

/// A hostile peer cannot kill a shard with a config the geometric hash
/// would assert on: every unhashable ENROLL config is answered with a
/// typed `CONFIG_MISMATCH` frame, and the same shard (same connection,
/// un-poisoned index lock) still answers `Health` afterwards.
#[test]
fn hostile_enroll_config_is_a_typed_error_and_the_shard_survives() {
    let (handles, addrs) = spawn_servers(1);
    let conn = MuxConn::new(addrs[0], Duration::from_secs(10));
    let with_bin = |distance_bin| IndexConfig {
        distance_bin,
        ..IndexConfig::default()
    };
    let one_angle_bin = IndexConfig {
        angle_bins: 1,
        ..IndexConfig::default()
    };
    for config in [
        with_bin(0.0),
        with_bin(f64::NAN),
        with_bin(f64::INFINITY),
        with_bin(1e-300),
        one_angle_bin,
    ] {
        let request = Frame::EnrollBatch {
            config,
            templates: gallery(6, 2),
            trace: None,
        };
        match conn
            .call(&request)
            .expect("shard answers the hostile enroll")
        {
            (Frame::Error { code, .. }, ..) => assert_eq!(code, wire::code::CONFIG_MISMATCH),
            (other, ..) => panic!("expected CONFIG_MISMATCH, got '{}'", other.kind()),
        }
        let (health, ..) = conn.call(&Frame::Health).expect("shard still answers");
        assert_eq!(health, Frame::HealthOk { shard_len: 0 });
    }
    drop(conn);
    for handle in handles {
        handle.join();
    }
}

/// `with_telemetry` keeps an installed index, so the two builders go in
/// either order and both serve the whole gallery.
#[test]
fn telemetry_and_index_builders_commute() {
    let templates = gallery(37, 5);
    for telemetry_first in [true, false] {
        let mut index = CandidateIndex::new(PairTableMatcher::default());
        index.enroll_all(&templates);
        let telemetry = Telemetry::enabled();
        let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0").unwrap();
        let server = if telemetry_first {
            server.with_telemetry(&telemetry).with_index(index)
        } else {
            server.with_index(index).with_telemetry(&telemetry)
        };
        let addr = server.local_addr().unwrap();
        let handle = server.spawn();
        let shard = RemoteShard::new(addr, 0, Duration::from_secs(5), fast_retry());
        assert_eq!(
            shard.health().unwrap(),
            5,
            "telemetry first: {telemetry_first}"
        );
        handle.join();
    }
}

/// Two shards whose galleries are not a round-robin deal of one gallery —
/// two `serve-shard --gallery-dir` processes opened on unrelated stores,
/// say — have no global id mapping to stitch by. The coordinator must say
/// so with a typed error naming the first offending shard, not index out
/// of bounds on the first search; the shards themselves are fine and keep
/// answering.
#[test]
fn mis_dealt_shards_are_a_typed_error() {
    let templates = gallery(31, 8);
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for slice in [&templates[..3], &templates[3..]] {
        let mut index = CandidateIndex::new(PairTableMatcher::default());
        index.enroll_all(slice);
        let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0")
            .unwrap()
            .with_index(index);
        addrs.push(server.local_addr().unwrap());
        handles.push(server.spawn());
    }

    let probe = second_capture(&templates[0], 5);
    let outcome = Coordinator::connect(
        &addrs,
        IndexConfig::default(),
        Duration::from_secs(5),
        fast_retry(),
    )
    .and_then(|remote| remote.search(&probe));
    match outcome {
        Err(ShardError::Protocol { shard, detail }) => {
            assert_eq!(shard, 0, "3 + 5 over two shards: shard 0 is one short");
            assert!(detail.contains("round-robin"), "detail: {detail}");
        }
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("a mis-dealt topology must not serve searches"),
    }

    for (k, (&addr, len)) in addrs.iter().zip([3, 5]).enumerate() {
        let shard = RemoteShard::new(addr, k, Duration::from_secs(5), fast_retry());
        assert_eq!(shard.health().unwrap(), len);
    }
    for handle in handles {
        handle.join();
    }
}

/// A connection refused outright (no listener) exhausts the retry budget
/// and reports Unavailable; the whole dance stays bounded in time.
#[test]
fn unreachable_shard_reports_unavailable() {
    // Bind-then-drop to get a port with no listener.
    let addr = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap()
    };
    match Coordinator::connect(
        &[addr],
        IndexConfig::default(),
        Duration::from_millis(200),
        fast_retry(),
    ) {
        Err(ShardError::Unavailable { shard, .. }) => assert_eq!(shard, 0),
        Err(other) => panic!("expected Unavailable, got {other}"),
        Ok(_) => panic!("connecting to a dead port must fail"),
    }
}

/// serve.* counters and per-frame-type latency histograms are recorded,
/// and serve.rpc spans nest under the coordinator's index.search span.
#[test]
fn telemetry_counts_rpcs_and_nests_spans() {
    let telemetry = Telemetry::enabled();
    let templates = gallery(13, 8);
    let (handles, addrs) = spawn_servers(2);
    let mut remote = Coordinator::connect(
        &addrs,
        IndexConfig::default(),
        Duration::from_secs(5),
        fast_retry(),
    )
    .unwrap()
    .with_telemetry(&telemetry);
    remote.enroll_all(&templates).unwrap();
    let probe = second_capture(&templates[0], 999);
    remote.search_with_budget(&probe, 8).unwrap();

    let snapshot = telemetry.snapshot();
    let requests = snapshot.counters["serve.requests"];
    assert!(requests >= 6, "enroll x2 + stage1 x2 + rerank: {requests}");
    assert!(snapshot.counters["serve.bytes_tx"] > 0);
    assert!(snapshot.counters["serve.bytes_rx"] > 0);
    assert_eq!(snapshot.counters["serve.retries"], 0);
    assert_eq!(snapshot.counters["serve.timeouts"], 0);
    assert!(snapshot.durations.contains_key("serve.rpc.stage1"));
    assert!(snapshot.durations.contains_key("serve.rpc.enroll"));

    let trace = telemetry.trace_snapshot();
    let search = trace
        .spans
        .iter()
        .find(|s| s.name == "index.search")
        .expect("index.search span recorded");
    let nested_rpc = trace
        .spans
        .iter()
        .any(|s| s.name == "serve.rpc" && ancestor_of(&trace.spans, search.id, s));
    assert!(nested_rpc, "serve.rpc spans must nest under index.search");

    remote.shutdown_all().unwrap();
    for handle in handles {
        handle.join();
    }
}

fn ancestor_of(
    spans: &[fp_telemetry::SpanRecord],
    ancestor: u64,
    span: &fp_telemetry::SpanRecord,
) -> bool {
    let mut parent = span.parent;
    while let Some(id) = parent {
        if id == ancestor {
            return true;
        }
        parent = spans.iter().find(|s| s.id == id).and_then(|s| s.parent);
    }
    false
}

/// The canonical run fingerprint is transport-invariant: the unsharded
/// index and remote coordinators fold byte-identical merged results, so
/// their chains are equal; standalone backends driven by `search_backends`
/// fold the same served parts as the coordinator's mirrors — and the
/// per-shard chain scrape verifies cleanly when nothing drifted.
#[test]
fn run_fingerprints_agree_across_transports() {
    let n = 14;
    let templates = gallery(21, n);
    let config = IndexConfig::default();
    let seed = 2013;

    let mut unsharded =
        CandidateIndex::with_config(PairTableMatcher::default(), config).with_run_seed(seed);
    unsharded.enroll_all(&templates);

    for s in [1usize, 3] {
        let (handles, addrs) = spawn_servers(s);
        let telemetry = Telemetry::enabled();
        let mut remote = Coordinator::connect(&addrs, config, Duration::from_secs(5), fast_retry())
            .unwrap()
            .with_telemetry(&telemetry)
            .with_run_seed(seed);
        remote.enroll_all(&templates).unwrap();

        let mut backends: Vec<CandidateIndex<PairTableMatcher>> = (0..s)
            .map(|_| CandidateIndex::with_config(PairTableMatcher::default(), config))
            .collect();
        for (g, t) in templates.iter().enumerate() {
            backends[g % s].enroll(t);
        }

        let mut fresh =
            CandidateIndex::with_config(PairTableMatcher::default(), config).with_run_seed(seed);
        fresh.enroll_all(&templates);

        for probe_pick in [0usize, 4, 9] {
            let probe = second_capture(&templates[probe_pick], 21 ^ probe_pick as u64);
            fresh.search_with_budget(&probe, n / 2);
            search_backends(&backends, &probe, n / 2).unwrap();
            remote.search_with_budget(&probe, n / 2).unwrap();
            remote.verify_fingerprints().unwrap();
        }

        let a = fresh.run_fingerprint();
        let c = remote.run_fingerprint();
        assert_eq!(a, c, "unsharded != remote at s={s}");

        // Standalone backends' part chains equal the coordinator's mirrors
        // of its remote shards: both fold the same served parts in the
        // same order.
        let standalone: Vec<_> = backends.iter().map(|b| b.part_fingerprint()).collect();
        assert_eq!(standalone, remote.shard_fingerprints());

        // Every search was followed by a clean scrape; one more must agree
        // with the mirrors and the drift counter must have stayed at zero.
        let scraped = remote.verify_fingerprints().unwrap();
        assert_eq!(scraped, remote.shard_fingerprints());
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counters.get("serve.drift").copied(), Some(0));

        remote.shutdown_all().unwrap();
        for handle in handles {
            handle.join();
        }
    }
}

/// Inject fingerprint skew into a shard server: the next scrape must
/// surface a typed `FingerprintDrift` naming the shard and bump the
/// `serve.drift` counter — a shard whose recorded chain disagrees with
/// what it served is never trusted silently.
#[test]
fn injected_drift_surfaces_as_typed_error() {
    let templates = gallery(33, 8);
    let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let skew = server.skew_fingerprint();
    let handle = server.spawn();

    let telemetry = Telemetry::enabled();
    let mut remote = Coordinator::connect(
        &[addr],
        IndexConfig::default(),
        Duration::from_secs(5),
        fast_retry(),
    )
    .unwrap()
    .with_telemetry(&telemetry);
    remote.enroll_all(&templates).unwrap();

    let probe = second_capture(&templates[1], 0xD21F7);
    // Clean shard: the scrape after a search passes.
    remote.search_with_budget(&probe, 8).unwrap();
    remote.verify_fingerprints().unwrap();

    // Now skew the shard's reported chain, search again and scrape.
    skew.store(0xBAD_C0DE, std::sync::atomic::Ordering::Relaxed);
    remote.search_with_budget(&probe, 8).unwrap();
    match remote.verify_fingerprints() {
        Err(ShardError::FingerprintDrift {
            shard,
            expected,
            reported,
        }) => {
            assert_eq!(shard, 0, "the drifting shard must be named");
            assert_eq!(reported, expected ^ 0xBAD_C0DE);
        }
        Err(other) => panic!("expected FingerprintDrift, got {other}"),
        Ok(_) => panic!("a drifting shard must fail the scrape"),
    }
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counters.get("serve.drift").copied(), Some(1));

    // Clearing the skew restores agreement: drift is detection, not state
    // corruption — the underlying chains never actually diverged.
    skew.store(0, std::sync::atomic::Ordering::Relaxed);
    remote.verify_fingerprints().unwrap();

    remote.shutdown_all().unwrap();
    handle.join();
}

/// STATS scrapes a shard process's own telemetry and lands it in the
/// coordinator's snapshot under `shard<k>.remote.*`, so a remote run's
/// per-shard work counters are visible from one process.
#[test]
fn stats_scrape_merges_remote_instruments() {
    let templates = gallery(55, 10);
    let server_telemetry = Telemetry::enabled();
    let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0")
        .unwrap()
        .with_telemetry(&server_telemetry);
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();

    let telemetry = Telemetry::enabled();
    let mut remote = Coordinator::connect(
        &[addr],
        IndexConfig::default(),
        Duration::from_secs(5),
        fast_retry(),
    )
    .unwrap()
    .with_telemetry(&telemetry);
    remote.enroll_all(&templates).unwrap();
    let probe = second_capture(&templates[0], 77);
    remote.search_with_budget(&probe, 10).unwrap();

    remote.scrape_stats().unwrap();
    let snapshot = telemetry.snapshot();
    assert_eq!(
        snapshot.gauges.get("shard0.remote.index.enrolled").copied(),
        Some(templates.len() as f64),
        "gauges: {:?}",
        snapshot.gauges.keys().collect::<Vec<_>>()
    );
    // Histograms arrive as .count/.sum gauge pairs; one enroll batch was
    // built server-side.
    assert_eq!(
        snapshot
            .gauges
            .get("shard0.remote.index.build.batch_seconds.count")
            .copied(),
        Some(1.0)
    );
    // The shard metered the search it served: a scrape can answer "is
    // this shard doing its share".
    assert_eq!(snapshot.gauges["shard0.remote.index.searches"], 1.0);
    for work in ["hamming_ops", "bucket_hits", "rerank_comparisons"] {
        assert!(
            snapshot.gauges[&format!("shard0.remote.index.search.{work}")] > 0.0,
            "shard reported no {work}"
        );
    }
    // Re-scraping is idempotent: gauges overwrite, never accumulate.
    remote.scrape_stats().unwrap();
    let again = telemetry.snapshot();
    assert_eq!(
        again.gauges.get("shard0.remote.index.enrolled"),
        snapshot.gauges.get("shard0.remote.index.enrolled")
    );

    remote.shutdown_all().unwrap();
    handle.join();
}

/// Each shard process meters exactly its share: over two shards the
/// scraped per-shard work counters sum to the work counters of an
/// unsharded index serving the same probes, and every shard saw every
/// search.
#[test]
fn remote_shard_work_sums_to_the_unsharded_index() {
    const S: usize = 2;
    let templates = gallery(56, 12);
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..S {
        let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0")
            .unwrap()
            .with_telemetry(&Telemetry::enabled());
        addrs.push(server.local_addr().unwrap());
        handles.push(server.spawn());
    }
    let telemetry = Telemetry::enabled();
    let mut remote = Coordinator::connect(
        &addrs,
        IndexConfig::default(),
        Duration::from_secs(5),
        fast_retry(),
    )
    .unwrap()
    .with_telemetry(&telemetry);
    remote.enroll_all(&templates).unwrap();

    let local_telemetry = Telemetry::enabled();
    let mut unsharded =
        CandidateIndex::new(PairTableMatcher::default()).with_telemetry(&local_telemetry);
    unsharded.enroll_all(&templates);

    // Budget 1 leaves one shard without a re-rank request per search.
    let probes = [(0usize, 1usize), (5, 4), (7, 12)];
    for (pick, budget) in probes {
        let probe = second_capture(&templates[pick], 560 + pick as u64);
        let over_wire = remote.search_with_budget(&probe, budget).unwrap();
        let local = unsharded.search_with_budget(&probe, budget);
        assert_eq!(over_wire.candidates(), local.candidates());
    }

    remote.scrape_stats().unwrap();
    let scraped = telemetry.snapshot().gauges;
    let rollup = local_telemetry.snapshot().counters;
    for work in [
        "hamming_ops",
        "bucket_hits",
        "rerank_comparisons",
        "candidates_pruned",
    ] {
        let remote_sum: f64 = (0..S)
            .map(|k| scraped[&format!("shard{k}.remote.index.search.{work}")])
            .sum();
        assert_eq!(
            remote_sum,
            rollup[&format!("index.search.{work}")] as f64,
            "{work}"
        );
    }
    for k in 0..S {
        assert_eq!(
            scraped[&format!("shard{k}.remote.index.searches")],
            probes.len() as f64
        );
    }

    remote.shutdown_all().unwrap();
    for handle in handles {
        handle.join();
    }
}

/// Wire-level shutdown stops the server's accept loop (run() returns), so
/// the `serve-shard` process exits by itself.
#[test]
fn shutdown_frame_stops_the_server() {
    let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let runner = std::thread::spawn(move || server.run());
    let remote = Coordinator::connect(
        &[addr],
        IndexConfig::default(),
        Duration::from_secs(5),
        fast_retry(),
    )
    .unwrap();
    remote.shutdown_all().unwrap();
    runner.join().unwrap().unwrap();
}

/// The full distributed-tracing round trip over loopback: traced searches
/// propagate wire trace context into each shard server, a TRACE drain
/// brings every remote span home, and the merged snapshot is one
/// connected tree with one lane per shard — while candidate lists stay
/// byte-identical to an untraced unsharded index.
#[test]
fn collected_traces_merge_into_one_connected_tree() {
    let n = 12;
    let templates = gallery(77, n);
    let config = IndexConfig::default();

    let mut unsharded = CandidateIndex::with_config(PairTableMatcher::default(), config);
    unsharded.enroll_all(&templates);

    let shards = 2;
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..shards {
        // Each in-process server keeps its own registry, standing in for a
        // shard process's: the only way its spans reach the coordinator's
        // snapshot is through the wire-level TRACE drain.
        let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0")
            .unwrap()
            .with_telemetry(&Telemetry::enabled());
        addrs.push(server.local_addr().unwrap());
        handles.push(server.spawn());
    }

    let telemetry = Telemetry::enabled();
    let mut remote = Coordinator::connect(&addrs, config, Duration::from_secs(5), fast_retry())
        .unwrap()
        .with_telemetry(&telemetry);
    let probes: Vec<Template> = (0..4)
        .map(|p| second_capture(&templates[p], 77 ^ p as u64))
        .collect();
    let collected;
    {
        // One root span over the whole run so enroll, search and drain
        // rpcs share a single ancestor — the merged tree must have
        // exactly one root.
        let _root = telemetry.span("trace.e2e");
        remote.enroll_all(&templates).unwrap();
        for probe in &probes {
            let got = remote.search(probe).unwrap();
            let want = unsharded.search(probe);
            assert_eq!(got.candidates(), want.candidates());
        }
        collected = remote.collect_traces().unwrap();
    }
    assert!(collected > 0, "the drain must fetch remote spans");

    let merged = remote.merged_trace();
    assert_eq!(merged.validate_tree().unwrap(), 1, "one connected tree");

    // Every remote request span hangs under the serve.rpc span that
    // issued it, and queue-wait children came along.
    let requests: Vec<_> = merged
        .spans
        .iter()
        .filter(|s| s.name == "server.request")
        .collect();
    assert!(!requests.is_empty());
    for request in &requests {
        let parent = request.parent.expect("re-parented under an rpc span");
        let parent_name = &merged
            .spans
            .iter()
            .find(|s| s.id == parent)
            .expect("parent present")
            .name;
        assert_eq!(parent_name, "serve.rpc");
    }
    assert!(merged.spans.iter().any(|s| s.name == "server.queue_wait"));

    // One Chrome lane per process: the coordinator plus each shard.
    let mut pids: Vec<u64> = merged.spans.iter().map(|s| s.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids.len(), shards + 1);

    // A second drain with nothing new is incremental, not a re-send.
    assert_eq!(remote.collect_traces().unwrap(), 0);

    remote.shutdown_all().unwrap();
    for handle in handles {
        handle.join();
    }
}
