//! Process-level tests of the cross-process 1:N stack: real `study
//! serve-shard` child processes over loopback, coordinator parity against
//! the in-process index, fault injection by killing a live child, and the
//! `ext-scaling --remote-shards`, `load`, `check-dist-trace` and
//! `check-store` producers end to end at a tiny scale.

use std::path::Path;
use std::process::Command;
use std::time::Duration;

use fp_core::geometry::{Direction, Point};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{CandidateIndex, IndexConfig, ShardError};
use fp_match::PairTableMatcher;
use fp_serve::proc::spawn_shard;
use fp_serve::{Coordinator, RetryPolicy};
use rand::Rng;

fn study_exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_study"))
}

fn synthetic_template(seed: u64, n: usize) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0xC1]).rng();
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

fn gallery(seed: u64, n: usize) -> Vec<Template> {
    (0..n)
        .map(|i| synthetic_template(seed * 1_000 + i as u64, 16 + (i * 7) % 16))
        .collect()
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        seed: 11,
    }
}

fn spawn_children(s: usize) -> (Vec<fp_serve::proc::ShardChild>, Vec<std::net::SocketAddr>) {
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..s {
        let child = spawn_shard(study_exe(), &["serve-shard"]).expect("serve-shard spawns");
        addrs.push(child.addr);
        children.push(child);
    }
    (children, addrs)
}

#[test]
fn real_child_processes_reach_parity_with_in_process_index() {
    let pool = gallery(41, 13);
    let config = IndexConfig::default();

    let mut unsharded = CandidateIndex::with_config(PairTableMatcher::default(), config);
    unsharded.enroll_all(&pool);

    let (mut children, addrs) = spawn_children(2);
    let mut remote = Coordinator::connect(&addrs, config, Duration::from_secs(10), fast_retry())
        .expect("coordinator connects");
    remote.enroll_all(&pool).expect("remote enroll");
    assert_eq!(remote.len(), pool.len());

    for probe_idx in [0usize, 4, 9] {
        let probe = synthetic_template(41 * 1_000 + probe_idx as u64, 20);
        let local = unsharded.search(&probe);
        let over_wire = remote.search(&probe).expect("remote search");
        assert_eq!(
            over_wire.candidates(),
            local.candidates(),
            "probe {probe_idx}: wire results must be byte-identical"
        );
        assert_eq!(over_wire.gallery_len(), local.gallery_len());
    }

    remote.shutdown_all().expect("clean shutdown");
    for child in &mut children {
        assert!(
            child.wait_exit(Duration::from_secs(10)),
            "child must exit after wire shutdown"
        );
    }
}

#[test]
fn killed_child_process_fails_loudly_after_retries() {
    let pool = gallery(43, 9);
    let (mut children, addrs) = spawn_children(2);
    let mut remote = Coordinator::connect(
        &addrs,
        IndexConfig::default(),
        Duration::from_secs(10),
        fast_retry(),
    )
    .expect("coordinator connects");
    remote.enroll_all(&pool).expect("remote enroll");

    let probe = synthetic_template(43_500, 18);
    remote
        .search(&probe)
        .expect("search works while both shards live");

    children[1].kill();
    match remote.search(&probe) {
        Err(ShardError::Unavailable { shard, detail }) => {
            assert_eq!(shard, 1, "the killed shard must be named");
            assert!(
                detail.contains("attempts"),
                "error must mention the exhausted retry budget: {detail}"
            );
        }
        Err(other) => panic!("expected Unavailable, got {other}"),
        Ok(_) => panic!("search against a killed shard must not return results"),
    }
}

#[test]
fn ext_scaling_remote_rung_passes_its_own_verdict() {
    let dir = std::env::temp_dir().join(format!("fp-study-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("results.json");

    let out = Command::new(study_exe())
        .args([
            "ext-scaling",
            "--subjects",
            "8",
            "--seed",
            "5",
            "--remote-shards",
            "2",
            "--json",
            json_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("cross-process rung"),
        "report must narrate the remote rung:\n{text}"
    );

    let raw = std::fs::read_to_string(&json_path).expect("json written");
    let parsed: serde_json::Value = serde_json::from_str(&raw).expect("valid json");
    let values = &parsed["reports"][0]["values"];
    assert_eq!(values["remote_shards"], 2);
    assert!(values["error"].is_null(), "{}", values["error"]);
    let rows = values["remote_rows"].as_array().expect("remote_rows array");
    assert_eq!(rows.len(), 1);
    assert!(rows[0]["parity_checked"].as_u64().unwrap() > 0);

    // The manifest subcommand prints every rung's chain and saves it.
    let manifest_path = dir.join("manifest.json");
    let out = Command::new(study_exe())
        .args([
            "fingerprint",
            json_path.to_str().expect("utf-8 path"),
            "--json",
            manifest_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("run-fingerprint manifest"), "{text}");
    assert!(text.contains("cross-process"), "{text}");
    let manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest_path).expect("manifest written"))
            .expect("valid json");
    let rungs = manifest["rungs"].as_array().expect("rungs array");
    assert!(rungs.iter().any(|r| r["kind"] == "remote"));
    assert!(rungs.iter().all(|r| r["runfp"].as_str().is_some()));

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `study <args> --json <tmp>` and returns the first report's values.
/// The producer must exit 0: only the `study` binary can spawn its own
/// `serve-shard` children, so here a spawn failure is a test failure.
fn first_report_values(tag: &str, args: &[&str]) -> serde_json::Value {
    let dir = std::env::temp_dir().join(format!("fp-study-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("report.json");
    let out = Command::new(study_exe())
        .args(args)
        .args(["--json", json_path.to_str().expect("utf-8 path")])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let raw = std::fs::read_to_string(&json_path).expect("json written");
    std::fs::remove_dir_all(&dir).ok();
    let parsed: serde_json::Value = serde_json::from_str(&raw).expect("valid json");
    parsed["reports"][0]["values"].clone()
}

#[test]
fn tiny_load_run_reaches_full_parity() {
    let values = first_report_values("load", &["load", "--subjects", "16"]);
    assert!(values["error"].is_null(), "{}", values["error"]);
    assert!(values["parity_checked"].as_u64().unwrap() > 0);
    assert_eq!(values["parity_agreed"], values["parity_checked"]);
    assert_eq!(values["runfp_remote"], values["runfp_baseline"]);
    assert!(values["pipeline"]["peak_in_flight"].as_u64().unwrap() >= 4);
}

#[test]
fn tiny_dist_trace_gate_holds_every_check() {
    let values = first_report_values(
        "dist-trace",
        &["check-dist-trace", "--subjects", "8", "--delay-ms", "5"],
    );
    assert!(values["error"].is_null(), "{}", values["error"]);
    let checks = values["checks"].as_array().expect("checks array");
    assert!(!checks.is_empty());
    for check in checks {
        assert_eq!(check["ok"], true, "{check}");
    }
}

/// Serve-from-store spawns a `serve-shard --gallery-dir` child of the
/// binary, so the store producer is exercised here, not in a unit test.
#[test]
fn tiny_store_gate_passes_on_the_default_cohort() {
    let gallery = std::env::temp_dir().join(format!("fp-study-store-{}", std::process::id()));
    let values = first_report_values(
        "store",
        &[
            "check-store",
            "--subjects",
            "6",
            "--gallery-dir",
            gallery.to_str().expect("utf-8 path"),
        ],
    );
    std::fs::remove_dir_all(&gallery).ok();
    assert!(values["error"].is_null(), "{}", values["error"]);
    assert!(values["open_ms"].as_f64().unwrap() > 0.0);
    assert_eq!(values["compact"]["segments_after"], 1);
}
