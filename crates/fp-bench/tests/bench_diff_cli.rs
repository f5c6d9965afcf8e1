//! Process-level tests of the `bench-diff` gate binary: exit codes and
//! output wording for regressions, missing baseline benches, and snapshots
//! measured on different hosts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const HOST: &str = "Test CPU @ 2.10GHz x 2";
const OTHER_HOST: &str = "Other CPU @ 3.00GHz x 8";

fn snapshot_json(host: &str, entries: &[(&str, f64, f64)]) -> String {
    let benches: Vec<String> = entries
        .iter()
        .map(|(name, median, p95)| {
            format!(
                r#"{{"bench": "{name}", "median_ns": {median}, "p95_ns": {p95}, "iters": 100}}"#
            )
        })
        .collect();
    format!(
        r#"{{"version": 1, "host": "{host}", "commit": "abc1234", "profile": "release",
            "rustc": "rustc 1.95.0", "benches": [{}]}}"#,
        benches.join(", ")
    )
}

/// A scratch directory of snapshots, removed on drop.
struct Snapshots(PathBuf);

impl Snapshots {
    fn new(tag: &str) -> Snapshots {
        let dir = std::env::temp_dir().join(format!("fp-bench-diff-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        Snapshots(dir)
    }

    fn write(&self, name: &str, host: &str, entries: &[(&str, f64, f64)]) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, snapshot_json(host, entries)).expect("snapshot written");
        path
    }
}

impl Drop for Snapshots {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run_diff(baseline: &Path, new: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .arg(baseline)
        .arg(new)
        .output()
        .expect("bench-diff runs")
}

const BASELINE: [(&str, f64, f64); 2] = [
    ("wire_x/encode", 1000.0, 1050.0),
    ("span/enabled", 300.0, 310.0),
];
/// `wire_x/encode` twice as slow.
const SLOW: [(&str, f64, f64); 2] = [
    ("wire_x/encode", 2000.0, 2100.0),
    ("span/enabled", 305.0, 315.0),
];
/// `wire_x/encode` gone — the bench was deleted, or never ran.
const PARTIAL: [(&str, f64, f64); 1] = [("span/enabled", 305.0, 315.0)];

#[test]
fn same_host_regression_fails_and_names_the_row() {
    let dir = Snapshots::new("same");
    let baseline = dir.write("base.json", HOST, &BASELINE);

    let out = run_diff(&baseline, &dir.write("slow.json", HOST, &SLOW));
    assert!(!out.status.success(), "a 2x slower row must fail the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.contains("REGRESSED"))
        .expect("a row is marked");
    assert!(row.starts_with("wire_x/encode"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 regression"));

    let full = [
        ("wire_x/encode", 1005.0, 1055.0),
        ("span/enabled", 305.0, 315.0),
    ];
    let out = run_diff(&baseline, &dir.write("full.json", HOST, &full));
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn different_hosts_list_the_slowdown_without_judging_it() {
    let dir = Snapshots::new("cross");
    let baseline = dir.write("base.json", HOST, &BASELINE);

    let out = run_diff(&baseline, &dir.write("slow.json", OTHER_HOST, &SLOW));
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("measured on a different host"), "{stdout}");
    assert!(
        stdout.contains(HOST) && stdout.contains(OTHER_HOST),
        "{stdout}"
    );
    assert!(
        stdout.contains("+100.0%"),
        "the row is still shown: {stdout}"
    );
    assert!(!stdout.contains("REGRESSED"), "{stdout}");
}

#[test]
fn missing_baseline_bench_fails_on_any_host_and_is_named() {
    let dir = Snapshots::new("missing");
    let baseline = dir.write("base.json", HOST, &BASELINE);
    for host in [HOST, OTHER_HOST] {
        let out = run_diff(&baseline, &dir.write("partial.json", host, &PARTIAL));
        assert!(
            !out.status.success(),
            "{host}: a missing baseline bench must fail"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("`wire_x/encode` is missing"), "{stderr}");
    }
}

#[test]
fn regressions_and_missing_benches_both_reported_in_one_run() {
    let dir = Snapshots::new("both");
    let baseline = dir.write(
        "base.json",
        HOST,
        &[("a/fast", 1000.0, 1050.0), ("a/gone", 500.0, 510.0)],
    );
    let new = dir.write("new.json", HOST, &[("a/fast", 2000.0, 2100.0)]);

    let out = run_diff(&baseline, &new);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("a/gone"), "{stderr}");
    assert!(stderr.contains("regression"), "{stderr}");
}

#[test]
fn flags_are_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args(["a.json", "b.json", "--fail-pct", "50"])
        .output()
        .expect("bench-diff runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage: bench-diff BASELINE.json NEW.json")
    );
}
