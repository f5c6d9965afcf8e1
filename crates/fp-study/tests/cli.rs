//! Smoke tests of the `study` binary: argument handling, report output,
//! JSON export, and the `verify` subcommand.

use std::process::Command;

fn study() -> Command {
    Command::new(env!("CARGO_BIN_EXE_study"))
}

#[test]
fn devices_prints_table1() {
    let out = study().arg("devices").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Cross Match Guardian R2"));
    assert!(
        text.contains("40.6x38.1"),
        "Seek II window missing:\n{text}"
    );
    assert!(text.contains("ink ten-print card"));
}

#[test]
fn single_experiment_runs_at_tiny_scale() {
    let out = study()
        .args(["table3", "--subjects", "6", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DMG"));
    assert!(text.contains("24")); // 6 subjects x 4 devices
}

#[test]
fn json_export_is_valid_and_complete() {
    let dir = std::env::temp_dir().join(format!("fp-study-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("out.json");
    let out = study()
        .args([
            "fig1",
            "--subjects",
            "8",
            "--json",
            path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let raw = std::fs::read_to_string(&path).expect("json written");
    let parsed: serde_json::Value = serde_json::from_str(&raw).expect("valid json");
    assert_eq!(parsed["config"]["subjects"], 8);
    assert_eq!(parsed["reports"][0]["id"], "fig1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_experiment_fails_with_hint() {
    let out = study().arg("table99").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"));
    assert!(err.contains("table5"));
}

#[test]
fn unknown_flag_fails_with_usage() {
    // A flag nobody knows, and a real flag the subcommand would ignore:
    // both are usage errors, and the second names the subcommand.
    for (args, hint) in [
        (&["all", "--bogus"][..], "unknown flag: --bogus"),
        (
            &["devices", "--port", "9"][..],
            "--port is not a flag of 'devices'",
        ),
        (
            &["load", "--out", "x.json"][..],
            "--out is not a flag of 'load'",
        ),
        // No default scratch directory: two concurrent runs would share it.
        (
            &["check-store", "--subjects", "2"][..],
            "check-store needs --gallery-dir DIR",
        ),
    ] {
        let out = study().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(hint), "{args:?}: {err}");
        assert!(err.contains("usage"), "{args:?}: {err}");
    }
}

#[test]
fn gate_runs_the_telemetry_row_end_to_end() {
    let dir = std::env::temp_dir().join(format!("fp-study-gaterun-{}", std::process::id()));
    let out = study()
        .args([
            "gate",
            "telemetry",
            "--out",
            dir.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gate telemetry ok in"), "{text}");
    for artifact in [
        "telemetry.json",
        "telemetry-metrics.json",
        "telemetry-trace.json",
        "telemetry-events.jsonl",
    ] {
        assert!(dir.join(artifact).exists(), "missing artifact {artifact}");
    }

    // The full run did real comparison and 1:N index work and recorded
    // cell spans and stage timings.
    let results: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("telemetry.json")).expect("results readable"),
    )
    .expect("valid json");
    let snap = &results["telemetry"];
    for key in ["scores.comparisons.genuine", "index.searches"] {
        assert!(snap["counters"][key].as_u64().unwrap() > 0, "{key}");
    }
    let durations = snap["durations"].as_object().expect("durations");
    assert!(durations.keys().any(|k| k.starts_with("scores.cell.")));
    assert!(!snap["stages"].as_array().unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_rejects_an_unknown_row_by_naming_the_known_ones() {
    let out = study()
        .args(["gate", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown gate 'nope'"), "{err}");
    assert!(
        err.contains("(known: telemetry, ladder, load, dist-trace, kernel, store)"),
        "{err}"
    );
}

#[test]
fn verify_subcommand_reports_findings() {
    // Tiny cohorts are noisy, so only require that the subcommand runs and
    // emits the findings report — pass/fail is checked at scale elsewhere.
    let out = study()
        .args(["verify", "--subjects", "10", "--seed", "1"])
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("same-device-genuine-higher"),
        "missing findings:\n{text}"
    );
    assert!(text.contains("kendall-structure"));
}

#[test]
fn json_export_includes_telemetry_section() {
    let dir = std::env::temp_dir().join(format!("fp-study-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("out.json");
    let metrics_path = dir.join("metrics.json");
    let out = study()
        .args([
            "fig1",
            "--subjects",
            "6",
            "--json",
            json_path.to_str().expect("utf-8 path"),
            "--metrics",
            metrics_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json_path).expect("json written"))
            .expect("valid json");
    let telemetry = &parsed["telemetry"];
    assert!(
        telemetry["counters"]["scores.comparisons.genuine"]
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(
        telemetry["durations"]["scores.cell.g0p0"]["count"]
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(!telemetry["stages"].as_array().unwrap().is_empty());

    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).expect("metrics written"))
            .expect("valid json");
    assert_eq!(metrics["counters"], telemetry["counters"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_topic_documents_the_instruments() {
    let out = study().arg("metrics").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("telemetry instruments"));
    assert!(text.contains("scores.comparisons.genuine"));
    assert!(text.contains("--metrics"));
}

#[test]
fn trace_flag_writes_chrome_trace_and_event_log() {
    let dir = std::env::temp_dir().join(format!("fp-study-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("trace.json");
    let events_path = dir.join("events.jsonl");
    // `--all` with no positional experiment must run every experiment.
    let out = study()
        .args([
            "--all",
            "--subjects",
            "4",
            "--trace",
            trace_path.to_str().expect("utf-8 path"),
            "--events",
            events_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).expect("trace written"))
            .expect("valid chrome trace json");
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"] == "X")
        .map(|e| e["name"].as_str().unwrap())
        .collect();
    // One span per experiment (the library's fifteen, then the binary's
    // ladder) and per device-pair cell.
    for id in fp_study::experiments::ALL_IDS
        .into_iter()
        .chain(["ext-scaling"])
    {
        let name = format!("experiment.{id}");
        assert!(span_names.contains(&name.as_str()), "missing {name}");
    }
    for g in 0..5 {
        for p in 0..5 {
            let name = format!("scores.cell.g{g}p{p}");
            assert!(span_names.contains(&name.as_str()), "missing {name}");
        }
    }
    assert_eq!(trace["otherData"]["dropped_spans"], 0);

    // The event log is one valid JSON object per line, and the progress
    // narration that used to be bare eprintln is captured in it.
    let jsonl = std::fs::read_to_string(&events_path).expect("events written");
    let mut messages = Vec::new();
    for line in jsonl.lines() {
        let event: serde_json::Value = serde_json::from_str(line).expect("valid json line");
        messages.push(event["message"].as_str().unwrap().to_string());
    }
    assert!(messages.iter().any(|m| m == "generating study data"));
    assert!(messages.iter().any(|m| m == "score matrices ready"));
    std::fs::remove_dir_all(&dir).ok();
}
