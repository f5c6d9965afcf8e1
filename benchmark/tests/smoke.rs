//! Drives all five workloads and both passes at `TINY` sizes, so that the
//! benchmark, its parity checks and its child-process plumbing cannot rot
//! unnoticed between the rare occasions someone runs it at full size.

use std::path::{Path, PathBuf};

use fp_benchmark::ledger::{Outcome, Pass};
use fp_benchmark::workloads::{self, RunArgs, NAMES, TINY};

/// Tests run concurrently: each passes its own output directory.
fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn run(workload: &str, trace: bool, out_dir: &Path) -> Outcome {
    let args = RunArgs {
        seed: 2013,
        seconds: 0.4,
        trace,
        sizes: &TINY,
        // `serve_10k` spawns this executable as its shard servers.
        exe: Path::new(env!("CARGO_BIN_EXE_benchmark")),
        out_dir,
    };
    let outcome = workloads::run(workload, &args).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        outcome.correct(),
        "{workload} (trace {trace}) failed its checks: {:?}, {} of {} operations failed",
        outcome.failures,
        outcome.failed,
        outcome.attempted
    );
    assert!(outcome.attempted >= 1);
    outcome
}

fn note<'a>(outcome: &'a Outcome, key: &str) -> &'a str {
    let found = outcome.notes.iter().find(|(k, _)| k == key);
    &found.unwrap_or_else(|| panic!("no note `{key}`")).1
}

#[test]
fn every_workload_runs_both_passes_correctly() {
    let out_dir = out_dir("smoke-all");
    let mut chains = Vec::new();
    for workload in NAMES {
        let untraced = run(workload, false, &out_dir);
        let result = untraced.result_json(Pass::EndToEnd);
        for def in Pass::EndToEnd.defs() {
            let value = result["metrics"][def.name]["value"].as_f64();
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload} {}: {value:?}",
                def.name
            );
        }
        if workload == "identify_10k" || workload == "serve_10k" {
            chains.push(note(&untraced, "runfp_parity").to_string());
        }

        let traced = run(workload, true, &out_dir);
        let result = traced.result_json(Pass::PerLayer);
        let measured = Pass::PerLayer
            .defs()
            .iter()
            .filter(|def| result["metrics"][def.name]["value"].as_f64() != Some(0.0))
            .count();
        assert!(
            measured >= 5,
            "{workload} measured only {measured} per-layer metrics"
        );
        let trace_file = workloads::trace_path(&out_dir, workload);
        let text = std::fs::read_to_string(&trace_file).expect("traced pass writes a Chrome trace");
        let trace: serde_json::Value = serde_json::from_str(&text).expect("the trace is JSON");
        assert!(!trace["traceEvents"]
            .as_array()
            .expect("traceEvents")
            .is_empty());
    }
    // Same gallery, same probes, in process and over the wire: same bits.
    assert_eq!(chains.len(), 2);
    assert_eq!(chains[0], chains[1]);
}

/// A workload that never calls a layer must report that layer as zero:
/// this is how the ledger shows which workload bypasses which layer.
#[test]
fn study_matrix_touches_no_index_serve_or_store_code() {
    let result = run("study_matrix", true, &out_dir("smoke-bypass")).result_json(Pass::PerLayer);
    for def in Pass::PerLayer.defs() {
        let layer = def.name.split('.').next().expect("layer prefix");
        if ["index", "serve", "store"].contains(&layer) {
            assert_eq!(
                result["metrics"][def.name]["value"].as_f64(),
                Some(0.0),
                "{}",
                def.name
            );
        }
    }
}
