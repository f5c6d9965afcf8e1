//! Compares two `BENCH_*.json` snapshots and gates on regressions.
//!
//! ```text
//! bench-diff BASELINE.json NEW.json
//! ```
//!
//! Exits non-zero when a baseline bench is missing from the new snapshot
//! or, the two snapshots having been measured on the same host, when a
//! bench is slower than the fail threshold (see [`fp_bench::diff`]).

use std::process::ExitCode;

use fp_bench::diff::{diff, render, BenchSnapshot};

const USAGE: &str = "usage: bench-diff BASELINE.json NEW.json";

fn load(path: &str) -> Result<BenchSnapshot, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchSnapshot::from_json(&raw).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, new_path] = paths.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (baseline, new) = match (load(baseline_path), load(new_path)) {
        (Ok(baseline), Ok(new)) => (baseline, new),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let report = diff(&baseline, &new);
    print!("{}", render(&report));
    for name in &report.removed {
        eprintln!("bench gate failed: baseline bench `{name}` is missing from {new_path}");
    }
    if report.regressions() > 0 {
        eprintln!(
            "bench gate failed: {} regression(s) beyond the fail threshold",
            report.regressions()
        );
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
