//! Where a set of results came from: without this header two results files
//! cannot be told apart, and numbers from different hosts or profiles get
//! compared as if they were the same experiment.

use std::process::Command;

use serde_json::{json, Value};

use crate::workloads::{cores, Sizes};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header of a results file.
pub fn header(seed: u64, seconds: f64, sizes: &Sizes) -> Value {
    json!({
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "rustc": command_line("rustc", &["--version"]),
        "cpu_model": cpu_model(),
        "logical_cores": cores(),
        "seed": seed,
        "run_seconds": seconds,
        "sizes": format!("{sizes:?}"),
    })
}
