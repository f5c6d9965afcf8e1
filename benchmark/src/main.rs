//! Command line of the benchmark. See README.md in this directory.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all [--seed <n>] [--seconds <s>] [--out <file>]
//! benchmark agree <a.json> <b.json>
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use fp_benchmark::ledger::Pass;
use fp_benchmark::workloads::{self, serve, RunArgs, FULL, NAMES, RUN_SECONDS};
use fp_benchmark::{agree, provenance};
use serde_json::{json, Value};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark all [--seed <n>] [--seconds <s>] [--out <file>]
  benchmark agree <a.json> <b.json>
workloads: study_matrix identify_10k identify_cohort serve_10k store_lifecycle";

/// Seed of `all` when none is given (the paper's year, as elsewhere in the repo).
const DEFAULT_SEED: u64 = 2013;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(flags.seconds.is_finite() && flags.seconds > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => flags.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(flags)
}

/// `<target dir>/benchmark`: scratch stores, traces and results live beside
/// the build outputs, which `.gitignore` already covers.
fn out_dir(exe: &Path) -> Result<PathBuf, String> {
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("benchmark"))
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Numbers from an unoptimised build describe nothing that ships.
fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a build with debug assertions: use --release".to_string());
    }
    Ok(())
}

/// Runs one pass of one workload and prints its metrics, then the result
/// object as the last line. Returns whether the outputs were correct.
fn single(flags: &Flags, exe: &Path) -> Result<bool, String> {
    refuse_debug_build()?;
    let workload = flags.workload.as_deref().ok_or(USAGE)?;
    let out_dir = out_dir(exe)?;
    let args = RunArgs {
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        sizes: &FULL,
        exe,
        out_dir: &out_dir,
    };
    let outcome = workloads::run(workload, &args)?;
    let (title, pass) = if flags.trace {
        ("traced pass, per-layer metrics", Pass::PerLayer)
    } else {
        ("untraced pass, end-to-end metrics", Pass::EndToEnd)
    };
    println!(
        "{workload}: {title} (seed {}, {} s measured)",
        flags.seed, flags.seconds
    );
    print!("{}", outcome.render(pass));
    if flags.trace {
        println!(
            "  # trace = {}",
            workloads::trace_path(&out_dir, workload).display()
        );
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.result_json(pass)).map_err(|e| e.to_string())?
    );
    Ok(outcome.correct())
}

/// Runs one pass in a child process of this executable; returns its result
/// object and the `# key = value` notes it printed.
fn child_pass(
    exe: &Path,
    flags: &Flags,
    workload: &str,
    trace: bool,
) -> Result<(Value, Value), String> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing ({})", output.status))?;
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let mut notes = serde_json::Map::new();
    for line in stdout.lines() {
        if let Some((key, value)) = line
            .trim()
            .strip_prefix("# ")
            .and_then(|l| l.split_once(" = "))
        {
            notes.insert(key.to_string(), json!(value));
        }
    }
    Ok((result, Value::Object(notes)))
}

/// Every workload, untraced then traced, each in its own child process; one
/// results file with a provenance header. Returns whether all were correct.
fn all(flags: &Flags, exe: &Path) -> Result<bool, String> {
    refuse_debug_build()?;
    let mut workloads = serde_json::Map::new();
    let mut ok = true;
    for workload in NAMES {
        let (end_to_end, notes) = child_pass(exe, flags, workload, false)?;
        let (per_layer, traced_notes) = child_pass(exe, flags, workload, true)?;
        let mut metrics = serde_json::Map::new();
        for pass in [&end_to_end, &per_layer] {
            for (name, value) in pass["metrics"]
                .as_object()
                .ok_or("result without metrics")?
                .iter()
            {
                metrics.insert(name.clone(), value.clone());
            }
        }
        let correct = end_to_end["correct"] == true && per_layer["correct"] == true;
        ok &= correct;
        workloads.insert(
            workload.to_string(),
            json!({
                "correct": correct,
                "attempted": end_to_end["attempted"],
                "failed": end_to_end["failed"],
                "attempted_traced": per_layer["attempted"],
                "failed_traced": per_layer["failed"],
                "metrics": Value::Object(metrics),
                "notes": notes,
                "notes_traced": traced_notes,
            }),
        );
    }
    // Same gallery, same probes, other transport: same bits.
    let chain = |workload: &str| {
        workloads
            .get(workload)
            .map(|w| w["notes"]["runfp_parity"].clone())
    };
    if chain("identify_10k") != chain("serve_10k") {
        eprintln!(
            "FAILED CHECK: RUNFP chain of serve_10k {:?} differs from identify_10k's {:?}",
            chain("serve_10k"),
            chain("identify_10k")
        );
        ok = false;
    }
    let results = json!({
        "provenance": provenance::header(flags.seed, flags.seconds, &FULL),
        "workloads": Value::Object(workloads),
    });
    let path = match &flags.out {
        Some(path) => path.clone(),
        None => out_dir(exe)?.join("results.json"),
    };
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    match args.first().map(String::as_str) {
        Some(serve::SHARD_CHILD_ARG) => serve::shard_child().map(|()| true),
        Some("agree") => match args {
            [_, a, b] => agree::run(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("all") => all(&parse_flags(&args[1..])?, &exe),
        Some(_) => single(&parse_flags(args)?, &exe),
        None => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
