//! The micro suite's sampler, and the writer of the snapshot
//! [`BenchSnapshot::from_json`] reads.
//!
//! [`run`] parses the bench binary's command line, runs the suite
//! `ROUNDS` times over, prints one line per bench and, under
//! `--save PATH`, writes the [`BenchSnapshot`]. A bench asked for `n`
//! samples takes `ceil(n / ROUNDS)` of them in every round, so its samples
//! are spread over the run instead of sitting in one half-second: a shared
//! host's slow phases last about that long, and a median (and a p95 noise
//! estimate) taken inside one says nothing about the next run. A sample
//! times as many iterations as fill about 20 ms. Positional arguments
//! filter benches by substring; `--bench`, which `cargo bench` passes, and
//! any other flag are ignored.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::diff::{BenchEntry, BenchSnapshot};

/// How many times [`run`] runs the suite.
const ROUNDS: usize = 5;

/// Samples per bench unless its group sets another.
const SAMPLE_SIZE: usize = 20;

/// The time one sample's iterations aim to fill.
const SAMPLE_TIME: Duration = Duration::from_millis(20);

const USAGE: &str = "usage: micro [--save PATH] [FILTER...]";

/// One run of the suite: the command line's settings and every bench's
/// samples so far, all rounds together.
pub struct Harness {
    filters: Vec<String>,
    save: Option<String>,
    benches: Vec<Samples>,
}

/// One bench's samples.
struct Samples {
    bench: String,
    /// Nanoseconds per iteration, one entry per timed sample.
    ns: Vec<f64>,
    /// Iterations per timed sample in the latest round.
    iters: u64,
}

impl Samples {
    fn entry(&self) -> BenchEntry {
        let mut sorted = self.ns.clone();
        sorted.sort_by(f64::total_cmp);
        // Nearest-rank p95: the sample at ceil(0.95 * n) - 1.
        let rank = ((sorted.len() as f64 * 0.95).ceil() as usize).max(1) - 1;
        BenchEntry {
            bench: self.bench.clone(),
            median_ns: sorted[sorted.len() / 2],
            p95_ns: sorted[rank.min(sorted.len() - 1)],
            iters: self.iters,
        }
    }
}

impl Harness {
    /// Reads the bench binary's arguments (without the program name):
    /// `--save PATH` and substring filters. `--save` without a path is a
    /// usage error.
    fn from_args(args: impl IntoIterator<Item = String>) -> Result<Harness, String> {
        let mut save = None;
        let mut filters = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--save" => match args.next() {
                    Some(path) if !path.starts_with('-') => save = Some(path),
                    _ => return Err(format!("--save needs a PATH\n{USAGE}")),
                },
                flag if flag.starts_with('-') => {}
                filter => filters.push(filter.to_string()),
            }
        }
        Ok(Harness {
            filters,
            save,
            benches: Vec::new(),
        })
    }

    /// Starts a group of benches named `name/<bench>`, 20 samples each
    /// unless [`Group::sample_size`] sets another count.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            sample_size: SAMPLE_SIZE,
        }
    }

    /// Every bench measured so far, stamped with the instrument that
    /// measured it.
    fn snapshot(&self) -> BenchSnapshot {
        BenchSnapshot {
            version: 1,
            host: host(),
            commit: command_line("git", &["describe", "--always", "--dirty"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            rustc: command_line("rustc", &["--version"]),
            benches: self.benches.iter().map(Samples::entry).collect(),
        }
    }

    /// Prints one line per bench and writes the snapshot to the `--save`
    /// path, if any; fails when the snapshot cannot be written.
    fn finish(&self) -> ExitCode {
        let snapshot = self.snapshot();
        for entry in &snapshot.benches {
            println!("{:<60} {}", entry.bench, format_ns(entry.median_ns));
        }
        let Some(path) = &self.save else {
            return ExitCode::SUCCESS;
        };
        match std::fs::write(path, snapshot.to_json()) {
            Ok(()) => {
                println!("saved {} bench records to {path}", snapshot.benches.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write bench snapshot {path}: {e}");
                ExitCode::FAILURE
            }
        }
    }

    fn run_bench(&mut self, name: &str, sample_size: usize, f: impl FnOnce(&mut Bencher)) {
        if !self.filters.is_empty() && !self.filters.iter().any(|pat| name.contains(pat.as_str())) {
            return;
        }
        let mut bencher = Bencher {
            sample_size: sample_size.div_ceil(ROUNDS),
            samples: Vec::new(),
            iters: 0,
        };
        f(&mut bencher);
        if bencher.samples.is_empty() {
            println!("{name:<60} (no measurement: Bencher::iter not called)");
            return;
        }
        match self.benches.iter_mut().find(|s| s.bench == name) {
            Some(seen) => {
                seen.ns.append(&mut bencher.samples);
                seen.iters = bencher.iters;
            }
            None => self.benches.push(Samples {
                bench: name.to_string(),
                ns: bencher.samples,
                iters: bencher.iters,
            }),
        }
    }
}

/// Runs `suite` `ROUNDS` times over under the process's arguments, then
/// prints every bench and writes the snapshot `--save` asks for.
pub fn run(suite: &[fn(&mut Harness)]) -> ExitCode {
    let mut harness = match Harness::from_args(std::env::args().skip(1)) {
        Ok(harness) => harness,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for _ in 0..ROUNDS {
        for benches in suite {
            benches(&mut harness);
        }
    }
    harness.finish()
}

/// Related benches sharing a name prefix and a sample size.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    sample_size: usize,
}

impl Group<'_> {
    /// Sets how many timed samples each bench of the group collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs the bench `<group>/<name>`, unless the filters exclude it.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let name = format!("{}/{name}", self.name);
        self.harness.run_bench(&name, self.sample_size, f);
        self
    }
}

/// Passed to each bench closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    /// Samples this round.
    sample_size: usize,
    /// Nanoseconds per iteration of each timed sample, filled by `iter`.
    samples: Vec<f64>,
    /// Iterations per timed sample, filled by `iter`.
    iters: u64,
}

impl Bencher {
    /// Times `f`, storing the time per call of every sample.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Warm up and estimate the cost with a single call.
        let warm_start = Instant::now();
        black_box(f());
        let estimate = warm_start.elapsed().max(Duration::from_nanos(1));
        let iters = (SAMPLE_TIME.as_nanos() / estimate.as_nanos()).clamp(1, 1_000_000) as u64;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples
                .push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.iters = iters;
    }
}

/// The measuring instrument: `<CPU model> x <logical cores>`, each half
/// `unknown` when it cannot be read, and plain `"unknown"` when neither can.
/// (`HOSTNAME` is no use here: shells set it without exporting it.)
fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .filter(|model| !model.is_empty());
    let cores = std::thread::available_parallelism()
        .ok()
        .map(|n| n.to_string());
    if model.is_none() && cores.is_none() {
        return "unknown".to_string();
    }
    format!(
        "{} x {}",
        model.as_deref().unwrap_or("unknown"),
        cores.as_deref().unwrap_or("unknown")
    )
}

/// First line of a command's standard output; `"unknown"` when it cannot
/// be run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:>10.3} s/iter", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:>10.3} ms/iter", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:>10.3} µs/iter", ns / 1e3)
    } else {
        format!("{ns:>10.1} ns/iter")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(args: &[&str]) -> Result<Harness, String> {
        Harness::from_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn bench_function_runs_and_measures() {
        let mut h = harness(&[]).unwrap();
        let mut calls = 0u64;
        h.benchmark_group("g")
            .sample_size(3)
            .bench_function("count", |b| {
                b.iter(|| {
                    calls += 1;
                    black_box(calls)
                })
            });
        assert!(calls > 0);
        let entry = &h.snapshot().benches[0];
        assert_eq!(entry.bench, "g/count");
        assert!(entry.median_ns > 0.0 && entry.p95_ns >= entry.median_ns);
        assert!(entry.iters >= 1);
    }

    #[test]
    fn saved_records_read_back_to_three_decimals() {
        let path = std::env::temp_dir().join(format!("fp-bench-roundtrip-{}", std::process::id()));
        let mut h = harness(&["--bench", "--save", path.to_str().unwrap()]).unwrap();
        let names = ["plain", "q\"uo\\te", "tab\tnl\ncr\r\u{1}bell\u{7}"];
        for _ in 0..2 {
            let mut group = h.benchmark_group("round\"trip");
            for name in names {
                group.bench_function(name, |b| b.iter(|| black_box(name.len())));
            }
        }
        assert_eq!(h.finish(), ExitCode::SUCCESS);
        let raw = std::fs::read_to_string(&path).expect("snapshot saved");
        std::fs::remove_file(&path).ok();
        let back = BenchSnapshot::from_json(&raw).expect("the reader takes what the writer wrote");
        let sent = h.snapshot();
        assert_eq!(
            (&back.host, &back.commit, &back.profile, &back.rustc),
            (&sent.host, &sent.commit, &sent.profile, &sent.rustc)
        );
        assert_eq!(back.benches.len(), names.len());
        for (got, want) in back.benches.iter().zip(&sent.benches) {
            assert_eq!(got.bench, want.bench);
            assert_eq!(got.iters, want.iters);
            assert!(
                (got.median_ns - want.median_ns).abs() <= 5e-4,
                "{got:?} {want:?}"
            );
            assert!((got.p95_ns - want.p95_ns).abs() <= 5e-4, "{got:?} {want:?}");
        }
        assert_eq!(
            back.benches[2].bench,
            "round\"trip/tab\tnl\ncr\r\u{1}bell\u{7}"
        );
    }

    #[test]
    fn filters_pick_benches_by_substring() {
        let mut h = harness(&["--bench", "keep"]).unwrap();
        let mut group = h.benchmark_group("g");
        group.bench_function("keep_me", |b| b.iter(|| 1));
        group.bench_function("skip_me", |b| b.iter(|| 2));
        let names: Vec<_> = h.snapshot().benches.into_iter().map(|e| e.bench).collect();
        assert_eq!(names, ["g/keep_me"]);
    }

    #[test]
    fn save_without_a_path_is_a_usage_error() {
        for args in [&["--save"][..], &["--save", "--bench"], &["x", "--save"]] {
            let err = harness(args).err().expect("usage error");
            assert!(err.contains("--save needs a PATH"), "{args:?}: {err}");
        }
        assert_eq!(
            harness(&["--save", "p"]).unwrap().save.as_deref(),
            Some("p")
        );
    }
}
