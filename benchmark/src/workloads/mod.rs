//! The five workloads and what they share: sizes, run arguments, repeated
//! set-up, and the closed-loop timing section.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::ledger::Outcome;
use crate::stats;

pub mod identify;
pub mod serve;
pub mod store;
pub mod study;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "study_matrix",
    "identify_10k",
    "identify_cohort",
    "serve_10k",
    "store_lifecycle",
];

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 10;

/// Input sizes. [`FULL`] is what the benchmark measures; [`TINY`] exists so
/// the smoke test can drive every workload and both passes in seconds.
/// Deliberately not a command-line option: two runs of the benchmark are
/// comparable only at the same sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Cohort of `study_matrix` and `identify_cohort` (the paper's is 494).
    pub subjects: usize,
    /// Impostor pairs per (gallery device, probe device) cell and round.
    pub impostors_per_cell: usize,
    /// Subjects whose session-1 captures probe `identify_cohort`.
    pub cohort_probe_subjects: usize,
    /// Gallery entries of `identify_10k` and `serve_10k`.
    pub gallery: usize,
    /// Distinct probes of `identify_10k` and `serve_10k` (searched in order,
    /// wrapping).
    pub probes: usize,
    /// Gallery entries of `store_lifecycle`.
    pub store_entries: usize,
    /// Searches after the first on a freshly opened store, per cycle.
    pub store_warm_searches: usize,
    /// Searches on the compacted, reopened store, per cycle.
    pub store_compacted_searches: usize,
    /// Untimed searches before the timed section.
    pub warmup: usize,
    /// Probes whose full candidate lists are compared against a reference.
    pub parity_probes: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// The measured sizes.
pub const FULL: Sizes = Sizes {
    subjects: 494,
    impostors_per_cell: 200,
    cohort_probe_subjects: 300,
    gallery: 10_000,
    probes: 400,
    store_entries: 3_000,
    store_warm_searches: 12,
    store_compacted_searches: 6,
    warmup: 20,
    parity_probes: 20,
    setup_repeats: 3,
};

/// Smoke-test sizes.
pub const TINY: Sizes = Sizes {
    subjects: 12,
    impostors_per_cell: 30,
    cohort_probe_subjects: 8,
    gallery: 240,
    probes: 40,
    store_entries: 120,
    store_warm_searches: 3,
    store_compacted_searches: 2,
    warmup: 2,
    parity_probes: 6,
    setup_repeats: 2,
};

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs<'a> {
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    pub sizes: &'a Sizes,
    /// The benchmark executable, spawned as `shard-child` by `serve_10k`.
    pub exe: &'a Path,
    /// Directory for store scratch space and trace files.
    pub out_dir: &'a Path,
}

/// Runs workload `name`.
pub fn run(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    match name {
        "study_matrix" => study::run(args),
        "identify_10k" => identify::run(identify::Kind::Synthetic10k, args),
        "identify_cohort" => identify::run(identify::Kind::Cohort, args),
        "serve_10k" => serve::run(args),
        "store_lifecycle" => store::run(args),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Where the traced pass of `workload` writes its Chrome trace.
pub fn trace_path(out_dir: &Path, workload: &str) -> std::path::PathBuf {
    out_dir.join(format!("trace-{workload}.json"))
}

/// Times set-ups; `setup_s` is the median of a run's set-ups, because one
/// set-up is a single noisy sample and later changes are held to `setup_s`
/// so that work moved out of the timed section shows.
///
/// A workload times the set-up it keeps first, measures, reads its peak
/// memory, and only then repeats the set-up for the other samples: set-ups
/// repeated *before* measuring leave the allocator in a different state
/// every run, which made `peak_rss_mb` swing by 20 % between runs.
#[derive(Debug, Default)]
pub struct SetupClock {
    seconds: Vec<f64>,
}

impl SetupClock {
    /// Runs and times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let state = setup()?;
        self.seconds.push(start.elapsed().as_secs_f64());
        Ok(state)
    }

    /// Repeats the set-up until `repeats` have been timed, dropping each
    /// result, and returns the median set-up time.
    pub fn finish<T>(
        mut self,
        repeats: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<f64, String> {
        while self.seconds.len() < repeats.max(1) {
            drop(self.time(&mut setup)?);
        }
        Ok(stats::median(&self.seconds))
    }
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of process `pid` (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Latencies of a timed section plus its wall time.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-operation latency (ms) of the operations that succeeded.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole section (s).
    pub wall_s: f64,
}

impl Timed {
    /// Sets `throughput_per_s` (as `units` completed per wall second),
    /// `latency_p50_ms` and `latency_p95_ms`, and notes the sample count
    /// and whether it supports a p95.
    pub fn report(&self, outcome: &mut Outcome, units: f64) {
        let sorted = stats::sorted(&self.latencies_ms);
        outcome.set("throughput_per_s", units / self.wall_s);
        outcome.set("latency_p50_ms", stats::percentile(&sorted, 50.0));
        outcome.set("latency_p95_ms", stats::percentile(&sorted, 95.0));
        outcome.note("latency_samples", sorted.len());
        if sorted.len() <= 12 {
            let all: Vec<String> = self
                .latencies_ms
                .iter()
                .map(|ms| format!("{ms:.1}"))
                .collect();
            outcome.note("latencies_ms_in_order", all.join(" "));
        }
        outcome.note(
            "samples_beyond_p95",
            format!(
                "{} (a tail percentile needs 10)",
                stats::samples_beyond(sorted.len(), 95.0)
            ),
        );
    }
}

/// One closed-loop client: calls `op(i)` for `i = 0, 1, ...` until
/// `seconds` have passed, timing each call, then hands the result to
/// `verify` outside the timed interval. `verify` returns whether the
/// operation succeeded; failures count as attempted and as missing.
pub fn closed_loop<T>(
    seconds: f64,
    outcome: &mut Outcome,
    mut op: impl FnMut(usize) -> T,
    mut verify: impl FnMut(usize, T) -> bool,
) -> Timed {
    let limit = Duration::from_secs_f64(seconds);
    let mut timed = Timed::default();
    let section = Instant::now();
    let mut i = 0;
    while section.elapsed() < limit {
        let start = Instant::now();
        let result = op(i);
        let elapsed = start.elapsed();
        outcome.attempted += 1;
        if verify(i, result) {
            timed.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        } else {
            outcome.failed += 1;
        }
        i += 1;
    }
    timed.wall_s = section.elapsed().as_secs_f64();
    timed
}
