//! # fp-bench
//!
//! One of the repo's two perf instruments. The end-to-end benchmark
//! (`BENCHMARK.json`, `benchmark/`) answers "is the system slower?" on five
//! workloads; this crate holds what that benchmark cannot see:
//!
//! * `benches/micro` — the one micro suite (instrument overhead, RUNFP
//!   folds, wire codec, trace merge, the 2k stage-1 kernel pair and the
//!   per-matcher comparison rows), run by `cargo bench -p fp-bench`;
//! * [`diff`] and the `bench-diff` binary — the gate that compares the
//!   suite's `--save` snapshot with the committed `BENCH_baseline.json`.

pub mod diff;
