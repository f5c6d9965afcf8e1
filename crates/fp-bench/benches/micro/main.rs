//! The one micro suite: what the repo's end-to-end benchmark
//! (`BENCHMARK.json`, `benchmark/`) cannot see, because it is far below one
//! search or off every workload's path.
//!
//! * `telemetry` — `counter/ value_histogram/ span/ fingerprint/ study/`:
//!   the cost of an instrument, disabled and enabled, and of a RUNFP fold;
//! * `stage1` — `stage1/*_2k`: the arena kernel against the scalar
//!   reference on an arena that fits in cache, as the kernel's quick check;
//! * `wire` — `wire_*`: encode and decode of the frames a cross-process
//!   search sends;
//! * `trace` — `serve/trace_context trace/`: a trace context on the wire
//!   and one shard's span drain;
//! * `matchers` — `pair_table/ hough/ calibration/`: one comparison per
//!   matcher, genuine and impostor, direct and prepared.
//!
//! Anything a benchmark workload measures end to end (10k search, sharded
//! search, the store, the client ladder) is measured there and only there.
//! `cargo bench -p fp-bench -- --save target/BENCH_current.json` runs every
//! group in well under a minute; `bench-diff` compares the snapshot with
//! `BENCH_baseline.json`.

use std::process::ExitCode;

use fp_core::rng::SeedTree;
use fp_study::experiments::harness::Cohort;

mod matchers;
mod stage1;
mod telemetry;
mod trace;
mod wire;

/// A `size`-entry gallery and its first probe from the sampler the
/// cross-process gates use: the index and the wire only see minutiae.
fn cohort(size: usize) -> Cohort {
    Cohort::new(SeedTree::new(0xBE7C).child(&[0x5A]), size, 1)
}

fn main() -> ExitCode {
    fp_bench::harness::run(&[
        telemetry::benches,
        stage1::benches,
        wire::benches,
        trace::benches,
        matchers::benches,
    ])
}
