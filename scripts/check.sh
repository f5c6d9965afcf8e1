#!/usr/bin/env bash
# Full local gate: formatting, lints, release build, tests, bench
# compilation, the 1:N scaling smoke run, and the perf-regression gate.
# Mirrors .github/workflows/ci.yml so CI never surprises you.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
# A doc link to an item that was renamed or removed fails here.
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --offline --workspace
run cargo build --release --offline
# Workspace tests include the fp-index exactness/recall property suite and
# the fp-study golden-regression + determinism suite.
run cargo test -q --release --offline --workspace
# The benchmark is a package of its own (outside the workspace); its unit
# tests plus the TINY-size smoke drive all five workloads through the
# crates' public API, so an API drift fails here, not at the next
# benchmark run.
run cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Benches must at least compile; the budgeted telemetry subset runs below.
run cargo bench --offline --no-run
# 1:N scaling smoke: a 200-subject ladder (200/1000/2000 galleries) plus a
# sharded ladder (1/2/4 shards over the 2000 gallery) must finish inside a
# 10-minute wall-clock budget, keep shortlist recall at spec on every rung,
# and show exact candidate-list parity between sharded and unsharded
# search. The gate itself is Rust (`study check-scaling`).
run timeout 600 cargo run -q --release --offline -p fp-study --bin study -- \
    ext-scaling --subjects 200 --shards 4 --json target/ext-scaling-smoke.json
run cargo run -q --release --offline -p fp-study --bin study -- \
    check-scaling target/ext-scaling-smoke.json
# Cross-process smoke: the same ladder's top gallery served by two real
# `study serve-shard` child processes over loopback. `study check-serve`
# gates on exact candidate-list parity with BOTH in-process indexes, equal
# recall, and non-zero serve.* wire-traffic counters.
run timeout 600 cargo run -q --release --offline -p fp-study --bin study -- \
    ext-scaling --subjects 200 --remote-shards 2 \
    --json target/ext-serve-smoke.json --metrics target/ext-serve-metrics.json
run cargo run -q --release --offline -p fp-study --bin study -- \
    check-serve target/ext-serve-smoke.json
# Concurrent-load smoke: the same 200-subject gallery on two serve-shard
# children, driven by concurrent client threads. `study check-load` gates
# on byte-identical candidate lists and an equal RUNFP chain vs a
# sequential in-process baseline, a deterministic 8-deep pipeline probe,
# an exact admission ledger (offered == accepted + overloaded), and
# monotone p50/p95/p99/p999 latency rungs; the rungs also feed a BENCH
# snapshot gated by bench-diff with very loose thresholds (loopback
# latency is the noisiest number a CI host produces).
run timeout 600 cargo run -q --release --offline -p fp-study --bin study -- \
    load --subjects 200 --json target/load-smoke.json \
    --out target/BENCH_load_current.json
run cargo run -q --release --offline -p fp-study --bin study -- \
    check-load target/load-smoke.json
run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
    BENCH_baseline.json target/BENCH_load_current.json --fail-pct 300 --warn-pct 50 \
    --require load/
# Distributed-tracing gate: a 2-shard serve-shard topology with one shard
# deliberately delayed. `study check-dist-trace` asserts the traced run is
# byte-identical (candidates + RUNFP) to the untraced run and an in-process
# baseline, the merged multi-process trace is one connected tree (every
# shard `server.request` span re-parented under the coordinator `serve.rpc`
# that issued it, one Chrome lane per process), and every slow-log exemplar
# names the delayed shard with server-reported work covering the injected
# delay. The merged trace and the exemplar log land in target/ as the same
# artifacts CI uploads.
run timeout 600 cargo run -q --release --offline -p fp-study --bin study -- \
    check-dist-trace --remote-shards 2 \
    --trace target/dist-trace.json --slowlog target/dist-slowlog.jsonl
# Stage-1 kernel parity gate: the cache-blocked SoA arena kernel must be
# BITWISE identical to the scalar reference on an enrolled gallery (scores
# and hamming_ops meters), and the RUNFP chain over the same probe loop
# must be identical across unsharded, in-process sharded, and two real
# serve-shard child processes.
run timeout 600 cargo run -q --release --offline -p fp-study --bin study -- \
    check-kernel --remote-shards 2
# Persistent-store gate: persist the 200-subject gallery, then prove every
# store path — open, sharded open, serve-shard --gallery-dir with a
# kill+restart, tombstone churn, compaction — yields candidate lists and a
# RUNFP chain byte-identical to fresh enrollment. The compacted gallery is
# left in target/store-gallery and its structural summary (per-segment
# sizes, per-section CRCs) in target/store-inspect.json, the same
# artifacts CI uploads.
run timeout 600 cargo run -q --release --offline -p fp-study --bin study -- \
    check-store --subjects 200 --remote-shards 1 --gallery-dir target/store-gallery
run cargo run -q --release --offline -p fp-study --bin study -- \
    gallery inspect target/store-gallery --json target/store-inspect.json
# Fingerprint gate: the same remote smoke run must show one RUNFP chain on
# every rung — unsharded, in-process sharded, and the two real child
# processes — and `--deep` insists the cross-process evidence is present.
# The manifest artifact is what a release run would publish for O(1)
# behavioral comparison against any re-run.
run cargo run -q --release --offline -p fp-study --bin study -- \
    check-fingerprint target/ext-serve-smoke.json --deep
run cargo run -q --release --offline -p fp-study --bin study -- \
    fingerprint target/ext-serve-smoke.json --json target/fingerprint-manifest.json
# Perf gate: rerun the telemetry bench suite (the cheapest one) and diff it
# against the committed baseline. Thresholds are generous because the
# baseline was measured on a different machine; bench-diff additionally
# widens each bench's threshold to its own recorded p95 noise. Each gate
# declares the baseline slice its filtered bench run is answerable for via
# --require: a bench that silently vanishes from the run fails the gate.
run cargo bench -q --offline -p fp-bench --bench telemetry -- \
    --save "$ROOT/target/BENCH_current.json"
run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
    BENCH_baseline.json target/BENCH_current.json --fail-pct 50 --warn-pct 10 \
    --require counter/ --require value_histogram/ --require span/ \
    --require fingerprint/ --require study/
# Shard-search perf gate: the budgeted 2000-entry group only (the 10k group
# lives in the committed baseline for local runs; missing benches outside
# the required slice are reported as removed, never failed).
run cargo bench -q --offline -p fp-bench --bench shard -- shard_search_2000 \
    --save "$ROOT/target/BENCH_shard_current.json"
run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
    BENCH_baseline.json target/BENCH_shard_current.json --fail-pct 50 --warn-pct 10 \
    --require shard_search_2000/
# Stage-1 kernel perf gate: blocked vs scalar over the 2k and 10k ladders.
# The committed baseline records the blocked kernel's speedup; a kernel
# regression (or a silently missing stage1 bench) fails here.
run cargo bench -q --offline -p fp-bench --bench stage1 -- \
    --save "$ROOT/target/BENCH_stage1_current.json"
run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
    BENCH_baseline.json target/BENCH_stage1_current.json --fail-pct 50 --warn-pct 10 \
    --require stage1/
# Wire-format perf gate: encode/decode cost of the frames the cross-process
# search pays per probe and per enrollment batch.
run cargo bench -q --offline -p fp-bench --bench wire -- \
    --save "$ROOT/target/BENCH_wire_current.json"
run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
    BENCH_baseline.json target/BENCH_wire_current.json --fail-pct 50 --warn-pct 10 \
    --require wire_
# Tracing perf gate: the per-rpc cost of carrying a wire-v4 trace context
# and the per-drain cost of merging a shard's spans into the coordinator
# snapshot.
run cargo bench -q --offline -p fp-bench --bench trace -- \
    --save "$ROOT/target/BENCH_trace_current.json"
run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
    BENCH_baseline.json target/BENCH_trace_current.json --fail-pct 50 --warn-pct 10 \
    --require serve/ --require trace/
# Store perf gate: segment save / open / compact on the 10k ladder, plus
# the enroll-from-scratch reference the store's headline is measured
# against. The committed baseline pins open_10k roughly two orders of
# magnitude under enroll_10k (lazy TABLES open); losing that headline —
# or any of the four benches silently vanishing — fails here.
run cargo bench -q --offline -p fp-bench --bench store -- \
    --save "$ROOT/target/BENCH_store_current.json"
run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
    BENCH_baseline.json target/BENCH_store_current.json --fail-pct 50 --warn-pct 10 \
    --require store/
echo "all checks passed"
