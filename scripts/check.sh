#!/usr/bin/env bash
# The full gate: formatting, lints, docs, release build, tests, every smoke
# gate, and the perf-regression gate.
# .github/workflows/ci.yml runs this script and nothing else, so what CI
# checks and what you check locally are the same by construction.
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
# The line between the paper library and the operations harness: outside
# src/bin/study/, fp-study names no serving, store or image crate, so the
# benchmark (which links the library) cannot see a gate or harness edit.
echo "==> fp-study's library names no fp_serve / fp_store / fp_image"
if grep -rln 'fp_serve\|fp_store\|fp_image' crates/fp-study/src --include='*.rs' --exclude-dir=bin; then
    echo "the files above belong under crates/fp-study/src/bin/study/" >&2
    exit 1
fi
# Workspace tests include the fp-index exactness/recall property suite and
# the fp-study golden-regression + determinism suite.
run cargo test -q --release --offline --workspace
# The index, store and matcher again under the debug profile, where their
# `debug_assert!`s (among them the bounds of the matcher's unaligned
# AVX-512 loads) and integer-overflow checks are live.
run cargo test -q --offline -p fp-index -p fp-store -p fp-match
# And pinned to one core, where every search pass takes the inline one-lane
# path and the score matrix the one-thread path of `parallel_map`: the
# multi-thread runs above must give the same bits.
run taskset -c 0 cargo test -q --release --offline -p fp-index -p fp-store
run taskset -c 0 cargo test -q --release --offline -p fp-study --lib
# The benchmark is a package of its own (outside the workspace); its unit
# tests plus the TINY-size smoke drive all five workloads through the
# crates' public API, so an API drift fails here, not at the next
# benchmark run.
run cargo test -q --offline --manifest-path benchmark/Cargo.toml
# A dependency edit that would dirty a lock file fails here, not at the next
# benchmark run. benchmark/Cargo.lock still lists the fp-sensor -> fp-image
# edge PR 19 removed (that directory is the benchmark's to edit), so cargo
# drops that one line on every build: that, or no change, passes.
echo "==> lock files unchanged by the builds"
git diff --exit-code -- Cargo.lock
lock_drift=$(git diff -U0 -- benchmark/Cargo.lock | grep '^[-+][^-+]' || true)
if [ -n "$lock_drift" ] && [ "$lock_drift" != '- "fp-image",' ]; then
    git diff -- benchmark/Cargo.lock
    exit 1
fi
# Smoke gates: every row of the gate table
# (crates/fp-study/src/bin/study/gates.rs, tabulated in DESIGN.md "Gates") —
# producer lines at their pinned smoke scale, each failing its own run on a
# broken verdict; results JSON, metrics, merged trace, slow log, RUNFP
# manifest and the store gallery land under target/gates. The runner
# enforces and reports the rows' wall-clock budget; the outer timeout only
# guards against a hang.
run timeout 5400 cargo run -q --release --offline -p fp-study --bin study -- gate
# Perf gate: the one micro suite (what the end-to-end benchmark cannot
# see; ~10 s), diffed row by row against the committed baseline. Every
# baseline row must be present; a row fails on slowdown only when the
# baseline was measured on this host (DESIGN.md "The perf record").
# The last run's snapshot goes first, so a suite that saves nothing fails
# bench-diff instead of passing on stale numbers.
rm -f "$ROOT/target/BENCH_current.json"
run cargo bench -q --offline -p fp-bench -- --save "$ROOT/target/BENCH_current.json"
run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
    BENCH_baseline.json target/BENCH_current.json
echo "all checks passed"
