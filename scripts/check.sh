#!/usr/bin/env bash
# The full gate: formatting, lints, docs, release build, tests, bench
# compilation, every smoke gate, and the perf-regression gates.
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
# Workspace tests include the fp-index exactness/recall property suite and
# the fp-study golden-regression + determinism suite.
run cargo test -q --release --offline --workspace
# The benchmark is a package of its own (outside the workspace); its unit
# tests plus the TINY-size smoke drive all five workloads through the
# crates' public API, so an API drift fails here, not at the next
# benchmark run.
run cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Benches must at least compile; the budgeted subset runs below.
run cargo bench --offline --no-run
# Smoke gates: every row of the gate table (crates/fp-study/src/gates.rs,
# tabulated in DESIGN.md "Gates") — producer at its pinned smoke scale,
# checker, artifacts under target/gates. The runner enforces and reports
# each row's own wall-clock budget; the outer timeout only guards against
# a hang.
run timeout 5400 cargo run -q --release --offline -p fp-study --bin study -- gate
# Perf gates: rerun each budgeted bench suite and diff it against the
# committed baseline. Thresholds are generous because the baseline was
# measured on a different machine; bench-diff additionally widens each
# bench's threshold to its own recorded p95 noise. Each row names the
# baseline slices its run is answerable for: a bench that silently
# vanishes from a required slice fails, one outside it is only reported.
#   shard   the budgeted 2000-entry group only (10k is for local runs)
#   stage1  blocked vs scalar kernel over the 2k and 10k ladders
#   wire    encode/decode of the frames a cross-process search pays for
#   trace   per-rpc trace-context cost and per-drain span merge
#   store   save / open / compact at 10k, and open_10k staying ~two
#           orders of magnitude under enroll_10k (lazy TABLES open)
#   load    not a cargo bench: `study gate` wrote the latency rungs
#           above; loopback latency is the noisiest number a CI host
#           produces, hence the very loose thresholds
# bench     filter             fail% warn%  required baseline slices
while read -r bench filter fail warn slices; do
    snapshot="$ROOT/target/BENCH_${bench}_current.json"
    if [ "$bench" = load ]; then
        cp target/gates/BENCH_load_current.json "$snapshot"
    else
        # shellcheck disable=SC2086  # an empty filter must vanish
        run cargo bench -q --offline -p fp-bench --bench "$bench" -- ${filter#-} \
            --save "$snapshot"
    fi
    # shellcheck disable=SC2046  # one --require per slice
    run cargo run -q --release --offline -p fp-bench --bin bench-diff -- \
        BENCH_baseline.json "$snapshot" --fail-pct "$fail" --warn-pct "$warn" \
        $(printf -- '--require %s ' $slices)
done <<'EOF'
telemetry   -                  50    10     counter/ value_histogram/ span/ fingerprint/ study/
shard       shard_search_2000  50    10     shard_search_2000/
stage1      -                  50    10     stage1/
wire        -                  50    10     wire_
trace       -                  50    10     serve/ trace/
store       -                  50    10     store/
load        -                  300   50     load/
EOF
echo "all checks passed"
