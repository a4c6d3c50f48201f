#!/usr/bin/env bash
# One-command regeneration of the committed BENCH_exec.json. Runs the
# executor/routing benchmark (crates/bench bench_exec) in release mode
# and rewrites the artifact. The bench itself asserts thread-count
# bit-identity (checksums + Metrics) before emitting any row; a
# divergence panics instead of writing.
#
#   ./scripts/bench_exec.sh             # full run, rewrites BENCH_exec.json
#   ./scripts/bench_exec.sh --quick     # small router sizes, for a fast sanity pass
#
# Validate the committed artifact without touching it (also the CI
# alloc-regression gate: fails if any freshly measured router row, or
# registry row of the nine flat-state keys — the cover family and the
# graph family, each at its one >= 50 ms size — exceeds its committed
# allocs-per-superstep baseline by more than 25% plus a +16 absolute
# grace):
#   cargo run --release -p mrlr-bench --bin bench_exec -- --check
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

cargo build -q --release -p mrlr-bench --bin bench_exec
cargo run -q --release -p mrlr-bench --bin bench_exec -- "$@" BENCH_exec.json
cargo run -q --release -p mrlr-bench --bin bench_exec -- --check BENCH_exec.json
echo "BENCH_exec.json regenerated and checked"
