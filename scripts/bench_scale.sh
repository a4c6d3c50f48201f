#!/usr/bin/env bash
# One-command regeneration of the committed BENCH_scale.json out-of-core
# scaling benchmark. Runs crates/bench bench_scale in release mode over
# the scripts/scale_ladder.spec size ladder (densified graphs up to
# ~10^7 edges): every rung is rendered to a temp file once and solved in
# a subprocess leg that loads it the way `mrlr solve` does (read_instance
# plus a registry solve), whose wall clock and peak RSS (VmHWM) are
# recorded.
#
#   ./scripts/bench_scale.sh            # full ladder, rewrites BENCH_scale.json
#   ./scripts/bench_scale.sh --quick    # first rung only, fast sanity pass
#
# Validate the committed artifact without touching it:
#   cargo run --release -p mrlr-bench --bin bench_scale -- --check
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

cargo build -q --release -p mrlr-bench --bin bench_scale
cargo run -q --release -p mrlr-bench --bin bench_scale -- "$@" BENCH_scale.json
cargo run -q --release -p mrlr-bench --bin bench_scale -- --check BENCH_scale.json
echo "BENCH_scale.json regenerated and checked"
