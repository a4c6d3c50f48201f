#!/usr/bin/env bash
# Builds the solver binaries and the benchmark harness (release, offline),
# then runs the harness with the given arguments. See README.md.
#
#   benchmark/run.sh                      every workload, end to end
#   benchmark/run.sh --trace 1            every workload, per-layer (traced)
#   benchmark/run.sh --twice              two sets of runs, then compare them
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both workspaces, absolute so the harness finds
# `mrlr` and `mrlr-dist-worker` next to itself.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p mrlr-cli -p mrlr-mapreduce --bins >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/mrlr-benchmark" "$@"
