#!/usr/bin/env bash
# CLI smoke loop: `mrlr gen → solve → verify → batch` for every registry
# key (and `gen --pipe | solve --input -` for two of them), diffing
# masked JSON reports (full, re-verifiable certificates) against the
# checked-in golden files AND re-verifying every golden offline with
# `mrlr verify`. Runs the same matrix as
# crates/cli/tests/cli_smoke.rs (the matrix file is the single source of
# truth for both); CI invokes this under MRLR_THREADS={1,4} crossed with
# MRLR_BACKEND={shard,dist} — the env var swaps the cluster runtime
# under Backend::Mr, and because the runtimes are bit-identical the SAME
# golden files must match on every axis. Explicit `--backend shard` and
# `--backend dist` solves are additionally diffed against the mr golden
# modulo the backend tag (the dist leg spawns real worker processes),
# and the batch document is audited whole by `mrlr verify <batch.json>`.
# Regenerate goldens after an intentional format change with
# `MRLR_UPDATE_GOLDEN=1 cargo test -p mrlr-cli`.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
matrix="$root/crates/cli/tests/smoke_matrix.txt"
golden="$root/crates/cli/tests/golden"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mrlr() { cargo run -q --release -p mrlr-cli -- "$@"; }

cd "$root"
while IFS='|' read -r key family gen_args solve_args; do
  case "$key" in ''|\#*) continue ;; esac
  # shellcheck disable=SC2086  # word-splitting of the arg columns is the point
  mrlr gen "$family" $gen_args --out "$work/$key.inst"
  # shellcheck disable=SC2086
  mrlr solve "$key" --input "$work/$key.inst" $solve_args \
    --format json --mask-timings --out "$work/$key.json"
  diff -u "$golden/$key.json" "$work/$key.json"
  # Every stored report is an auditable artifact: replay the golden's
  # certificate witness offline against the (regenerated) instance.
  mrlr verify "$work/$key.inst" "$golden/$key.json" --quiet
  echo "ok: $key (diff + verify)"
  # The piped materialized path, for one graph key and one set-system
  # key: no file on either side, and the same report byte for byte.
  case "$key" in matching|set-cover-f)
    # shellcheck disable=SC2086
    mrlr gen "$family" $gen_args --pipe \
      | mrlr solve "$key" --input - $solve_args \
          --format json --mask-timings --out "$work/$key.piped.json"
    cmp "$work/$key.json" "$work/$key.piped.json"
    echo "ok: $key (gen --pipe | solve --input -)" ;;
  esac
done < "$matrix"

# Explicit shard backend: the payload is bit-identical to the mr golden
# (only the backend tag differs), and the stored report still verifies.
mrlr solve matching --input "$work/matching.inst" --backend shard \
  --format json --mask-timings --out "$work/matching.shard.json"
sed 's/"backend": "shard"/"backend": "mr"/' "$work/matching.shard.json" \
  | diff -u "$golden/matching.json" -
mrlr verify "$work/matching.inst" "$work/matching.shard.json" --quiet
echo "ok: shard backend (diff modulo tag + verify)"

# Explicit dist backend: worker processes over the Unix-socket control
# plane; the payload is still bit-identical to the mr golden.
mrlr solve matching --input "$work/matching.inst" --backend dist --workers 2 \
  --format json --mask-timings --out "$work/matching.dist.json"
sed 's/"backend": "dist"/"backend": "mr"/' "$work/matching.dist.json" \
  | diff -u "$golden/matching.json" -
mrlr verify "$work/matching.inst" "$work/matching.dist.json" --quiet
echo "ok: dist backend (diff modulo tag + verify)"

cp "$golden/batch.manifest" "$work/batch.manifest"
mrlr batch "$work/batch.manifest" --mask-timings --out "$work/batch.json"
diff -u "$golden/batch.json" "$work/batch.json"
mrlr batch "$work/batch.manifest" --mask-timings --format csv --out "$work/batch.csv"
diff -u "$golden/batch.csv" "$work/batch.csv"
# Audit the whole batch document offline (error slots are skipped).
mrlr verify "$work/batch.json" --quiet
echo "ok: batch (diff + verify)"

mrlr list --format json > "$work/list.json"
diff -u "$golden/list.json" "$work/list.json"
# A reader that stops early closes the pipe under `list`: a clean exit 0,
# not a panic. pipefail is off for this one pipeline so that `list`'s own
# status is read and reported.
set +o pipefail
mrlr list | head -n 1 >/dev/null
list_status="${PIPESTATUS[0]}"
set -o pipefail
if [ "$list_status" != 0 ]; then
  echo "mrlr list exited $list_status when its reader closed the pipe" >&2
  exit 1
fi
# A usage error whose stderr reader has gone still exits 2, not with a
# panic; pipefail is off again so that `mrlr`'s own status is read.
set +o pipefail
mrlr list --bogus 2>&1 >/dev/null | true
usage_status="${PIPESTATUS[0]}"
set -o pipefail
if [ "$usage_status" != 2 ]; then
  echo "mrlr list --bogus exited $usage_status when its stderr reader closed the pipe" >&2
  exit 1
fi
echo "ok: list"

echo "cli smoke passed (MRLR_THREADS=${MRLR_THREADS:-unset}, MRLR_BACKEND=${MRLR_BACKEND:-unset})"
