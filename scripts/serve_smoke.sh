#!/usr/bin/env bash
# Serve smoke loop: start the `mrlr serve` daemon on a Unix socket and
# drive it with `mrlr client` through the same matrix as
# scripts/cli_smoke.sh — every served report must be byte-identical to
# the checked-in cli-smoke goldens (the daemon shares the offline
# renderers, so any drift is a protocol bug, not a formatting one).
# Exercises, in order:
#   1. default daemon: client solve for every registry key diffed
#      against crates/cli/tests/golden/<key>.json, explicit shard/dist
#      backend legs diffed modulo the backend tag, client verify for
#      every golden, client batch (json + csv) diffed against the batch
#      goldens and audited whole by offline `mrlr verify`;
#   2. a constrained daemon (--max-inflight 1 --queue 0 --hold-millis):
#      two identical concurrent solves coalesce onto ONE solver run with
#      bit-identical fan-out, and a third, different request is rejected
#      with a `busy` error (exit 1) instead of hanging;
#   3. clean shutdown both times: `client shutdown` drains in-flight
#      work, the socket file is removed, and no orphan mrlr processes
#      (daemon or dist workers) survive.
# CI runs this under MRLR_BACKEND={shard,dist}; the env var swaps the
# cluster runtime the daemon uses under Backend::Mr, and the SAME golden
# files must match on every leg.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
matrix="$root/crates/cli/tests/smoke_matrix.txt"
golden="$root/crates/cli/tests/golden"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$root"
# Build once and call the binary directly: the daemon runs in the
# background, and two concurrent `cargo run`s would contend on the
# target-dir lock.
cargo build --release -q -p mrlr-cli
mrlr() { "$root/target/release/mrlr" "$@"; }

wait_ready() { # wait_ready <socket>
  for _ in $(seq 1 150); do
    if [ -S "$1" ] && mrlr client ping --socket "$1" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "error: daemon did not come up on $1" >&2
  return 1
}

stat_field() { # stat_field <socket> <field>
  mrlr client stats --socket "$1" | grep -o "\"$2\": [0-9]*" | grep -o '[0-9]*$'
}

assert_stat() { # assert_stat <socket> <field> <expected>
  local got
  got="$(stat_field "$1" "$2")"
  if [ "$got" != "$3" ]; then
    echo "error: daemon stat $2 = $got, expected $3" >&2
    exit 1
  fi
}

assert_down() { # assert_down <socket> <daemon pid>
  wait "$2"
  if [ -e "$1" ]; then
    echo "error: socket $1 still present after shutdown" >&2
    exit 1
  fi
  if pgrep -x mrlr >/dev/null 2>&1; then
    echo "error: orphan mrlr processes after shutdown:" >&2
    pgrep -ax mrlr >&2
    exit 1
  fi
}

# ---------------------------------------------------- phase 1: matrix --
sock="$work/serve.sock"
mrlr serve --socket "$sock" 2>"$work/serve.log" &
daemon=$!
wait_ready "$sock"

while IFS='|' read -r key family gen_args solve_args; do
  case "$key" in ''|\#*) continue ;; esac
  # shellcheck disable=SC2086  # word-splitting of the arg columns is the point
  mrlr gen "$family" $gen_args --out "$work/$key.inst"
  # shellcheck disable=SC2086
  mrlr client solve "$key" --socket "$sock" --input "$work/$key.inst" $solve_args \
    --format json --mask-timings --out "$work/$key.json" 2>/dev/null
  diff -u "$golden/$key.json" "$work/$key.json"
  # The daemon audits the golden report against the regenerated instance.
  mrlr client verify "$work/$key.inst" "$golden/$key.json" --socket "$sock" --quiet
  echo "ok: served $key (diff + verify)"
done < "$matrix"

# Explicit shard/dist backends through the daemon: payloads bit-identical
# to the mr golden modulo the backend tag, and the daemon audits both.
# The dist leg makes the daemon spawn real worker processes — the orphan
# check after shutdown covers them too.
for b in shard dist; do
  mrlr client solve matching --socket "$sock" --input "$work/matching.inst" \
    --backend "$b" --format json --mask-timings --out "$work/matching.$b.json" 2>/dev/null
  sed "s/\"backend\": \"$b\"/\"backend\": \"mr\"/" "$work/matching.$b.json" \
    | diff -u "$golden/matching.json" -
  mrlr client verify "$work/matching.inst" "$work/matching.$b.json" --socket "$sock" --quiet
  echo "ok: served $b backend (diff modulo tag + verify)"
done

# Served batch: the client ships manifest-relative instance files; the
# document (deliberate per-slot errors included) must match the offline
# goldens byte-for-byte, and the whole document still audits offline.
cp "$golden/batch.manifest" "$work/batch.manifest"
mrlr client batch "$work/batch.manifest" --socket "$sock" --mask-timings \
  --out "$work/batch.json" 2>/dev/null
diff -u "$golden/batch.json" "$work/batch.json"
mrlr client batch "$work/batch.manifest" --socket "$sock" --mask-timings \
  --format csv --out "$work/batch.csv" 2>/dev/null
diff -u "$golden/batch.csv" "$work/batch.csv"
mrlr verify "$work/batch.json" --quiet
echo "ok: served batch (diff + offline verify)"

# 10 matrix solves + 10 verifies + 2 backend solves + 2 verifies +
# 2 batches; pings/stats are not solve requests and must not count.
assert_stat "$sock" requests 26
assert_stat "$sock" coalesce_hits 0
assert_stat "$sock" busy_rejects 0
assert_stat "$sock" timeouts 0
mrlr client shutdown --socket "$sock" >/dev/null
assert_down "$sock" "$daemon"
echo "ok: matrix daemon drained (socket removed, no orphans)"

# -------------------------------- phase 2: coalescing and admission --
# One solver slot, no queue, and a 4s post-solve hold so concurrent
# requests deterministically overlap: an identical second request must
# coalesce (no slot, no extra run), a different third must bounce.
sock2="$work/serve-tight.sock"
mrlr serve --socket "$sock2" --max-inflight 1 --queue 0 --hold-millis 4000 \
  2>"$work/serve-tight.log" &
daemon2=$!
wait_ready "$sock2"

mrlr client solve matching --socket "$sock2" --input "$work/matching.inst" \
  --format json --mask-timings --out "$work/co.a.json" 2>"$work/co.a.err" &
runner=$!
sleep 1
mrlr client solve matching --socket "$sock2" --input "$work/matching.inst" \
  --format json --mask-timings --out "$work/co.b.json" 2>"$work/co.b.err" &
waiter=$!
sleep 1
# Slot held, queue full (capacity 0): a non-identical request must be
# rejected immediately with a busy error, not queued and not hung.
if mrlr client solve matching --socket "$sock2" --input "$work/matching.inst" \
  --seed 7 --format json --mask-timings --out "$work/busy.json" 2>"$work/busy.err"; then
  echo "error: overload request succeeded; expected busy rejection" >&2
  exit 1
fi
grep -q "busy" "$work/busy.err" || {
  echo "error: rejection did not mention busy:" >&2
  cat "$work/busy.err" >&2
  exit 1
}
wait "$runner"
wait "$waiter"
grep -q "coalesced" "$work/co.b.err" || {
  echo "error: second identical request was not coalesced:" >&2
  cat "$work/co.b.err" >&2
  exit 1
}
# Fan-out is bit-identical, and both match the offline golden.
diff -u "$work/co.a.json" "$work/co.b.json"
diff -u "$golden/matching.json" "$work/co.a.json"
assert_stat "$sock2" solver_runs 1
assert_stat "$sock2" coalesce_hits 1
assert_stat "$sock2" busy_rejects 1
mrlr client shutdown --socket "$sock2" >/dev/null
assert_down "$sock2" "$daemon2"
echo "ok: coalesce + busy daemon drained (1 solver run for 2 reports)"

echo "serve smoke passed (MRLR_THREADS=${MRLR_THREADS:-unset}, MRLR_BACKEND=${MRLR_BACKEND:-unset})"
