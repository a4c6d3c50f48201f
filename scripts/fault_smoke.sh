#!/usr/bin/env bash
# Fault-injection smoke: the headline property of the distributed
# runtime, exercised through the real CLI on real worker processes.
# A clean `--backend dist` solve and one where worker 1 is killed after
# superstep 1's barrier ack must produce byte-identical masked reports;
# the recovery must be visible on stderr (so the kill demonstrably
# fired); and the recovered certificate must re-verify offline with
# `mrlr verify` — proving recovery without re-running anything.
#
# `matching` moves everything by gather/broadcast, so its kill is found at
# a barrier and replays nothing. The second leg kills during
# `vertex-cover`'s second exchange hop (superstep 5 at this instance): the
# worker dies holding ingested batch frames, and the recovery note must
# show the retained bytes going out again.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mrlr() { cargo run -q --release -p mrlr-cli -- "$@"; }

cd "$root"
mrlr gen densified --n 200 --c 0.4 --seed 7 --out "$work/g.inst"

mrlr solve matching --input "$work/g.inst" --backend dist --workers 2 \
  --format json --mask-timings --out "$work/clean.json"

mrlr solve matching --input "$work/g.inst" --backend dist --workers 2 \
  --kill 1@1 --format json --mask-timings --out "$work/healed.json" \
  2> "$work/healed.err"

grep -q "recovery: worker 1" "$work/healed.err" || {
  echo "FAIL: injected kill left no recovery note on stderr:" >&2
  cat "$work/healed.err" >&2
  exit 1
}
echo "ok: kill fired ($(grep -c 'recovery:' "$work/healed.err") recovery)"

diff -u "$work/clean.json" "$work/healed.json"
echo "ok: recovered report byte-identical to clean run"

mrlr verify "$work/g.inst" "$work/healed.json" --quiet
echo "ok: recovered certificate re-verified offline"

mrlr gen vertex-weighted --n 200 --c 0.4 --seed 7 --out "$work/vw.inst"

mrlr solve vertex-cover --input "$work/vw.inst" --backend dist --workers 2 \
  --format json --mask-timings --out "$work/vc-clean.json"

mrlr solve vertex-cover --input "$work/vw.inst" --backend dist --workers 2 \
  --kill 1@5 --format json --mask-timings --out "$work/vc-healed.json" \
  2> "$work/vc-healed.err"

replayed="$(sed -n 's/.*recovery: worker 1 .*(replayed \([0-9]*\) bytes.*/\1/p' "$work/vc-healed.err")"
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
  echo "FAIL: mid-exchange kill replayed no batch bytes:" >&2
  cat "$work/vc-healed.err" >&2
  exit 1
fi
echo "ok: mid-exchange kill fired (replayed $replayed bytes)"

diff -u "$work/vc-clean.json" "$work/vc-healed.json"
echo "ok: replayed report byte-identical to clean run"

mrlr verify "$work/vw.inst" "$work/vc-healed.json" --quiet
echo "ok: replayed certificate re-verified offline"

echo "fault smoke passed"
