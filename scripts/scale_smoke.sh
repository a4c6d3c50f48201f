#!/usr/bin/env bash
# Out-of-core smoke: a ~10^6-edge generated instance (densified n=19307,
# m = n^{1.4}) through `mrlr solve` end to end, under a hard
# address-space ceiling (ulimit -v). The solve reads the file through
# the parser's fixed window, so the text is never held whole, and peaks
# near 90 MiB against the 800000 KiB ceiling. The solve emits a
# committed (Merkle-hashed) witness; the report is then audited in full
# against its transcript sidecar, a single chunk is re-authenticated
# alone, a piped generator-fed solve (`gen --pipe | solve --input -`)
# must produce the byte-identical report, and a tampered transcript must
# be rejected with a located error.
#
# Override the ceiling (KiB of virtual address space) with
# MRLR_SMOKE_ULIMIT_KB; the default leaves the solve ample headroom
# while still bounding it hard.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$root"

cargo build -q --release -p mrlr-cli
bin="$root/target/release/mrlr"
ceiling_kb="${MRLR_SMOKE_ULIMIT_KB:-800000}"

# 1. Generate the ~10^6-edge instance once, to a file.
"$bin" gen densified --n 19307 --c 0.4 --seed 7 --out "$work/scale.inst"
edges="$(head -n1 "$work/scale.inst" | cut -d' ' -f4)"
echo "instance: n=19307, m=$edges edges ($(du -h "$work/scale.inst" | cut -f1))"

# 2. Solve with a committed witness, under the ceiling.
(
  ulimit -v "$ceiling_kb"
  "$bin" solve matching --input "$work/scale.inst" \
    --certificates committed --chunk-len 4096 --witness-out "$work/scale.wit" \
    --format json --mask-timings --out "$work/scale.json"
)
echo "ok: solve under ulimit -v ${ceiling_kb} KiB"

# 3. Full offline audit: commitment re-authenticated, transcript
#    replayed through the ordinary witness audit.
"$bin" verify "$work/scale.inst" "$work/scale.json" --witness "$work/scale.wit" --quiet
echo "ok: full committed-witness audit"

# 4. A single chunk re-authenticates alone against the root.
"$bin" verify "$work/scale.inst" "$work/scale.json" --witness "$work/scale.wit" --chunk 0 --quiet
echo "ok: chunk 0 audits alone"

# 5. The generator-fed pipe leg never touches disk and must be
#    byte-identical (witness commitment included) to the file leg.
(
  ulimit -v "$ceiling_kb"
  "$bin" gen densified --n 19307 --c 0.4 --seed 7 --pipe \
    | "$bin" solve matching --input - \
        --certificates committed --chunk-len 4096 --witness-out "$work/pipe.wit" \
        --format json --mask-timings --out "$work/pipe.json"
)
diff -q "$work/scale.json" "$work/pipe.json"
diff -q "$work/scale.wit" "$work/pipe.wit"
echo "ok: gen --pipe | solve --input - is byte-identical"

# 6. Tampering: flip one data byte mid-transcript — the audit must fail
#    (exit 1) with an error locating the damaged chunk.
half=$(( $(wc -c < "$work/scale.wit") / 2 ))
{ head -c "$half" "$work/scale.wit"; printf 'X'; tail -c +$((half + 2)) "$work/scale.wit"; } \
  > "$work/tampered.wit"
if "$bin" verify "$work/scale.inst" "$work/scale.json" --witness "$work/tampered.wit" --quiet \
    2> "$work/tamper.err"; then
  echo "tampered transcript was accepted" >&2
  exit 1
fi
grep -q "transcript" "$work/tamper.err"
echo "ok: tampered transcript rejected with a located error"

echo "scale smoke passed (MRLR_THREADS=${MRLR_THREADS:-unset}, MRLR_BACKEND=${MRLR_BACKEND:-unset})"
