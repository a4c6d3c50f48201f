#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, judged the
# way a performance claim is judged: the change must win at least 9 of
# every 10 pairs, and its median must beat the parent's by more than the
# parent's interquartile range.
#
#   scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS [METRIC]
#
# PARENT_DIR and CHANGE_DIR are two checkouts (e.g. `git clone` or
# `git archive` of each commit). Each is built and run by its own
# `benchmark/run.sh` into its own target directory, `<checkout>/target`,
# because two checkouts sharing one CARGO_TARGET_DIR reuse each other's
# build products. Pair k runs `run.sh --workload WORKLOAD --seed SEED
# --trace 0` once in each checkout, the parent first in odd pairs and the
# change first in even ones, and keeps the result object from run.sh's
# last line. The first pair also builds each side, before its timed run
# starts.
#
# Prints every pair's METRIC (default `wall_s`; any metric of
# BENCHMARK.json), each side's median and quartiles
# (`statistics.quantiles(n=4)`, as `run.sh compare` computes them), the
# win count and the verdict on METRIC; then, for every end-to-end metric,
# both medians and whether the change's is worse than the parent's by
# more than BENCHMARK.json's bound. Exits 1 if a run fails its
# correctness gate.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
seed="$4"
pairs="$5"
metric="${6:-wall_s}"
case "$pairs" in '' | *[!0-9]* | 0) echo "PAIRS must be a positive integer" >&2; exit 2 ;; esac

logs="$(mktemp -d)"
trap 'rm -rf "$logs"' EXIT

# One run of side $2 in checkout $1 for pair $3: keeps its result object
# and prints METRIC.
run_side() {
  local dir="$1" side="$2" pair="$3"
  if ! (cd "$dir" && CARGO_TARGET_DIR="$dir/target" bash benchmark/run.sh \
    --workload "$workload" --seed "$seed" --trace 0 2>"$logs/$side.$pair.err" \
    | tail -n 1 >"$logs/$side.$pair.json"); then
    echo "$side run $pair failed; its stderr:" >&2
    cat "$logs/$side.$pair.err" >&2
    exit 1
  fi
  python3 - "$logs/$side.$pair.json" "$metric" "$side run $pair" <<'EOF'
import json, sys
path, metric, what = sys.argv[1:]
result = json.load(open(path))
if not result["correct"] or result["failed"]:
    sys.exit(f"{what}: {result['failed']} of {result['attempted']} operations failed")
if metric not in result["metrics"]:
    sys.exit(f"{what}: no metric {metric}")
print(result["metrics"][metric]["value"])
EOF
}

echo "$workload, seed $seed: $pairs pairs"
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    p="$(run_side "$parent" parent "$pair")"
    c="$(run_side "$change" change "$pair")"
    first=parent
  else
    c="$(run_side "$change" change "$pair")"
    p="$(run_side "$parent" parent "$pair")"
    first=change
  fi
  printf 'pair %2d %s: parent %-12s change %-12s (%s first)\n' "$pair" "$metric" "$p" "$c" "$first"
done

python3 - "$logs" "$pairs" "$metric" "$parent/BENCHMARK.json" <<'EOF'
import json, statistics, sys
logs, pairs, claimed, spec_path = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
spec = json.load(open(spec_path))
defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
def values(side, name):
    return [json.load(open(f"{logs}/{side}.{k}.json"))["metrics"][name]["value"]
            for k in range(1, pairs + 1)]
def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3
def gain(name, p, c):
    # How much better the change is than the parent (negative: worse).
    return (p - c) if defs[name]["better"] == "lower" else (c - p)

p, c = values("parent", claimed), values("change", claimed)
(p1, pm, p3), (c1, cm, c3) = summary(p), summary(c)
print(f"{claimed} ({defs[claimed]['better']} is better):")
print(f"  parent: median {pm:.6g}, quartiles {p1:.6g} .. {p3:.6g}")
print(f"  change: median {cm:.6g}, quartiles {c1:.6g} .. {c3:.6g}")
wins = sum(gain(claimed, a, b) > 0 for a, b in zip(p, c))
need = -(-9 * pairs // 10)
gap = gain(claimed, pm, cm)
print(f"  change wins {wins}/{pairs} (need {need}); median gain {gap:+.6g} "
      f"({gap / pm if pm else 0:+.1%}), parent IQR {p3 - p1:.6g}")
verdict = "the change is better" if wins >= need and gap > p3 - p1 else "no gain can be claimed"
print(f"  verdict: {verdict}")

print("end-to-end medians (parent -> change, gain, bound):")
for m in spec["end_to_end"]:
    name, bound = m["name"], m["bound"]
    pm, cm = statistics.median(values("parent", name)), statistics.median(values("change", name))
    rel = gain(name, pm, cm) / pm if pm else 0.0
    flag = "WORSE than bound" if rel < -bound else "within bound"
    print(f"  {name:12s} {pm:.6g} -> {cm:.6g}  {rel:+.1%}  (bound {bound:.0%}: {flag})")
EOF
