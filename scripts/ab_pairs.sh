#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads, judged the way
# a performance claim is judged: the change must win at least 9 of every
# 10 pairs, and its median must beat the parent's by more than the
# parent's interquartile range.
#
#   scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOADS SEED PAIRS [METRIC]
#
# PARENT_DIR and CHANGE_DIR are two checkouts (e.g. `git clone` or
# `git archive` of each commit). Each is built and run by its own
# `benchmark/run.sh` into its own target directory, `<checkout>/target`,
# because two checkouts sharing one CARGO_TARGET_DIR reuse each other's
# build products. WORKLOADS is one workload name or a comma-separated
# list; the pairs of each workload run before the next workload's. Pair
# k runs `run.sh --workload W --seed SEED --trace 0` once in each
# checkout, the parent first in odd pairs and the change first in even
# ones, and keeps the result object from run.sh's last line. The first
# run of each side also builds it, before its timed run starts.
#
# Prints every pair's METRIC (default `wall_s`; any metric of
# BENCHMARK.json), and per workload each side's median and quartiles
# (`statistics.quantiles(n=4)`, as `run.sh compare` computes them), the
# win count and the verdict on METRIC; then, for every end-to-end
# metric, both medians and whether the change's is worse than the
# parent's by more than BENCHMARK.json's bound. A metric whose parent
# runs spread wider than its bound (IQR over median) is `unresolved`
# rather than `within bound`, unless every change run beats every parent
# run. Ends with one verdict row per workload. Exits 1 if a run fails
# its correctness gate.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
IFS=, read -r -a workloads <<<"$3"
seed="$4"
pairs="$5"
metric="${6:-wall_s}"
case "$pairs" in '' | *[!0-9]* | 0) echo "PAIRS must be a positive integer" >&2; exit 2 ;; esac
[ "${#workloads[@]}" -gt 0 ] || { echo "WORKLOADS must name a workload" >&2; exit 2; }

logs="$(mktemp -d)"
trap 'rm -rf "$logs"' EXIT

# One run of side $2 in checkout $1 on workload $3 for pair $4: keeps
# its result object and prints METRIC.
run_side() {
  local dir="$1" side="$2" workload="$3" pair="$4"
  local out="$logs/$workload.$side.$pair"
  if ! (cd "$dir" && CARGO_TARGET_DIR="$dir/target" bash benchmark/run.sh \
    --workload "$workload" --seed "$seed" --trace 0 2>"$out.err" \
    | tail -n 1 >"$out.json"); then
    echo "$side run $pair of $workload failed; its stderr:" >&2
    cat "$out.err" >&2
    exit 1
  fi
  python3 - "$out.json" "$metric" "$side run $pair of $workload" <<'EOF'
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

for workload in "${workloads[@]}"; do
  echo "$workload, seed $seed: $pairs pairs"
  for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
      p="$(run_side "$parent" parent "$workload" "$pair")"
      c="$(run_side "$change" change "$workload" "$pair")"
      first=parent
    else
      c="$(run_side "$change" change "$workload" "$pair")"
      p="$(run_side "$parent" parent "$workload" "$pair")"
      first=change
    fi
    printf 'pair %2d %s: parent %-12s change %-12s (%s first)\n' "$pair" "$metric" "$p" "$c" "$first"
  done
done

python3 - "$logs" "$pairs" "$metric" "$parent/BENCHMARK.json" "$seed" "${workloads[@]}" <<'EOF'
import json, statistics, sys
logs, pairs, claimed, spec_path, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
workloads = sys.argv[6:]
spec = json.load(open(spec_path))
defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3
def gain(name, p, c):
    # How much better the change is than the parent (negative: worse).
    return (p - c) if defs[name]["better"] == "lower" else (c - p)

rows = []
for workload in workloads:
    def values(side, name):
        return [json.load(open(f"{logs}/{workload}.{side}.{k}.json"))["metrics"][name]["value"]
                for k in range(1, pairs + 1)]
    p, c = values("parent", claimed), values("change", claimed)
    (p1, pm, p3), (c1, cm, c3) = summary(p), summary(c)
    print(f"{workload}: {claimed} ({defs[claimed]['better']} is better):")
    print(f"  parent: median {pm:.6g}, quartiles {p1:.6g} .. {p3:.6g}")
    print(f"  change: median {cm:.6g}, quartiles {c1:.6g} .. {c3:.6g}")
    wins = sum(gain(claimed, a, b) > 0 for a, b in zip(p, c))
    need = -(-9 * pairs // 10)
    gap = gain(claimed, pm, cm)
    rel_gap = gap / pm if pm else 0.0
    print(f"  change wins {wins}/{pairs} (need {need}); median gain {gap:+.6g} "
          f"({rel_gap:+.1%}), parent IQR {p3 - p1:.6g}")
    verdict = "the change is better" if wins >= need and gap > p3 - p1 else "no gain can be claimed"
    print(f"  verdict: {verdict}")

    print(f"{workload}: end-to-end medians (parent -> change, gain, bound):")
    flags = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        p, c = values("parent", name), values("change", name)
        (p1, pm, p3), cm = summary(p), statistics.median(c)
        rel = gain(name, pm, cm) / pm if pm else 0.0
        spread = (p3 - p1) / pm if pm else 0.0
        every_run_better = all(gain(name, a, b) > 0 for a in p for b in c)
        if rel < -bound:
            flag = "WORSE than bound"
        elif spread > bound and not every_run_better:
            flag = f"unresolved: parent IQR {spread:.0%} of its median"
        else:
            flag = "within bound"
        flags[name] = flag
        print(f"  {name:12s} {pm:.6g} -> {cm:.6g}  {rel:+.1%}  (bound {bound:.0%}: {flag})")
    worse = [n for n, f in flags.items() if f.startswith("WORSE")]
    unresolved = [n for n, f in flags.items() if f.startswith("unresolved")]
    rows.append((workload, wins, verdict, rel_gap, worse, unresolved))

print(f"verdicts ({claimed}, seed {seed}, {pairs} pairs per workload):")
for workload, wins, verdict, rel, worse, unresolved in rows:
    e2e = "every end-to-end metric within bound"
    if worse or unresolved:
        e2e = "; ".join(part for part in [
            f"WORSE than bound: {', '.join(worse)}" if worse else "",
            f"unresolved: {', '.join(unresolved)}" if unresolved else ""] if part)
    print(f"  {workload:16s} wins {wins}/{pairs}, gain {rel:+.1%}: {verdict}; {e2e}")
EOF
