#!/usr/bin/env bash
# Mutation kill matrix: applies each mutant of a mutant list to a scratch
# copy of the repository, runs the test suite there (`cargo test
# --no-fail-fast`, libtest quiet: cargo's own `-q` would hide the
# per-target `Running` lines that name each failing test's target), and
# records which tests fail.
#
#   scripts/mutants.sh                     every mutant of tests/mutants.txt
#   scripts/mutants.sh NAME...             only the named mutants
#
# Environment:
#   MUTANTS_LIST  mutant list (default tests/mutants.txt)
#   MUTANTS_OUT   kill matrix to write (default MUTANTS.json at the root)
#   MUTANTS_DIR   scratch directory (default a fresh mktemp -d); the copy
#                 lives in $MUTANTS_DIR/tree and builds into its own
#                 CARGO_TARGET_DIR, $MUTANTS_DIR/target
#
# A list line holds four tab-separated fields — name, file, the exact
# `from` text and its `to` replacement — and an optional fifth: the
# written reason a survivor is acceptable. `#` lines are comments. The
# script refuses a `from` that does not occur exactly once in its file.
#
# Each kill is classed `semantic` when some failing test checks a
# theorem, an audit, an oracle or an invariant, and `golden-only` when
# every failing test is a golden or bit-identity comparison (the names
# matched by GOLDEN below), `build` when the mutant does not compile.
# Exits 1 if a mutant survives without a written reason.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
list="${MUTANTS_LIST:-$root/tests/mutants.txt}"
out="${MUTANTS_OUT:-$root/MUTANTS.json}"
work="${MUTANTS_DIR:-$(mktemp -d)}"
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

# Tests that compare bytes, or one backend's or path's output against
# another's, rather than checking a property: a failure of only these is
# a golden-only kill. Matched against `<target>::<test>`.
GOLDEN='^(batch_runner|gen_pipe|figure1_contract)::|golden|bit_for_bit|identical|matches_driver|equivalence|equal|agree|do_not_depend'

# The scratch copy: every file but build output and git metadata.
rm -rf "$tree"
mkdir -p "$tree"
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./.bench_build \
    --exclude=./benchmark/target -cf - . | tar -C "$tree" -xf -

# Checks every line of the list before any test runs.
declare -a names files froms tos reasons
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in '#'* | '') continue ;; esac
    IFS=$'\t' read -r name file from to reason <<<"$line"
    if [ -z "${to:-}" ]; then
        echo "mutants: \`$name\`: need name, file, from and to (tab-separated)" >&2
        exit 2
    fi
    count=$(python3 -c 'import sys; print(open(sys.argv[1]).read().count(sys.argv[2]))' \
        "$tree/$file" "$from")
    if [ "$count" != 1 ]; then
        echo "mutants: \`$name\`: \`$from\` occurs $count times in $file, not once" >&2
        exit 2
    fi
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qxF -- "$name"; then
        continue
    fi
    names+=("$name") files+=("$file") froms+=("$from") tos+=("$to")
    reasons+=("${reason:-}")
done <"$list"

unexplained=0
rows="$work/rows.jsonl"
: >"$rows"
for i in "${!names[@]}"; do
    name="${names[$i]}" file="$tree/${files[$i]}"
    cp "$file" "$work/pristine"
    python3 -c 'import sys; p, a, b = sys.argv[1:]; s = open(p).read(); open(p, "w").write(s.replace(a, b, 1))' \
        "$file" "${froms[$i]}" "${tos[$i]}"
    log="$work/$name.log"
    start=$(date +%s)
    # tests/mutants_list.rs checks this list against the unmutated tree,
    # so it fails under every mutant by construction: skip it here.
    (cd "$tree" && cargo test --no-fail-fast -- -q \
        --skip every_mutant_from_text_occurs_once_in_its_file) >"$log" 2>&1 && status=0 || status=$?
    cp "$work/pristine" "$file"
    # Failing tests as `<target>::<test>`: cargo's "Running" line names the
    # target; libtest's second "failures:" block lists the tests.
    failing=$(awk '
        /^ +Running / { t = $NF; gsub(/[()]/, "", t); sub(/^.*\//, "", t); sub(/-[0-9a-f]+$/, "", t); next }
        /^ +Doc-tests / { t = "doctest_" $2; next }
        /^failures:$/ { pending = 1; next }
        pending && /^$/ { next }
        pending { pending = 0; if ($0 ~ /^    [^ ]/) in_list = 1 }
        in_list && /^    [^ ]/ { sub(/^ +/, ""); print t "::" $0; next }
        { in_list = 0 }
    ' "$log" | sort -u)
    if [ "$status" = 0 ]; then
        class=survived
    elif grep -q '^error\[E' "$log" || grep -q '^error: could not compile' "$log"; then
        class=build
    elif [ -z "$failing" ]; then
        class=semantic # a test binary aborted: a crash is a property failure
    elif echo "$failing" | grep -qvE "$GOLDEN"; then
        class=semantic
    else
        class=golden-only
    fi
    if [ "$class" = survived ] && [ -z "${reasons[$i]}" ]; then
        unexplained=1
    fi
    printf 'mutants: %-28s %-12s %3d failing (%ss)\n' "$name" "$class" \
        "$(echo "$failing" | grep -c . || true)" "$(($(date +%s) - start))" >&2
    echo "$failing" | python3 -c '
import json, sys
name, file, frm, to, kill, reason = sys.argv[1:]
failing = [l for l in sys.stdin.read().splitlines() if l]
print(json.dumps({"name": name, "file": file, "from": frm, "to": to,
                  "kill": kill, "reason": reason, "failing": failing}))
' "$name" "${files[$i]}" "${froms[$i]}" "${tos[$i]}" "$class" "${reasons[$i]}" >>"$rows"
done

python3 -c '
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
open(sys.argv[2], "w").write(json.dumps(rows, indent=2, ensure_ascii=False) + "\n")
' "$rows" "$out"

if [ "$unexplained" = 1 ]; then
    echo "mutants: a mutant survived without a written reason (see $out)" >&2
    exit 1
fi
