#!/usr/bin/env bash
# A/B of the end-to-end benchmark (perfbench/) between this checkout and its
# parent commit, in alternating pairs:
#
#   scripts/ab-perfbench.sh <workload> <pairs> [first-seed]
#
# The parent is HEAD when the checkout has uncommitted changes, and HEAD^
# otherwise. It is `git archive`d into the sibling directory
# ../<checkout>-ab/parent, and each side builds perfbench and bcc-served into
# a target directory of its own: the checkout into its .bench_build, the
# parent into ../<checkout>-ab/parent-build, which outlives the archive, so
# a second run against the same parent does not rebuild it. Pair i runs
# `perfbench/run.py --workload <workload> --seed <first-seed + i - 1>
# --seconds 25 --trace 0` on both sides, the parent first in odd pairs and
# the change first in even ones; first-seed defaults to 1. Every run's
# output is kept in ../<checkout>-ab/logs/.
#
# At the end it prints, per metric, the median and quartiles of both sides,
# calibrated and raw, the pairs the change read better in, and whether the
# change's median is better than the parent's by more than the parent's
# interquartile range. It also prints the 64-byte phase of the calibration's
# reference kernel `perfbench::machine::substitutions` in each build: the
# calibrated values follow it (docs/PERFORMANCE.md), so compare the raw ones
# too when the phases differ. Nothing under perfbench/ is written.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <solve_warm|mcmf|served_mix> <pairs> [first-seed]" >&2
  exit 2
fi
workload=$1
pairs=$2
first_seed=${3:-1}

change=$(cd "$(dirname "$0")/.." && pwd)
cd "$change"
if [ -z "$(git status --porcelain)" ]; then base=HEAD^; else base=HEAD; fi
work="$(dirname "$change")/$(basename "$change")-ab"
parent="$work/parent"
logs="$work/logs"
rm -rf "$parent"
mkdir -p "$parent" "$logs"
git archive "$base" | tar -x -C "$parent"
echo "parent: $(git rev-parse --short "$base") in $parent" >&2

# Usage: build <checkout> <target directory>
build() {
  (
    cd "$1"
    export CARGO_TARGET_DIR="$2"
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
    cargo build --release --offline --quiet --manifest-path Cargo.toml -p bcc-served
  )
}

# The address of the reference kernel in a target directory's build, modulo 64.
phase() {
  local address
  address=$(nm -C "$1/release/perfbench" | awk '/machine::substitutions/ { print $1; exit }')
  echo $((16#$address % 64))
}

# Usage: run <side> <checkout> <target directory> <seed>
run() {
  (
    cd "$2"
    CARGO_TARGET_DIR="$3" python3 perfbench/run.py --workload "$workload" \
      --seed "$4" --seconds 25 --trace 0
  ) > "$logs/$workload-$4-$1.log" 2>&1
  echo "pair seed $4: $1 done" >&2
}

build "$parent" "$work/parent-build"
build "$change" "$change/.bench_build"
for i in $(seq 1 "$pairs"); do
  seed=$((first_seed + i - 1))
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$work/parent-build" "$seed"
    run change "$change" "$change/.bench_build" "$seed"
  else
    run change "$change" "$change/.bench_build" "$seed"
    run parent "$parent" "$work/parent-build" "$seed"
  fi
done

echo "substitutions phase: parent $(phase "$work/parent-build"), change $(phase "$change/.bench_build")"
python3 - "$logs" "$workload" "$first_seed" "$pairs" <<'PY'
import json, re, statistics, sys

logs, workload, first, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
line = re.compile(r"^\s+(\w+)\s+([-\d.]+) \S+\s*(?:\(raw ([-\d.]+)\))?")


def read(side, seed):
    text = open(f"{logs}/{workload}-{seed}-{side}.log").read()
    result = json.loads(text.strip().splitlines()[-1])
    raw = {m[1]: float(m[3]) for m in map(line.match, text.splitlines()) if m and m[3]}
    return result, raw


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], statistics.median(xs), q[2]


runs = {side: [read(side, s) for s in range(first, first + pairs)] for side in ("parent", "change")}
for side in runs:
    bad = [first + i for i, (r, _) in enumerate(runs[side]) if not r["correct"] or r["failed"]]
    if bad:
        print(f"{side}: runs with seeds {bad} were not correct or had failures")
metrics = runs["parent"][0][0]["metrics"]
print(f"{workload}, {pairs} pairs, seeds {first}-{first + pairs - 1}: median [Q1, Q3]")
print(f"{'metric':<22} {'parent':>32} {'change':>32} {'better':>7} beyond-IQR")
per_pair = []
for name, spec in metrics.items():
    lower = spec["unit"] != "1/s"
    for kind in ("cal", "raw"):
        if kind == "cal":
            value = lambda run: run[0]["metrics"][name]["value"]
        elif name in runs["parent"][0][1]:
            value = lambda run: run[1][name]
        else:
            continue
        a = [value(r) for r in runs["parent"]]
        b = [value(r) for r in runs["change"]]
        better = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        beyond = (am - bm if lower else bm - am) > a3 - a1
        cell = lambda q1, m, q3: f"{m:.6g} [{q1:.6g}, {q3:.6g}]"
        label = f"{name} ({kind})"
        print(f"{label:<22} {cell(a1, am, a3):>32} {cell(b1, bm, b3):>32} {better:>3}/{pairs:<3} {beyond}")
        per_pair.append(f"{label}: " + "  ".join(f"{x:.4g}/{y:.4g}" for x, y in zip(a, b)))
print("per pair, parent/change, in seed order:")
print("\n".join(per_pair))
PY
