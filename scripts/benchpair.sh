#!/usr/bin/env bash
# benchpair.sh — judge one tree against another on the repository benchmark
# by alternating pairs of runs on one machine.
#
# Usage: scripts/benchpair.sh <refA> <refB> [-workload w] [-pairs N] [-seed s]
#
# Each side is a directory holding a checkout, taken as it is, or a git ref,
# exported with `git archive` into a temporary directory (nothing is left in
# .git when the script is cut short). Each side is built once by its own
# benchmark/run.sh, and that first run is discarded: the first process after
# a build reads cold files, which shows in setup_s. Later runs start the
# built binary, so a change to a side's sources during the runs is not
# picked up. Then, for each workload
# (default: all four of BENCHMARK.json), N pairs (default 10) run A,B then
# B,A alternately, every run on the same seed (default 1) for BENCHMARK.json's
# run_seconds. The metrics come from the JSON line each run ends with.
#
# For every end-to-end metric it prints each side's median and quartiles,
# how many of the N pairs B wins in the metric's better direction (ties count
# for neither), the shift of the medians, and whether that shift exceeds A's
# interquartile range: the rule a timed claim is held to (choosing-metrics
# guide, §8). Counts and bytes are printed as exact deltas. Each run's output
# stays in the printed log directory.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

usage() { echo "usage: $0 <refA> <refB> [-workload w] [-pairs N] [-seed s]" >&2; exit 2; }
[ $# -ge 2 ] || usage
refA=$1 refB=$2
shift 2
workloads="" pairs=10 seed=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	-workload) workloads=$2 ;;
	-pairs) pairs=$2 ;;
	-seed) seed=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$workloads" ] || workloads=$(jq -r '.workloads[].name' "$root/BENCHMARK.json")
seconds=$(jq -r .run_seconds "$root/BENCHMARK.json")

work=$(mktemp -d)
trap 'rm -rf "$work/A" "$work/B"' EXIT
checkout() { # side ref
	if [ -d "$2" ]; then
		(cd "$2" && pwd)
		return
	fi
	mkdir "$work/$1"
	git -C "$root" archive "$2" | tar -x -C "$work/$1"
	echo "$work/$1"
}
dirA=$(checkout A "$refA")
dirB=$(checkout B "$refB")
echo "A = $refA ($dirA)"
echo "B = $refB ($dirB)"
echo "logs in $work"

run() { # side dir workload out [build]
	local cmd=.bench_build/benchmark
	[ $# -eq 5 ] && cmd="bash benchmark/run.sh"
	if ! (cd "$2" && $cmd --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0) >"$4" 2>&1; then
		echo "  run $1 $3 exited non-zero (see $4)" >&2
	fi
	tail -n 1 "$4" | jq -e .metrics >/dev/null || { echo "no JSON line in $4" >&2; exit 1; }
}

# The build, through each side's own run.sh, and the run discarded after it.
first=${workloads%% *}
run A "$dirA" "$first" "$work/warmup-A.log" build
run B "$dirB" "$first" "$work/warmup-B.log" build

for w in $workloads; do
	echo
	echo "== $w: $pairs pairs, seed $seed, ${seconds}s"
	for i in $(seq 1 "$pairs"); do
		order="A B"
		[ $((i % 2)) -eq 0 ] && order="B A"
		for side in $order; do
			dir=$dirA
			[ "$side" = B ] && dir=$dirB
			run "$side" "$dir" "$w" "$work/$w-$i-$side.log"
		done
	done
	python3 - "$root/BENCHMARK.json" "$work" "$w" "$pairs" <<'EOF'
import json, statistics, sys

bench, work, w, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
metrics = json.load(open(bench))["end_to_end"]
exact = {"count", "B", "share"}

def last_json(path):
    with open(path) as f:
        return json.loads(f.read().strip().splitlines()[-1])["metrics"]

runs = {s: [last_json(f"{work}/{w}-{i}-{s}.log") for i in range(1, pairs + 1)] for s in "AB"}

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':22} {'A median [q1..q3]':>34} {'B median [q1..q3]':>34} {'B-A':>12} {'%':>7} {'B wins':>7} resolved")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [r[name]["value"] for r in runs["A"]]
    b = [r[name]["value"] for r in runs["B"]]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    shift = bm - am
    pct = f"{100 * shift / am:+.1f}" if am else "n/a"
    if m["unit"] in exact:
        cell = lambda q1, md, q3: f"{md:.6g} [{q1:.6g}..{q3:.6g}]"
        delta = f"{shift:+.6g}"
    else:
        cell = lambda q1, md, q3: f"{md:.4g} [{q1:.4g}..{q3:.4g}]"
        delta = f"{shift:+.4g}"
    resolved = "yes" if abs(shift) > a3 - a1 else "no"
    print(f"{name:22} {cell(a1, am, a3):>34} {cell(b1, bm, b3):>34} {delta:>12} {pct:>7} {wins:>4}/{pairs} {resolved}")
EOF
done
