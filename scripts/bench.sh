#!/bin/sh
# Benchmark runner: executes the paper-reproduction benchmarks (Table 1-9 at
# the repo root, plus the pbio codec microbenchmarks) with -benchmem and
# writes a machine-readable baseline to BENCH_baseline.json, so a later PR
# can diff its numbers against the committed state of the tree.
#
# Usage:
#   scripts/bench.sh                    # full run, writes BENCH_baseline.json
#   scripts/bench.sh -compare           # run, then diff against the baseline
#   scripts/bench.sh -compare OLD.json  # diff against a specific baseline
#   scripts/bench.sh -compare-only CUR.json BASE.json
#                                       # no benchmarks: just run the gate on
#                                       # two existing result files (tests/CI)
#   BENCH_TIME=100x scripts/bench.sh    # CI smoke mode: fixed tiny iteration count
#   BENCH_COUNT=1 scripts/bench.sh      # single iteration per benchmark
#   BENCH_OUT=/tmp/bench.json scripts/bench.sh  # write results elsewhere
#
# The JSON output is a line-delimited array of objects parsed from `go test
# -bench` output: name, iterations, ns/op, B/op, allocs/op.
#
# -compare re-runs the benchmarks (into BENCH_OUT, a temp file by default)
# and checks ns_per_op of the Table 1 registration and Table 2 wire-format
# codec benchmarks, the five codec stages of BenchmarkCodecLarge and the bulk
# NDR kernels against the baseline: any gated benchmark more than 25% slower
# (override with BENCH_MAX_REGRESSION) fails the script, and a gated
# benchmark MISSING from the baseline fails loudly instead of silently
# passing. Other tables are reported but not gated — they exercise whole
# pipelines whose variance on shared hardware would make the gate flaky; the
# repository benchmark (benchmark/run.sh) judges end-to-end cost under load.
# Compare against a baseline produced on the same machine; the committed
# BENCH_baseline.json is not portable across hardware.
# Requires jq.
set -eu
cd "$(dirname "$0")/.."

MODE=run
BASELINE="BENCH_baseline.json"
case "${1:-}" in
-compare)
    MODE=compare
    [ -n "${2:-}" ] && BASELINE="$2"
    ;;
-compare-only)
    MODE=compare-only
    if [ -z "${2:-}" ] || [ -z "${3:-}" ]; then
        echo "usage: bench.sh -compare-only CURRENT.json BASELINE.json" >&2
        exit 2
    fi
    OUT="$2"
    BASELINE="$3"
    if [ ! -f "$OUT" ]; then
        echo "bench: current results $OUT not found" >&2
        exit 1
    fi
    ;;
esac
if [ "$MODE" != run ]; then
    if [ ! -f "$BASELINE" ]; then
        echo "bench: baseline $BASELINE not found" >&2
        exit 1
    fi
    if ! command -v jq >/dev/null 2>&1; then
        echo "bench: compare modes need jq" >&2
        exit 1
    fi
fi

if [ "$MODE" != compare-only ]; then
    BENCH_TIME="${BENCH_TIME:-1s}"
    BENCH_COUNT="${BENCH_COUNT:-1}"
    if [ "$MODE" = compare ]; then
        OUT="${BENCH_OUT:-$(mktemp)}"
    else
        OUT="${BENCH_OUT:-BENCH_baseline.json}"
    fi
    TXT="$(mktemp)"
    trap 'rm -f "$TXT"' EXIT

    echo "== root benchmarks (Table 1-9, codec stages on the 10 KB record) + pbio codec benchmarks"
    go test -run xxx -bench 'BenchmarkTable|BenchmarkBindingVsGeneric|BenchmarkCodecLarge' -benchmem \
        -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" . | tee "$TXT"
    go test -run xxx -bench . -benchmem \
        -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" ./internal/pbio/ | tee -a "$TXT"
    echo "== bulk NDR kernels against the per-element helpers they replace"
    go test -run xxx -bench BenchmarkKernels -benchmem \
        -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" ./internal/machine/ | tee -a "$TXT"
    echo "== exemplar hot-path benchmark"
    go test -run xxx -bench BenchmarkObserveExemplar -benchmem \
        -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" ./internal/obsv/ | tee -a "$TXT"

    # Convert `go test -bench` lines into JSON. Benchmark lines look like:
    #   BenchmarkTable1Registration/native-8  1000  1234 ns/op  56 B/op  7 allocs/op
    awk '
    BEGIN { print "["; first = 1 }
    /^Benchmark/ {
        name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op")     ns = $i
            if ($(i+1) == "B/op")      bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
        }
        if (ns == "") next
        if (!first) printf ",\n"
        first = 0
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
        if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
    }
    END { print "\n]" }
    ' "$TXT" > "$OUT"

    echo "bench: wrote $(grep -c '"name"' "$OUT") results to $OUT"
fi

[ "$MODE" = run ] && exit 0

MAX="${BENCH_MAX_REGRESSION:-25}"
echo "== comparing ns/op against $BASELINE (gate: Table1 registration + Table2 codecs + codec stages + kernels >$MAX% = fail)"
GATE='^BenchmarkTable1Registration|^BenchmarkTable2WireFormats|^BenchmarkCodecLarge/|^BenchmarkKernels/[A-Za-z]+/kernel/'
REPORT="$(jq -n -r --arg gate "$GATE" --argjson max "$MAX" \
    --slurpfile base "$BASELINE" --slurpfile cur "$OUT" '
  ($base[0] | map({(.name): .ns_per_op}) | add) as $b
  | [ $cur[0][]
      | . + {base: $b[.name], gated: (.name | test($gate))}
      | . + {pct: (if .base != null and .base > 0
                   then ((.ns_per_op / .base - 1) * 100) else null end)} ]
  | (.[] | [ (if .gated and .base == null then "MISSING"
              elif .gated and .pct != null and .pct > $max then "REGRESSED"
              elif .gated then "ok"
              elif .base == null then "new"
              else "info" end),
             .name,
             (if .base != null then "\(.base) -> \(.ns_per_op) ns/op"
              else "(not in baseline) \(.ns_per_op) ns/op" end),
             (if .pct != null then "\(.pct | floor)%" else "-" end) ] | @tsv),
    "gated \(map(select(.gated)) | length) of \(length) current benchmarks",
    (if any(.gated and .base == null)
     then "RESULT: FAIL (gated benchmark missing from baseline)"
     elif any(.gated and .pct != null and .pct > $max)
     then "RESULT: FAIL (ns/op regression over threshold)"
     else "RESULT: PASS" end)
')"
printf '%s\n' "$REPORT" | column -t -s "$(printf '\t')" 2>/dev/null || printf '%s\n' "$REPORT"
case "$REPORT" in
*"RESULT: FAIL (gated benchmark missing from baseline)"*)
    echo "bench: baseline $BASELINE is missing a gated benchmark present in the current run" >&2
    echo "bench: regenerate the baseline (scripts/bench.sh) so the gate covers it" >&2
    exit 1
    ;;
*"RESULT: FAIL"*)
    echo "bench: ns/op regression over $MAX% against $BASELINE" >&2
    exit 1
    ;;
esac

# budget BENCH LIMIT fails the script when BENCH's worst ns/op in $OUT is
# over LIMIT. A result file without BENCH fails too, except under
# -compare-only, whose fixtures carry only the rows one check needs: there
# the missing check is skipped.
budget() {
    echo "== $1 budget (<= $2 ns/op)"
    ns="$(jq -r --arg re "^$1" '[.[] | select(.name | test($re)) | .ns_per_op] | max // empty' "$OUT")"
    if [ -z "$ns" ]; then
        if [ "$MODE" = compare-only ]; then
            echo "bench: $1 not in $OUT, skipping budget check (compare-only)"
            return 0
        fi
        echo "bench: $1 missing from $OUT" >&2
        exit 1
    fi
    if [ "$(printf '%.0f' "$ns")" -gt "$2" ]; then
        echo "bench: obsv $1 at $ns ns/op exceeds budget $2" >&2
        exit 1
    fi
    echo "bench: $1 at $ns ns/op (budget $2)"
}

# Absolute gate on exemplar recording: ObserveExemplar sits on the encode /
# decode / route hot paths, so it gets a hard ns/op budget (override with
# EXEMPLAR_BUDGET_NS) rather than a relative gate — the number
# must stay in tens-of-nanoseconds territory, not merely "no worse than last
# PR". The allocation guarantee (0 allocs/op steady state) is enforced by
# TestExemplarHotPathAllocs; this guards the latency side.
budget BenchmarkObserveExemplar "${EXEMPLAR_BUDGET_NS:-2000}"

