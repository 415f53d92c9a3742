#!/usr/bin/env bash
# openmetrics_check.sh — golden-output validity check for the /metrics
# OpenMetrics exposition. Boots a real eventbusd, drives traced traffic
# through it with ompub, then fetches /metrics with content negotiation and
# validates the exemplar grammar line by line:
#
#   - the negotiated Content-Type is application/openmetrics-text
#   - the exposition ends with the mandatory "# EOF" terminator
#   - every counter sample is named <family>_total under a bare
#     "# TYPE <family> counter" line
#   - every exemplar annotation (" # {...}") sits on a _bucket series and
#     nowhere else — exemplars on counters/gauges are invalid OpenMetrics
#   - each exemplar labelset is exactly {trace_id="<32 lowercase hex>"}
#     followed by a value and a <sec>.<9-digit nanos> timestamp, so label
#     escaping can never be wrong for the IDs we emit
#   - at least one exemplar line exists (the traffic was traced, so the
#     broker's routing histogram must carry one)
#   - the plain (Prometheus text) negotiation emits neither exemplars nor
#     the "# EOF" terminator, and its counter samples keep the bare name
#   - omtop -once reads the exposition back: the broker's routing histogram
#     has a row with quantiles and an ex=<short TraceID> cell
#
# Usage: scripts/openmetrics_check.sh
# Env:   OM_OUT  file to keep the exposition in (default: temp, removed)
set -euo pipefail
cd "$(dirname "$0")/.."

BROKER=127.0.0.1:8711
DBG=127.0.0.1:8791
BIN="$(mktemp -d)"
OUT="${OM_OUT:-$BIN/metrics.om}"

echo "openmetrics: building binaries"
go build -o "$BIN" ./cmd/eventbusd ./cmd/ompub ./cmd/omtop

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

"$BIN/eventbusd" -addr "$BROKER" -debug-addr "$DBG" -trace-sample 1 &
PIDS+=($!)
for _ in $(seq 50); do
    curl -sf "http://$DBG/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done

echo "openmetrics: publishing traced demo traffic"
"$BIN/ompub" -broker "$BROKER" -demo flights -n 50 -trace-sample 1 >/dev/null

HDR="$BIN/headers"
curl -sf -D "$HDR" -H 'Accept: application/openmetrics-text' "http://$DBG/metrics" >"$OUT"

grep -qi '^content-type: application/openmetrics-text' "$HDR" || {
    echo "openmetrics: FAIL — negotiation did not switch Content-Type:" >&2
    cat "$HDR" >&2
    exit 1
}

FAIL=0
if [ "$(tail -n 1 "$OUT")" != "# EOF" ]; then
    echo "openmetrics: missing # EOF terminator (last line: $(tail -n 1 "$OUT"))" >&2
    FAIL=1
fi
EX_TOTAL="$(grep -c ' # {' "$OUT" || true)"
if [ "$EX_TOTAL" -eq 0 ]; then
    echo "openmetrics: no exemplar lines despite traced traffic" >&2
    FAIL=1
fi
# Every exemplar annotation must sit on a _bucket series and carry exactly
# {trace_id="<32 hex>"} <value> <sec>.<9-digit nanos>.
GRAMMAR='^[A-Za-z_:][A-Za-z0-9_:]*_bucket\{[^}]*\} [0-9]+ # \{trace_id="[0-9a-f]{32}"\} -?[0-9]+ [0-9]+\.[0-9]{9}$'
if grep ' # {' "$OUT" | grep -Ev "$GRAMMAR" >&2; then
    echo "openmetrics: malformed exemplar line(s) above" >&2
    FAIL=1
fi
# OpenMetrics names every counter sample <family>_total; the family name in
# the # TYPE line stays bare.
if ! grep -q '^# TYPE eventbus_published counter$' "$OUT"; then
    echo "openmetrics: no eventbus_published counter family" >&2
    FAIL=1
fi
if awk '/^# TYPE [^ ]+ counter$/ { fam = $3; next }
        /^#/ { fam = ""; next }
        fam != "" { n = $1; sub(/\{.*/, "", n); if (n != fam "_total") print }' "$OUT" | grep . >&2; then
    echo "openmetrics: counter sample(s) above lack the _total suffix" >&2
    FAIL=1
fi
[ "$FAIL" -eq 0 ] || { echo "openmetrics: FAIL — invalid exposition in $OUT" >&2; exit 1; }

PLAIN="$BIN/metrics.prom"
curl -sf "http://$DBG/metrics" >"$PLAIN"
if grep -q 'trace_id=' "$PLAIN" || grep -q '^# EOF$' "$PLAIN" || ! grep -q '^eventbus_published [0-9]' "$PLAIN"; then
    echo "openmetrics: FAIL — plain Prometheus negotiation leaked OpenMetrics syntax" >&2
    exit 1
fi

TOP="$BIN/omtop.txt"
"$BIN/omtop" -addr "$DBG" -once >"$TOP"
if ! grep -Eq '^eventbus_route_ns +[0-9.]+( +[0-9]+){3}  ex=[0-9a-f]{16}$' "$TOP"; then
    echo "openmetrics: FAIL — omtop -once shows no eventbus_route_ns row with an ex= cell:" >&2
    cat "$TOP" >&2
    exit 1
fi

echo "openmetrics: OK — $(grep -c ' # {' "$OUT") exemplar line(s), valid grammar, _total counters, # EOF terminated, omtop reads it"
