#!/bin/sh
# serve-smoke: end-to-end smoke test of mlcg-serve over a real socket.
# Starts the daemon (JSON structured logs), ingests a small METIS graph,
# builds a hierarchy, runs a partition query, scrapes /metrics into
# $METRICS_OUT and lints the exposition, checks the /debug/requests
# flight recorder, asserts one structured log line per smoke request, and
# checks graceful SIGTERM drain. Then the warm-restart leg: a second
# instance on the same -cache-dir must answer the same build and query
# from the spilled .mlcg container — no re-ingest, no recoarsening —
# which the /metrics counters prove (mlcg_hier_disk_hits_total 1,
# mlcg_builds_completed_total 0), and then partitions a path with one
# 2^40 edge and must still answer /healthz. Exits non-zero on any
# failure. Used by `make serve-smoke` and CI (which re-lints the scrape
# via `make metrics-lint`).
set -eu

ADDR="${MLCG_SERVE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
METRICS_OUT="${METRICS_OUT:-/tmp/mlcg-metrics.prom}"
TMP="$(mktemp -d)"
PID=""

cleanup() {
    if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
        kill -9 "$PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    for LOG in "$TMP"/serve*.log; do
        [ -f "$LOG" ] || continue
        echo "--- $LOG ---" >&2
        cat "$LOG" >&2 || true
    done
    exit 1
}

echo "serve-smoke: building mlcg-serve"
go build -o "$TMP/mlcg-serve" ./cmd/mlcg-serve

CACHE="$TMP/cache"

echo "serve-smoke: starting on $ADDR (cache-dir $CACHE)"
"$TMP/mlcg-serve" -addr "$ADDR" -build-workers 2 -log-format json -cache-dir "$CACHE" 2>"$TMP/serve.log" &
PID=$!

# Wait for the listener.
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "server did not come up"
    kill -0 "$PID" 2>/dev/null || fail "server exited early"
    sleep 0.1
done

# A 7-vertex METIS graph (the METIS manual's example).
cat >"$TMP/graph.metis" <<'EOF'
7 11
5 3 2
1 3 4
5 4 2 1
2 3 6 7
1 3 6
5 4 7
6 4
EOF

echo "serve-smoke: ingesting graph"
GID=$(curl -sf --data-binary @"$TMP/graph.metis" "$BASE/v1/graphs" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$GID" ] || fail "ingest returned no graph id"

echo "serve-smoke: building hierarchy for $GID"
HID=$(curl -sf -d "{\"graph\":\"$GID\",\"cutoff\":2}" "$BASE/v1/hierarchies?wait=1" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$HID" ] || fail "build returned no hierarchy id"

STATUS=$(curl -sf "$BASE/v1/hierarchies/$HID" | sed -n 's/.*"status":"\([^"]*\)".*/\1/p')
[ "$STATUS" = "done" ] || fail "hierarchy status is '$STATUS', want done"

echo "serve-smoke: partition query"
CUT=$(curl -sf -d "{\"hierarchy\":\"$HID\",\"k\":2}" "$BASE/v1/partition" \
    | sed -n 's/.*"cut":\([0-9-]*\).*/\1/p')
[ -n "$CUT" ] || fail "partition returned no cut"

# The spill runs on the build worker after waiters are released, so it
# can trail the ?wait=1 response by a moment; wait for the file.
echo "serve-smoke: waiting for hierarchy spill $CACHE/$HID.mlcg"
i=0
until [ -f "$CACHE/$HID.mlcg" ]; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "hierarchy was not spilled to $CACHE within 5s"
    sleep 0.1
done

echo "serve-smoke: metrics scrape -> $METRICS_OUT"
curl -sf "$BASE/metrics" >"$METRICS_OUT" || fail "metrics scrape failed"
grep -q "mlcg_builds_completed_total 1" "$METRICS_OUT" || fail "metrics missing completed build"
grep -q "mlcg_hier_spills_total 1" "$METRICS_OUT" || fail "metrics missing hierarchy spill"
grep -q "mlcg_queries_partition_total 1" "$METRICS_OUT" || fail "metrics missing partition query"
grep -q '^# TYPE mlcg_build_run_seconds histogram$' "$METRICS_OUT" || fail "metrics missing build latency histogram"
grep -q 'mlcg_query_seconds_bucket{kind="partition",le="+Inf"} 1' "$METRICS_OUT" || fail "metrics missing query histogram bucket"

echo "serve-smoke: metrics exposition lint"
go run ./cmd/mlcg-tracecheck -prom "$METRICS_OUT" || fail "metrics exposition lint failed"

echo "serve-smoke: flight recorder"
FLIGHT=$(curl -sf "$BASE/debug/requests")
echo "$FLIGHT" | grep -q '"slowest"' || fail "/debug/requests missing slowest set"
echo "$FLIGHT" | grep -q '"kind":"build"' || fail "/debug/requests missing the build record"
echo "$FLIGHT" | grep -q '"outcome":"ok"' || fail "/debug/requests records not ok"

echo "serve-smoke: structured request logs"
for KIND in ingest build partition; do
    N=$(grep -c "\"msg\":\"$KIND\"" "$TMP/serve.log" || true)
    [ "$N" = "1" ] || fail "expected exactly 1 '$KIND' log line, got $N"
done

echo "serve-smoke: graceful drain (SIGTERM)"
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "server did not drain within 10s of SIGTERM"
    sleep 0.1
done
wait "$PID" 2>/dev/null || fail "server exited non-zero on SIGTERM drain"
grep -q "drained cleanly" "$TMP/serve.log" || fail "no clean-drain log line"
PID=""

# Warm-restart leg: a fresh instance on the same cache directory must
# answer the same build and query from the spilled container — without
# the graph ever being re-ingested and without running a single build.
echo "serve-smoke: warm restart on $CACHE"
"$TMP/mlcg-serve" -addr "$ADDR" -build-workers 2 -log-format json -cache-dir "$CACHE" 2>"$TMP/serve2.log" &
PID=$!

i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "restarted server did not come up"
    kill -0 "$PID" 2>/dev/null || fail "restarted server exited early"
    sleep 0.1
done

echo "serve-smoke: re-issuing build (no re-ingest)"
HID2=$(curl -sf -d "{\"graph\":\"$GID\",\"cutoff\":2}" "$BASE/v1/hierarchies?wait=1" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ "$HID2" = "$HID" ] || fail "warm restart returned hierarchy '$HID2', want $HID"

STATUS=$(curl -sf "$BASE/v1/hierarchies/$HID" | sed -n 's/.*"status":"\([^"]*\)".*/\1/p')
[ "$STATUS" = "done" ] || fail "warm-restarted hierarchy status is '$STATUS', want done"

echo "serve-smoke: partition query against the disk-loaded hierarchy"
CUT2=$(curl -sf -d "{\"hierarchy\":\"$HID\",\"k\":2}" "$BASE/v1/partition" \
    | sed -n 's/.*"cut":\([0-9-]*\).*/\1/p')
[ "$CUT2" = "$CUT" ] || fail "warm-restart partition cut '$CUT2' differs from first run's '$CUT'"

echo "serve-smoke: warm-restart metrics"
curl -sf "$BASE/metrics" >"$TMP/metrics2.prom" || fail "warm-restart metrics scrape failed"
grep -q "mlcg_hier_disk_hits_total 1" "$TMP/metrics2.prom" || fail "warm restart did not load from disk"
grep -q "mlcg_builds_completed_total 0" "$TMP/metrics2.prom" || fail "warm restart recoarsened instead of loading"
grep -q "mlcg_hier_load_errors_total 0" "$TMP/metrics2.prom" || fail "warm restart hit load errors"

# A valid graph with one huge edge weight: a 40-vertex path whose edge
# {20, 21} weighs 2^40. It is at or below the cutoff, so the partition
# query refines the input itself, and FM must not size anything by that
# weight.
echo "serve-smoke: partition query on a path with one 2^40 edge"
{
    echo "40 39"
    i=0
    while [ "$i" -lt 39 ]; do
        W=1
        [ "$i" -eq 20 ] && W=1099511627776
        echo "$i $((i + 1)) $W"
        i=$((i + 1))
    done
} >"$TMP/heavy.txt"
HGID=$(curl -sf --data-binary @"$TMP/heavy.txt" "$BASE/v1/graphs?format=edgelist" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$HGID" ] || fail "heavy-edge ingest returned no graph id"
HHID=$(curl -sf -d "{\"graph\":\"$HGID\"}" "$BASE/v1/hierarchies?wait=1" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$HHID" ] || fail "heavy-edge build returned no hierarchy id"
HCUT=$(curl -s -d "{\"hierarchy\":\"$HHID\",\"k\":2}" "$BASE/v1/partition" \
    | sed -n 's/.*"cut":\([0-9-]*\).*/\1/p')
[ -n "$HCUT" ] || fail "heavy-edge partition returned no cut"
curl -sf "$BASE/healthz" >/dev/null || fail "server stopped answering after the heavy-edge partition"

echo "serve-smoke: graceful drain of the restarted server (SIGTERM)"
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "restarted server did not drain within 10s of SIGTERM"
    sleep 0.1
done
wait "$PID" 2>/dev/null || fail "restarted server exited non-zero on SIGTERM drain"
grep -q "drained cleanly" "$TMP/serve2.log" || fail "no clean-drain log line after warm restart"
PID=""

echo "serve-smoke: OK (graph=$GID hierarchy=$HID cut=$CUT warm-restart=hit heavy-edge cut=$HCUT)"
