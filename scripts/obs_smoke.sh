#!/bin/sh
# Telemetry smoke test: run a live checkpointed mining sweep with the
# metrics endpoint and tracing enabled, scrape /metrics mid-run, and require
# the httpx / pool / journal series the dashboards depend on, in valid
# Prometheus exposition shape. Then require the trace file to be well-formed
# Chrome trace_event JSON with the expected span names.
#
# Exercised non-gating by CI (timing on shared runners is noisy) and locally
# via `make obs-smoke`.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/elevmine" ./cmd/elevmine

port=19377
addr="127.0.0.1:$port"

echo "==> mining sweep with -metrics-addr $addr and -trace-out"
# -rps slows the sweep enough that the scrape below reliably lands mid-run;
# -faultrate makes the retry/breaker series move.
"$workdir/elevmine" -segments 40 -grid 6 -samples 30 -seed 7 -rps 200 -faultrate 0.1 \
    -checkpoint "$workdir/ck" -trace-out "$workdir/trace.json" \
    -metrics-addr "$addr" >"$workdir/run.log" 2>&1 &
pid=$!

echo "==> polling /metrics for live series"
scrape="$workdir/metrics.txt"
found=0
for i in $(seq 1 50); do
    if curl -sf "http://$addr/metrics" >"$scrape" 2>/dev/null \
        && grep -q "elevpriv_httpx_attempts_total" "$scrape"; then
        found=1
        break
    fi
    sleep 0.2
done
if [ "$found" != 1 ]; then
    echo "FAIL: /metrics never exposed elevpriv_httpx_attempts_total" >&2
    kill "$pid" 2>/dev/null || true
    cat "$workdir/run.log" >&2 || true
    exit 1
fi
echo "    live scrape captured mid-sweep"

wait "$pid"
grep -E "total mined" "$workdir/run.log" || true

echo "==> required series present"
for series in \
    'elevpriv_httpx_attempts_total{service="segments"}' \
    'elevpriv_httpx_retries_total{service="segments"}' \
    'elevpriv_pool_breaker_state{service="segments"' \
    elevpriv_pool_queue_depth \
    elevpriv_pool_units_dispatched_total \
    elevpriv_journal_appends_total \
    elevpriv_journal_fsync_seconds_bucket
do
    if ! grep -qF "$series" "$scrape"; then
        echo "FAIL: series $series missing from /metrics" >&2
        exit 1
    fi
done
echo "    all required series found"

echo "==> exposition format sanity"
# Every non-comment line must be <name{labels}> <value>; every family must
# carry a # TYPE line.
awk '
    /^#/ { next }
    !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.+eE-]+(e[+-][0-9]+)?$/ {
        print "bad exposition line: " $0; bad=1
    }
    END { exit bad }
' "$scrape"
types=$(grep -c '^# TYPE ' "$scrape")
echo "    $types metric families, all lines well-formed"

echo "==> trace file sanity"
python3 - "$workdir/trace.json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
evs = t["traceEvents"]
assert evs, "trace has no events"
names = {e["name"] for e in evs}
assert any(n.startswith("mine/") for n in names), f"no mine/ spans in {names}"
for e in evs:
    assert e["ph"] == "X" and e["dur"] >= 0 and "ts" in e, e
print(f"    {len(evs)} spans, Chrome trace_event shape OK")
EOF

echo "OK: telemetry layer live-scrapes and traces a real sweep"
