#!/bin/sh
# Live-ingestion smoke test: the crash-recovery contract end to end, over
# real processes and real sockets. A firehose client streams 400 synthetic
# activities at an elevingest server whose classifier is deliberately
# stalled (capacity far below the offered rate, tiny spool), so accepted
# activities spill through the intake journal. Mid-stream the server is
# SIGKILLed. A fresh server on the same state directory must:
#
#   - restore the accepted-but-unclassified backlog from the journals and
#     replay it (restored > 0, replayed > 0 on /ingest/stats),
#   - let the client's retrying uploads complete: every activity accepted
#     exactly once, none lost, none classified twice (results == 400),
#   - serve a /ingest/results dump byte-identical to the offline batch
#     path over the same NDJSON (elevingest -offline) — same model, same
#     dedupe, same order, same bytes,
#   - drain gracefully on SIGTERM and exit 0.
#
# Exercised non-gating by CI (kill timing on shared runners is noisy) and
# locally via `make ingest-smoke`. The deterministic equivalents run under
# make check (internal/ingest crash-recovery, spill/replay, and
# exactly-once pipeline tests).
set -eu

workdir=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "==> building elevattack, elevingest"
go build -o "$workdir/elevattack" ./cmd/elevattack
go build -o "$workdir/elevingest" ./cmd/elevingest

addr="127.0.0.1:19521"
base="http://$addr"
state="$workdir/state"

echo "==> training the TM-1 attack model the service loads"
"$workdir/elevattack" -tm 1 -scale 0.05 -classifier mlp -folds 2 -seed 5 \
    -save "$workdir/attack.bin" >"$workdir/train.log" 2>&1
test -s "$workdir/attack.bin"

wait_healthy() {
    up=0
    for _ in $(seq 1 50); do
        if curl -sf "$base/healthz" >/dev/null 2>&1; then
            up=1
            break
        fi
        sleep 0.2
    done
    if [ "$up" != 1 ]; then
        echo "FAIL: server on $addr never answered /healthz" >&2
        cat "$1" >&2 || true
        exit 1
    fi
}

# Server 1: classifier stalled 250ms per batch of <=8 (capacity ~32/s
# against a ~120/s firehose) and a tiny spool, so accepted activities
# overflow into the journal-backed backlog almost immediately.
echo "==> server 1 up (stalled classifier, tiny spool)"
"$workdir/elevingest" -addr "$addr" -dir "$state" -attack "$workdir/attack.bin" \
    -spool 8 -max-batch 8 -fault-stall-prob 1 -fault-stall 250ms \
    >"$workdir/server1.log" 2>&1 &
server1=$!
pids="$pids $server1"
wait_healthy "$workdir/server1.log"

# The firehose: 400 deterministic activities written to all.ndjson (the
# offline baseline's input) and cut into 10-line chunks, POSTed at ~120/s.
# curl retries every failure, a refused connection during the kill window
# included, and a chunk body is a file, so a retry resends the same bytes.
# The client exits 0 only once the server's results ledger holds all 400.
echo "==> firehose client streaming 400 activities"
mkdir "$workdir/chunks"
python3 - "$workdir" <<'EOF'
import json, random, sys
workdir = sys.argv[1]
rng = random.Random(11)
regions = ["Washington DC", "Orlando"]
lines = []
for i in range(400):
    e, elevs = rng.uniform(0, 300), []
    for _ in range(rng.randint(60, 240)):
        e = max(0.0, e + rng.gauss(0, 1.5))
        elevs.append(round(e, 2))
    lines.append(json.dumps({"id": f"act-{i:04d}", "region": rng.choice(regions),
                             "elevations": elevs}) + "\n")
with open(f"{workdir}/all.ndjson", "w") as f:
    f.writelines(lines)
for c in range(0, 400, 10):
    with open(f"{workdir}/chunks/{c:04d}.ndjson", "w") as f:
        f.writelines(lines[c:c + 10])
EOF
(
    for chunk in "$workdir"/chunks/*.ndjson; do
        curl -sf --retry 60 --retry-all-errors --retry-delay 1 \
            -H 'Content-Type: application/x-ndjson' \
            --data-binary @"$chunk" "$base/ingest" >/dev/null || exit 1
        sleep 0.08
    done
    echo "streamed 400 activities"
    for _ in $(seq 1 180); do
        if curl -sf "$base/ingest/stats" 2>/dev/null |
            python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"] != 400)'; then
            exit 0
        fi
        sleep 1
    done
    echo "results ledger never reached 400" >&2
    exit 1
) >"$workdir/client.log" 2>&1 &
client=$!
pids="$pids $client"

# Wait until accepted activities have actually spilled to the journal
# backlog, then SIGKILL the server mid-firehose.
spilled=0
for _ in $(seq 1 100); do
    if curl -sf "$base/metrics" 2>/dev/null \
        | grep '^elevpriv_ingest_spilled_total' | grep -qv ' 0$'; then
        spilled=1
        break
    fi
    sleep 0.1
done
if [ "$spilled" != 1 ]; then
    echo "FAIL: no spill observed before the kill window" >&2
    cat "$workdir/server1.log" >&2 || true
    exit 1
fi
kill -9 "$server1"
echo "    server 1 SIGKILLed with spilled activities in flight"

# Server 2: same state directory, healthy classifier. It must restore the
# accepted-but-unclassified backlog and replay it while the client's
# retries finish the stream.
echo "==> server 2 up on the same state directory"
"$workdir/elevingest" -addr "$addr" -dir "$state" -attack "$workdir/attack.bin" \
    >"$workdir/server2.log" 2>&1 &
server2=$!
pids="$pids $server2"
wait_healthy "$workdir/server2.log"
if ! grep -q '^recovery:' "$workdir/server2.log"; then
    echo "FAIL: server 2 restored nothing from the journals" >&2
    cat "$workdir/server2.log" >&2 || true
    exit 1
fi
grep '^recovery:' "$workdir/server2.log"

if ! wait "$client"; then
    echo "FAIL: firehose client exited nonzero" >&2
    cat "$workdir/client.log" >&2 || true
    exit 1
fi
cat "$workdir/client.log"

echo "==> exactly-once ledger: 400 results, restored > 0, replayed > 0"
curl -sf "$base/ingest/stats" >"$workdir/stats.json"
python3 - "$workdir/stats.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
assert st["results"] == 400, f"results ledger holds {st['results']}, want 400"
assert st["restored"] > 0, "server 2 restored no backlog from the journals"
assert st["replayed"] > 0, "restored backlog was never replayed"
print(f"    results=400 restored={st['restored']} replayed={st['replayed']} "
      f"duplicates={st['duplicates']} accepted={st['accepted']}")
EOF

curl -sf "$base/ingest/results" >"$workdir/results.ndjson"
test "$(wc -l <"$workdir/results.ndjson")" = 400

echo "==> graceful drain on SIGTERM"
kill "$server2"
if ! wait "$server2"; then
    echo "FAIL: server 2 exited nonzero on SIGTERM" >&2
    cat "$workdir/server2.log" >&2 || true
    exit 1
fi
if ! grep -q '^drained:' "$workdir/server2.log"; then
    echo "FAIL: server 2 printed no drain summary" >&2
    cat "$workdir/server2.log" >&2 || true
    exit 1
fi
grep '^drained:' "$workdir/server2.log"

echo "==> live results byte-identical to the offline batch path"
"$workdir/elevingest" -attack "$workdir/attack.bin" \
    -offline "$workdir/all.ndjson" -out "$workdir/baseline.ndjson" \
    >"$workdir/offline.log" 2>&1
if ! cmp -s "$workdir/results.ndjson" "$workdir/baseline.ndjson"; then
    echo "FAIL: live results differ from the offline baseline" >&2
    diff "$workdir/results.ndjson" "$workdir/baseline.ndjson" | head >&2 || true
    exit 1
fi
echo "    byte-identical"

echo "OK: SIGKILL mid-firehose, restart, replay: zero loss, zero double-classification"
