#!/bin/sh
# service_smoke.sh — end-to-end smoke of the srschedd daemon: boot it,
# hit every endpoint once, then shut it down gracefully and require a
# clean exit. Run via `make service-smoke`.
set -eu

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/srschedd"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$(dirname "$BIN")" smoke-out.json' EXIT

go build -o "$BIN" ./cmd/srschedd
"$BIN" -listen "127.0.0.1:$PORT" -drain 10s 2>/dev/null &
PID=$!

# Wait for the listener.
for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -fsS "$BASE/healthz" | grep -q '"ok"' || { echo "healthz not ok"; exit 1; }

# One schedule at moderate load on the paper's binary 6-cube.
curl -fsS -X POST "$BASE/v1/schedule" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150}
}' > smoke-out.json
grep -q '"feasible": *true' smoke-out.json || grep -q '"feasible":true' smoke-out.json \
    || { echo "schedule not feasible:"; cat smoke-out.json; exit 1; }

# A survivable single-link repair.
curl -fsS -X POST "$BASE/v1/repair" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "tau_in": 150},
  "fault": {"links": ["0-1"]}
}' | grep -q '"outcome"' || { echo "repair missing outcome"; exit 1; }

# An unsurvivable fault must be a 422, not a 500.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/repair" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "tau_in": 150},
  "fault": {"nodes": [0]}
}')
[ "$CODE" = "422" ] || { echo "infeasible repair returned $CODE, want 422"; exit 1; }

# A short τin grid, and the metrics it should have moved.
curl -fsS -X POST "$BASE/v1/explore" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6"}, "axes": {"tau_in": {"points": 4}}
}' | grep -q '"points"' || { echo "explore grid missing points"; exit 1; }
curl -fsS "$BASE/metrics" | grep -q 'srschedd_solve_runs_total' \
    || { echo "metrics missing solve counter"; exit 1; }

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
wait "$PID" || { echo "srschedd did not exit cleanly"; exit 1; }
PID=""
echo "service smoke OK"
