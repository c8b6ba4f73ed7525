#!/bin/sh
# service_smoke.sh — end-to-end smoke of the srschedd daemon: boot it,
# hit every endpoint once, then shut it down gracefully and require a
# clean exit. Run via `make service-smoke`.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"

build_bins srschedd
start_srschedd "$PORT"
wait_healthy "$BASE"
curl -fsS "$BASE/healthz" | grep -q '"ok"' || { echo "healthz not ok"; exit 1; }

# One schedule at moderate load on the paper's binary 6-cube.
curl -fsS -X POST "$BASE/v1/schedule" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150}
}' > "$DIR/out.json"
grep -q '"feasible": *true' "$DIR/out.json" \
    || { echo "schedule not feasible:"; cat "$DIR/out.json"; exit 1; }

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

stop_srschedd "$PID"
echo "service smoke OK"
