#!/bin/sh
# service_smoke.sh — end-to-end smoke of the srschedd daemon: boot it,
# hit every endpoint once, check that the retired surfaces (warm-start,
# PR 16; shard routing, PR 21) are gone, then shut it down gracefully
# and require a clean exit. Run via `make service-smoke`.
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

# One batch round: three periods of one structure.
curl -fsS -X POST "$BASE/v1/schedule:batch" -d '{"items": [
  {"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150}},
  {"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 160}},
  {"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 175}}
]}' > "$DIR/batch.json"
[ "$(grep -o '"feasible": *true' "$DIR/batch.json" | wc -l)" -eq 3 ] \
    || { echo "batch did not return three feasible items:"; cat "$DIR/batch.json"; exit 1; }
ITEMS=$(curl -fsS "$BASE/metrics" | sed -n 's/^srschedd_batch_items_total //p')
[ "$ITEMS" = "3" ] || { echo "daemon counted $ITEMS batch items, want 3"; exit 1; }

# A short τin grid, and the metrics it should have moved.
curl -fsS -X POST "$BASE/v1/explore" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6"}, "axes": {"tau_in": {"points": 4}}
}' | grep -q '"points"' || { echo "explore grid missing points"; exit 1; }
curl -fsS "$BASE/metrics" | grep -q 'srschedd_solve_runs_total' \
    || { echo "metrics missing solve counter"; exit 1; }

# Retired surfaces stay retired: the snapshot route is the mux's plain
# 404, and the warm-start and fleet flags are usage errors.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/snapshot/x")
[ "$CODE" = "404" ] || { echo "/v1/snapshot/x returned $CODE, want 404"; exit 1; }
for FLAG in -warmstart-dir -peers; do
    set +e
    "$DIR/srschedd" "$FLAG" x 2> "$DIR/flag.txt"
    CODE=$?
    set -e
    [ "$CODE" = "2" ] || { echo "srschedd $FLAG exited $CODE, want 2"; exit 1; }
    grep -q 'flag provided but not defined' "$DIR/flag.txt" || { echo "$FLAG still parses"; exit 1; }
done

stop_srschedd "$PID"
echo "service smoke OK"
