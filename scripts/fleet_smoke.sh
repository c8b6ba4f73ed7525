#!/bin/sh
# fleet_smoke.sh — end-to-end smoke of the fleet features: two srschedd
# replicas sharding the structure-key space under the default proxy
# policy. A request A does not own is relayed to B and answered byte for
# byte as B answers it, without A caching anything; one batch round; the
# snapshot surface retired in PR 16 is gone (no route, no flag); and both
# replicas drain cleanly on SIGTERM. Run via `make fleet-smoke`.
set -eu

. "$(dirname "$0")/lib.sh"

PORT_A="${FLEET_SMOKE_PORT_A:-18081}"
PORT_B="${FLEET_SMOKE_PORT_B:-18082}"
BASE_A="http://127.0.0.1:$PORT_A"
BASE_B="http://127.0.0.1:$PORT_B"

build_bins srschedd
start_srschedd "$PORT_A" -peers "$BASE_A,$BASE_B" -self "$BASE_A"; PID_A=$PID
start_srschedd "$PORT_B" -peers "$BASE_A,$BASE_B" -self "$BASE_B"; PID_B=$PID
wait_healthy "$BASE_A"
wait_healthy "$BASE_B"

metric() { # $1 = base URL, $2 = unlabelled series name
    curl -fsS "$1/metrics" | sed -n "s/^$2 //p"
}

# The allocator seed is part of the structure key, so walking it walks
# the ring: post to A until one key turns out to be B's.
PROBLEM='{"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150, "allocator": "random", "alloc_seed": %s}}'
SEED=0
while :; do
    SIZE_BEFORE=$(metric "$BASE_A" srschedd_solver_cache_size)
    printf "$PROBLEM" "$SEED" | curl -fsS -X POST "$BASE_A/v1/schedule" -d @- > "$DIR/via-a.json"
    [ "$(metric "$BASE_A" srschedd_shard_proxied_total)" = "1" ] && break
    SEED=$((SEED + 1))
    [ "$SEED" -lt 32 ] || { echo "32 structure keys and none owned by B"; exit 1; }
done

# The hop is invisible in the body, A holds no structure for B's key,
# and the solve ran on B.
printf "$PROBLEM" "$SEED" | curl -fsS -X POST "$BASE_B/v1/schedule" -d @- > "$DIR/direct-b.json"
cmp -s "$DIR/via-a.json" "$DIR/direct-b.json" \
    || { echo "proxied body differs from the owner's own answer"; exit 1; }
[ "$(metric "$BASE_A" srschedd_solver_cache_size)" = "$SIZE_BEFORE" ] \
    || { echo "A cached a structure it proxied"; exit 1; }
RUNS_B=$(metric "$BASE_B" srschedd_solve_runs_total)
[ "$RUNS_B" = "2" ] || { echo "B ran $RUNS_B solves, want 2 (one proxied, one direct)"; exit 1; }

# One batch round: three periods of one structure, whichever replica
# owns it serves all three.
curl -fsS -X POST "$BASE_A/v1/schedule:batch" -d '{"items": [
  {"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150}},
  {"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 160}},
  {"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 175}}
]}' > "$DIR/batch.json"
[ "$(grep -o '"feasible": *true' "$DIR/batch.json" | wc -l)" -eq 3 ] \
    || { echo "batch did not return three feasible items:"; cat "$DIR/batch.json"; exit 1; }
ITEMS=$(( $(metric "$BASE_A" srschedd_batch_items_total) + $(metric "$BASE_B" srschedd_batch_items_total) ))
[ "$ITEMS" = "3" ] || { echo "fleet counted $ITEMS batch items, want 3"; exit 1; }

# Warm-start is gone: the route is the mux's plain 404 and the flag is a
# usage error.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE_A/v1/snapshot/x")
[ "$CODE" = "404" ] || { echo "/v1/snapshot/x returned $CODE, want 404"; exit 1; }
set +e
"$DIR/srschedd" -warmstart-dir "$DIR/x" 2> "$DIR/flag.txt"
CODE=$?
set -e
[ "$CODE" = "2" ] || { echo "srschedd -warmstart-dir exited $CODE, want 2"; exit 1; }
grep -q 'flag provided but not defined' "$DIR/flag.txt" || { echo "-warmstart-dir still parses"; exit 1; }

stop_srschedd "$PID_A" "$PID_B"
echo "fleet smoke OK"
