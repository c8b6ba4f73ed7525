#!/bin/sh
# explore_smoke.sh — end-to-end smoke of the unified exploration
# surface: boot srschedd, run a Pareto exploration over /v1/explore
# (placement axis + all four objectives, ?debug=trace), a negative
# anneal_steps refused as bad_input in both modes (and so a negative
# invocations and a /v1/schedule period under the window), a grid
# exploration with a placement axis (winners reported), a plain τin
# grid (the old /v1/sweep, which must now be a 404), run the same search
# locally through `srsched -explore`, check mode exclusivity exits 2,
# and assert the explore metrics.
# Run via `make explore-smoke`.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${SMOKE_PORT:-18084}"
BASE="http://127.0.0.1:$PORT"

build_bins srschedd srsched
start_srschedd "$PORT"
wait_healthy "$BASE"

# Pareto mode with a traced request: an annealed candidate placement
# must reach full load (min τin = τc = 50 µs on the 6-cube at B=64),
# the front must be non-empty, and the span family must ride along.
curl -fsS -X POST "$BASE/v1/explore?debug=trace" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64},
  "objectives": ["tau_in", "latency", "links", "buffers"],
  "axes": {
    "tau_in": {"points": 2},
    "placement": {"anneal_seeds": [2], "anneal_steps": 2000}
  }
}' > "$DIR/pareto.json"
grep -q '"mode": *"pareto"\|"mode":"pareto"' "$DIR/pareto.json" || { echo "not pareto mode"; exit 1; }
grep -q '"source": *"anneal:2"\|"source":"anneal:2"' "$DIR/pareto.json" || { echo "annealed placement missing"; exit 1; }
grep -q '"min_tau_in": *50\|"min_tau_in":50' "$DIR/pareto.json" || { echo "annealed placement did not reach full load"; exit 1; }
grep -q '"front"' "$DIR/pareto.json" || { echo "no front"; exit 1; }
grep -q '"name": *"explore"\|"name":"explore"' "$DIR/pareto.json" || { echo "trace missing explore span"; exit 1; }
grep -q '"name": *"explore_anneal"\|"name":"explore_anneal"' "$DIR/pareto.json" || { echo "trace missing explore_anneal span"; exit 1; }

# A negative annealer budget is the client's mistake in either mode — a
# 400 bad_input before any annealer runs, not a 500 — and so are an
# executor run length outside its bound and a period the pipeline
# refuses on /v1/schedule.
refused() { # $1 = what, $2 = path, $3 = body
  CODE=$(curl -s -o "$DIR/refused.json" -w '%{http_code}' -X POST "$BASE$2" -d "$3")
  [ "$CODE" = "400" ] || { echo "$1 returned $CODE, want 400"; exit 1; }
  grep -q '"kind": *"bad_input"\|"kind":"bad_input"' "$DIR/refused.json" || { echo "$1 not refused as bad_input"; exit 1; }
}
for OBJ in '' '"objectives": ["tau_in"],'; do
  refused "anneal_steps -5" /v1/explore "{
    \"problem\": {\"tfg\": \"dvb:4\", \"topology\": \"cube:6\", \"bandwidth\": 64}, $OBJ
    \"axes\": {\"placement\": {\"anneal_seeds\": [2], \"anneal_steps\": -5}}
  }"
done
refused "invocations -1" /v1/explore '{"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64}, "execute": true, "invocations": -1}'
refused "tau_in 10" /v1/schedule '{"problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 10}}'

# Grid mode with a placement axis: one winner per point.
curl -fsS -X POST "$BASE/v1/explore" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64},
  "axes": {
    "tau_in": {"points": 3},
    "placement": {"allocators": ["greedy"]}
  }
}' > "$DIR/grid.json"
grep -q '"mode": *"grid"\|"mode":"grid"' "$DIR/grid.json" || { echo "not grid mode"; exit 1; }
grep -q '"winners"' "$DIR/grid.json" || { echo "no winners reported"; exit 1; }
grep -q '"source": *"allocator:greedy"\|"source":"allocator:greedy"' "$DIR/grid.json" || { echo "greedy placement missing"; exit 1; }

# A plain period grid — the τin axis alone — reports every point; the
# retired /v1/sweep adapter is gone.
curl -fsS -X POST "$BASE/v1/explore" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64},
  "axes": {"tau_in": {"points": 4}}
}' > "$DIR/explore-grid.json"
grep -q '"points"' "$DIR/explore-grid.json" || { echo "grid missing points"; exit 1; }
[ "$(grep -o '"tau_in"' "$DIR/explore-grid.json" | wc -l)" = "4" ] || { echo "grid did not report 4 points"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/sweep" -d '{}')
[ "$CODE" = "404" ] || { echo "/v1/sweep returned $CODE, want 404"; exit 1; }

# Local exploration: srsched -explore prints a front with the annealed
# placement at full load.
"$DIR/srsched" -tfg dvb:4 -topo cube:6 -bw 64 -explore -anneal-seeds 2 -grid-points 2 | tee "$DIR/local.txt"
grep -q 'min τin 50.00' "$DIR/local.txt" || { echo "local explore: no full-load placement"; exit 1; }

# Mode exclusivity is a usage error: exit 2 with the hint.
set +e
"$DIR/srsched" -explore -best 3 2> "$DIR/excl.txt"
CODE=$?
set -e
[ "$CODE" = "2" ] || { echo "conflicting modes exited $CODE, want 2"; exit 1; }
grep -q 'conflicting modes' "$DIR/excl.txt" || { echo "exclusivity message missing"; exit 1; }

# Explore metrics: one Pareto and two grid explorations ran above.
METRICS="$DIR/metrics.txt"
curl -fsS "$BASE/metrics" > "$METRICS"
grep -q '^srschedd_explore_runs_total{mode="pareto"} 1$' "$METRICS" || { echo "pareto run not counted"; exit 1; }
grep -q '^srschedd_explore_runs_total{mode="grid"} 2$' "$METRICS" || { echo "grid runs not counted"; exit 1; }
grep -q '^srschedd_explore_front_points_total [1-9]' "$METRICS" || { echo "front points not counted"; exit 1; }

stop_srschedd "$PID"
echo "explore smoke OK"
