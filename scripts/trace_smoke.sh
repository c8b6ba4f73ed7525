#!/bin/sh
# trace_smoke.sh — end-to-end smoke of the tracing layer: srsched
# renders and exports a trace, srschedd serves ?debug=trace responses
# that traceview can convert, /v1/version answers, and the pprof
# listener stays off the API port. Run via `make trace-smoke`.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${SMOKE_PORT:-18081}"
PPROF_PORT="${SMOKE_PPROF_PORT:-18082}"
BASE="http://127.0.0.1:$PORT"

build_bins srsched srschedd traceview

# CLI tracing: the rendered tree must show the SR pipeline stages, and
# -trace-out must produce a Chrome trace_event document.
"$DIR/srsched" -tfg dvb:4 -topo cube:6 -bw 64 -tauin 150 -trace -trace-out "$DIR/chrome.json" > "$DIR/srsched.out"
for stage in time_bounds assign_paths interval_allocation interval_scheduling omega_emission; do
    grep -q "$stage" "$DIR/srsched.out" || { echo "srsched -trace missing stage $stage"; cat "$DIR/srsched.out"; exit 1; }
done
grep -q '"traceEvents"' "$DIR/chrome.json" || { echo "-trace-out is not Chrome trace JSON"; exit 1; }

start_srschedd "$PORT" -pprof-addr "127.0.0.1:$PPROF_PORT"
wait_healthy "$BASE"

# ?debug=trace attaches the envelope; traceview accepts the whole
# response in both output modes.
curl -fsS -X POST "$BASE/v1/schedule?debug=trace" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150}
}' > "$DIR/traced.json"
grep -q '"trace"' "$DIR/traced.json" || { echo "response missing trace envelope"; exit 1; }
"$DIR/traceview" -text "$DIR/traced.json" | grep -q '^request' || { echo "traceview -text lost the request root"; exit 1; }
"$DIR/traceview" "$DIR/traced.json" | grep -q '"traceEvents"' || { echo "traceview produced no Chrome document"; exit 1; }

# Untraced responses must not carry the field.
curl -fsS -X POST "$BASE/v1/schedule" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150}
}' | grep -q '"trace"' && { echo "untraced response leaks a trace field"; exit 1; }

curl -fsS "$BASE/v1/version" | grep -q '"schema_version"' || { echo "/v1/version missing schema_version"; exit 1; }
curl -fsS "$BASE/metrics" | grep -q 'srschedd_solve_stage_duration_seconds_bucket' \
    || { echo "metrics missing stage histograms"; exit 1; }

# The profiler lives on its own port only.
curl -fsS "http://127.0.0.1:$PPROF_PORT/debug/pprof/cmdline" >/dev/null || { echo "pprof listener dead"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/")
[ "$CODE" = "404" ] || { echo "pprof exposed on the API port (status $CODE)"; exit 1; }

stop_srschedd "$PID"
echo "trace smoke OK"
