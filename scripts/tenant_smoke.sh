#!/bin/sh
# tenant_smoke.sh — end-to-end smoke of multi-tenant admission: boot
# srschedd, admit two tenants onto the shared 6-cube fabric through
# `srsched -admit` (different placements — identical placements can
# never co-schedule because a tenant's direct links are reserved at
# full share), reject a third with exit status 4 and a 422 report,
# fetch a tenant-scoped schedule, and assert the per-tenant metrics.
# Run via `make tenant-smoke`.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${SMOKE_PORT:-18083}"
BASE="http://127.0.0.1:$PORT"

build_bins srschedd srsched
start_srschedd "$PORT"
wait_healthy "$BASE"

# Two tenants, same application, placements half a machine apart in
# allocator terms: round-robin for video, seeded random for audio.
"$DIR/srsched" -tfg dvb:4 -topo cube:6 -bw 64 -tauin 150 \
    -admit "$BASE" -tenant video -priority 5 | tee "$DIR/video.txt"
grep -q 'reserved' "$DIR/video.txt" || { echo "video not reserved"; exit 1; }

"$DIR/srsched" -tfg dvb:4 -topo cube:6 -bw 64 -tauin 150 -alloc random -seed 1 \
    -admit "$BASE" -tenant audio -priority 3 -rate 0.5 | tee "$DIR/audio.txt"
grep -q 'tenant "audio"' "$DIR/audio.txt" || { echo "audio not admitted"; exit 1; }

# A third tenant on video's exact placement cannot fit at any rung:
# srsched must exit 4 (admission_rejected) and print the reason.
set +e
"$DIR/srsched" -tfg dvb:4 -topo cube:6 -bw 64 -tauin 150 \
    -admit "$BASE" -tenant best-effort -priority 1 -rate 0.9 > "$DIR/reject.txt"
CODE=$?
set -e
[ "$CODE" = "4" ] || { echo "rejection exited $CODE, want 4"; exit 1; }
grep -q 'rejected' "$DIR/reject.txt" || { echo "rejection report missing"; exit 1; }

# The service itself must deliver the rejection as a 422 carrying the
# unified error envelope with the embedded admission report.
BODY=$(curl -s -w '\n%{http_code}' -X POST "$BASE/v1/admit" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150},
  "tenant": {"id": "best-effort-2", "priority": 1, "rate_guarantee": 0.9}
}')
echo "$BODY" | tail -n 1 | grep -q '^422$' || { echo "admit rejection not a 422"; exit 1; }
echo "$BODY" | head -n 1 | grep -q '"kind":"admission_rejected"' \
    || { echo "422 missing admission_rejected kind"; exit 1; }
echo "$BODY" | head -n 1 | grep -q '"admitted":false' \
    || { echo "422 missing embedded admit report"; exit 1; }

# Tenant-scoped solve: an admitted tenant's /v1/schedule returns its
# standing schedule without re-solving.
curl -fsS -X POST "$BASE/v1/schedule" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150},
  "tenant": {"id": "video", "priority": 5}
}' | grep -q '"feasible": *true\|"feasible":true' \
    || { echo "tenant-scoped schedule not feasible"; exit 1; }

# Per-tenant metrics: the gauge counts admitted tenants only, the
# admission counter splits by outcome, and requests carry tenant labels.
METRICS="$DIR/metrics.txt"
curl -fsS "$BASE/metrics" > "$METRICS"
grep -q '^srschedd_tenants 2$' "$METRICS" || { echo "tenant gauge != 2"; exit 1; }
grep -q '^srschedd_admissions_total{outcome="rejected"} 2$' "$METRICS" \
    || { echo "rejected admissions != 2"; exit 1; }
grep -q 'srschedd_tenant_requests_total{endpoint="admit",tenant="video"} 1' "$METRICS" \
    || { echo "video admit request not labelled"; exit 1; }
grep -q 'srschedd_tenant_requests_total{endpoint="schedule",tenant="video"} 1' "$METRICS" \
    || { echo "video schedule request not labelled"; exit 1; }
grep -q 'srschedd_tenant_requests_total{endpoint="admit",tenant="best-effort"} 1' "$METRICS" \
    || { echo "rejected tenant's request not labelled"; exit 1; }

stop_srschedd "$PID"
echo "tenant smoke OK"
