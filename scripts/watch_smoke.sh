#!/bin/sh
# watch_smoke.sh — end-to-end smoke of the /v1/watch streaming
# reconfiguration service: boot srschedd, drive a subscription through
# `srsched -watch`, exercise the raw SSE surface (create, events,
# Last-Event-ID resume), check the watch metrics, and require the
# SIGTERM drain to hand every open stream a terminal closing frame.
# Run via `make watch-smoke`.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${SMOKE_PORT:-18081}"
BASE="http://127.0.0.1:$PORT"

build_bins srschedd srsched
start_srschedd "$PORT"
wait_healthy "$BASE"

# The client path: srsched -watch replays a single-link fault (fault,
# then fault-repaired) over the stream and prints each repaired frame.
"$DIR/srsched" -tfg dvb:4 -topo cube:6 -bw 64 -tauin 150 \
    -fail-link 0-1 -watch "$BASE" > "$DIR/client.txt"
grep -q 'incremental' "$DIR/client.txt" \
    || { echo "watch client saw no incremental repair:"; cat "$DIR/client.txt"; exit 1; }
grep -q 'unaffected' "$DIR/client.txt" \
    || { echo "watch client saw no unaffected frame after the repair:"; cat "$DIR/client.txt"; exit 1; }

# The raw SSE surface: subscribe, keep the stream open in the
# background, and push one fault event at the subscription.
curl -sN -X POST "$BASE/v1/watch" -d '{
  "problem": {"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150}
}' > "$DIR/stream.txt" &
CURLPID=$!
PIDS="$PIDS $CURLPID"
for i in $(seq 1 50); do
    if grep -q '"type":"hello"' "$DIR/stream.txt" 2>/dev/null; then break; fi
    sleep 0.1
done
SUB=$(sed -n 's/.*"sub_id":"\([^"]*\)".*/\1/p' "$DIR/stream.txt" | head -1)
[ -n "$SUB" ] || { echo "no sub_id in hello frame:"; cat "$DIR/stream.txt"; exit 1; }

curl -fsS -X POST "$BASE/v1/watch/$SUB/events" \
    -d '{"type": "fault", "links": ["0-1"]}' | grep -q '"event_seq"' \
    || { echo "event not acked"; exit 1; }
for i in $(seq 1 50); do
    if grep -q '"outcome":"incremental"' "$DIR/stream.txt" 2>/dev/null; then break; fi
    sleep 0.1
done
grep -q '"outcome":"incremental"' "$DIR/stream.txt" \
    || { echo "no incremental repair frame:"; cat "$DIR/stream.txt"; exit 1; }

# Resume: a fresh attach with Last-Event-ID after the hello must
# replay the repair frame from the ring, same seq.
curl -sN -m 2 -H 'Last-Event-ID: 1' "$BASE/v1/watch/$SUB" > "$DIR/resume.txt" || true
grep -q '"outcome":"incremental"' "$DIR/resume.txt" \
    || { echo "resume replayed no repair frame:"; cat "$DIR/resume.txt"; exit 1; }

# The watch surface shows up on /metrics.
curl -fsS "$BASE/metrics" > "$DIR/metrics.txt"
for m in srschedd_watch_subscriptions srschedd_watch_events_total srschedd_watch_frames_total; do
    grep -q "$m" "$DIR/metrics.txt" || { echo "metrics missing $m"; exit 1; }
done

# SIGTERM drain: the still-open stream must receive a terminal closing
# frame and the daemon must exit cleanly with the stream attached.
stop_srschedd "$PID"
wait "$CURLPID" 2>/dev/null || true
grep -q '"type":"closing"' "$DIR/stream.txt" \
    || { echo "drain sent no closing frame:"; cat "$DIR/stream.txt"; exit 1; }
echo "watch smoke OK"
