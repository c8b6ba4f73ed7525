# lib.sh — what every *_smoke.sh needs around its assertions: binaries
# built into a temp dir, srschedd booted and polled until healthy, a
# SIGTERM drain that must exit 0, and one EXIT trap that kills whatever
# is still running and removes the temp dir. Source it; run from the
# repository root (as `make *-smoke` does).

DIR="$(mktemp -d)"
PIDS=""
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$DIR"' EXIT

build_bins() { # $@ = names under cmd/, built to $DIR/<name>
    for b in "$@"; do go build -o "$DIR/$b" "./cmd/$b"; done
}

start_srschedd() { # $1 = port, rest = extra flags; pid left in $PID
    port="$1"; shift
    "$DIR/srschedd" -listen "127.0.0.1:$port" -drain-timeout 10s "$@" 2>/dev/null &
    PID=$!
    PIDS="$PIDS $PID"
}

wait_healthy() { # $1 = base URL
    for i in $(seq 1 50); do
        if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "srschedd at $1 never became healthy"; exit 1
}

stop_srschedd() { # $@ = pids: graceful shutdown must drain and exit 0
    kill -TERM "$@"
    for p in "$@"; do
        wait "$p" || { echo "srschedd (pid $p) did not exit cleanly"; exit 1; }
    done
}
