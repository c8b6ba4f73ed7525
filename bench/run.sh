#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a Go module
# of its own that imports the repository's packages) into .bench_build/
# at the root of the checkout and runs it with the given arguments. The
# Go build cache, module cache, temporary files and the go command's own
# configuration directory live under .bench_build/ too, so the run reads
# and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
go build -C bench -buildvcs=false -o "$out/srbench" .
exec "$out/srbench" "$@"
