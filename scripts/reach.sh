#!/bin/sh
# reach.sh — which functions outside bench/ no run of the programs
# reaches. It builds the tools and the benchmark driver with coverage of
# every schedroute package, runs what the repository runs (the e2e
# suite, whose TestMain builds srschedd, srsched and traceview with the
# inherited GOFLAGS; every cmd/experiments figure; README's wormsim,
# tfggen and omegainspect lines; srbench -smoke, all five workloads
# timed and traced), and rewrites docs/reach.txt with the functions left
# at 0 %. A function already listed there keeps its reason; the ones
# without a reason are printed, and so is every package no run links.
# Informational: the benchmark smoke is time-bounded, so a rare path can
# flip between runs, and a function without a reason does not fail the
# script (a step that fails does). Run via `make reach`.
set -eu
export LC_ALL=C
cd "$(dirname "$0")/.."
root=$(pwd)
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
mkdir -p "$d/bin" "$d/e2e" "$d/cmd" "$d/bench"
cover='-cover -coverpkg=schedroute/...'
# run prints a step's output only when it fails.
run() { "$@" >"$d/log" 2>&1 || { cat "$d/log"; exit 1; }; }

# The e2e suite, its tools cover-built through GOFLAGS.
go test -c -o "$d/e2e.test" ./e2e
(cd e2e && run env GOFLAGS="$cover" GOCOVERDIR="$d/e2e" "$d/e2e.test")

# Every figure, the fault panel capped as `make faults` caps it.
# shellcheck disable=SC2086
go build $cover -o "$d/bin/" ./cmd/...
for args in -all '-fig faults -max-faults 16' '-fig tenant' '-fig pareto'; do
    # shellcheck disable=SC2086
    run env GOCOVERDIR="$d/cmd" "$d/bin/experiments" $args
done

# The other three tools once each, with README's own command lines (the
# srsched line writes the Ω omegainspect replays).
run env GOCOVERDIR="$d/cmd" "$d/bin/srsched" -tfg dvb:4 -topo cube:6 -bw 64 -tauin 141 -gantt -save "$d/omega.json"
run env GOCOVERDIR="$d/cmd" "$d/bin/omegainspect" -omega "$d/omega.json" -tfg dvb:4 -topo cube:6
run env GOCOVERDIR="$d/cmd" "$d/bin/wormsim" -tfg fft:3 -topo torus:8,8 -bw 128 -tauin 75 -adaptive -v
run env GOCOVERDIR="$d/cmd" "$d/bin/tfggen" -kind stencil -n 6

# The benchmark's smoke pass, built with bench/run.sh's Go environment.
(
    out="$root/.bench_build"
    mkdir -p "$out/tmp"
    export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
    export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
    export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
    # shellcheck disable=SC2086
    go build -C bench -buildvcs=false $cover -o "$d/srbench" .
    run env GOCOVERDIR="$d/bench" "$d/srbench" -smoke
)

# "schedroute/internal/x/f.go:12:<TAB>Name<TAB>0.0%" → "internal/x/f.go<TAB>Name",
# merged with the reasons docs/reach.txt already holds.
go tool covdata func -i "$d/e2e,$d/cmd,$d/bench" |
    awk -F'\t+' '$NF == "0.0%" && $1 !~ /^schedroute\/bench\// {
        f = $1; sub(/^schedroute\//, "", f); sub(/:[0-9]+:$/, "", f); print f "\t" $2 }' |
    sort -u >"$d/zero"
awk -F'\t' 'NR == FNR { if ($0 !~ /^#/ && NF >= 3) why[$1 "\t" $2] = $3; next }
            { k = $1 "\t" $2; print (k in why) ? k "\t" why[k] : k }' \
    docs/reach.txt "$d/zero" >"$d/body"
{ grep '^#' docs/reach.txt; cat "$d/body"; } >"$d/reach.txt"
mv "$d/reach.txt" docs/reach.txt
echo "reach: $(wc -l <"$d/zero") functions at 0 %, listed in docs/reach.txt"
awk -F'\t' 'NF < 3 { print "no reason: " $1 " " $2 }' "$d/body"

# A package no run links has no coverage metadata, so its functions are
# missing from the list above rather than at 0 %: name every such
# package outside bench/ (bench/ is its own module).
go tool covdata pkglist -i "$d/e2e,$d/cmd,$d/bench" | sort -u >"$d/linked"
go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | sort |
    comm -23 - "$d/linked" | sed 's/^/no coverage metadata: /'
