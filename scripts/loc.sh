#!/bin/sh
# loc.sh — non-test Go lines per package: plain `wc -l` over every
# *.go file that is not a *_test.go, no comment stripping, so the number
# is the one a reader scrolls through. bench/ is its own module and is
# listed with the rest; the last line is the srschedd surface
# (internal/service + pkg/schedroute). Run via `make loc`.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort |
    while read -r f; do
        printf '%s %s\n' "$(dirname "$f" | sed 's|^\./||')" "$(wc -l < "$f")"
    done |
    awk '{ n[$1] += $2; total += $2 }
         END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  total\n", total
               printf "%7d  total: internal/service + pkg/schedroute\n", n["internal/service"] + n["pkg/schedroute"] }' |
    sort -k2
