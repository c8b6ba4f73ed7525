# Tier-1 verify is `make check`: gofmt gate, build, vet, then the full
# test suite — the e2e package included, which builds srschedd, srsched
# and traceview and drives them as processes.
# `make race` is the concurrency job for the parallel sweep/search
# engine, the /v1/watch subscription machinery (concurrent
# create/event/close churn), the memos concurrent solves share and
# TenantSet's locks; run it whenever internal/parallel,
# internal/service, internal/memo, internal/topology,
# internal/schedule/tenant.go, or a sweep changes. Under it e2e builds
# the tools with -race too, so the daemon's drain runs under the
# detector.

GO ?= go

.PHONY: all fmt-check build vet test check race fuzz-smoke loc reach faults bench bench-smoke-large bench-repo-smoke clean

all: check

# Fails, listing the files, when gofmt would change any.
fmt-check:
	@out="$$(gofmt -l .)"; [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

check: fmt-check build vet test

# Mandatory after a change to internal/parallel, internal/service,
# internal/memo, internal/topology, internal/schedule/tenant.go or a
# sweep (see the head of this file).
race:
	$(GO) test -race ./...

# 20 s of each fuzzer. FuzzRequestDecode: arbitrary bytes through
# srschedd's strict decode into every request type and its pre-solve
# validation (pkg/schedroute/fuzz_test.go). FuzzOmegaDecode: arbitrary
# bytes through the Ω loader and, when they load, Validate, Linksets
# and a save/load round trip (internal/schedule/fuzz_test.go).
# FuzzWatchAttach: arbitrary Last-Event-ID bytes against an empty, a
# partly evicted and a closed frame log (internal/service/fuzz_test.go).
# FuzzLP: arbitrary bytes as a small LP over small integer coefficients,
# solved under a 1 s deadline, whose answer lp.Check must accept and
# whose bitset column gather must equal a scan of every row
# (internal/lp/fuzz_test.go). FuzzProblemSolve: arbitrary bytes read
# as a small wire problem and options, built and solved under a 1 s
# deadline; a refusal must be bad_input or unavailable, and a feasible
# Ω must pass Validate (pkg/schedroute/fuzz_test.go).
# Minimization is capped so the budget goes to new inputs; a crasher
# lands in the package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test ./pkg/schedroute -run '^$$' -fuzz FuzzRequestDecode -fuzztime 20s -fuzzminimizetime 10x
	$(GO) test ./internal/schedule -run '^$$' -fuzz FuzzOmegaDecode -fuzztime 20s -fuzzminimizetime 10x
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzWatchAttach -fuzztime 20s -fuzzminimizetime 10x
	$(GO) test ./internal/lp -run '^$$' -fuzz FuzzLP -fuzztime 20s -fuzzminimizetime 10x
	$(GO) test ./pkg/schedroute -run '^$$' -fuzz FuzzProblemSolve -fuzztime 20s -fuzzminimizetime 10x

# Non-test Go lines per package (plain wc -l, no comment stripping): the
# number a diet PR quotes before and after (scripts/loc.sh).
loc:
	sh scripts/loc.sh

# Functions outside bench/ that no run reaches: builds the tools and the
# benchmark driver with coverage, runs the e2e suite, every
# cmd/experiments figure, README's wormsim, tfggen and omegainspect lines
# and the benchmark's smoke pass, and rewrites docs/reach.txt with the
# functions left at 0 %, each keeping the reason it stays. Prints those
# without a reason and every package no run links. Informational, never
# a gate: the smoke pass is time-bounded, so a rare path can flip
# between runs (scripts/reach.sh, about 30 s with a warm build cache).
reach:
	sh scripts/reach.sh

# Survivability smoke sweep: the repair ladder against single-link
# faults on the binary 6-cube, each repaired Ω re-verified by
# packet-level fault injection (capped at 16 faults per load point for
# speed; drop -max-faults for the full panel).
faults:
	$(GO) run ./cmd/experiments -fig faults -config 6cube-b64 -max-faults 16

# Full figure-regeneration benchmark suite (see bench_test.go).
bench:
	$(GO) test -bench . -benchmem -benchtime 1x .

# Large-config smoke: one solve each of the 10-cube and 32x32-torus
# feasibility benchmarks. Each iteration is a full ~1000-node pipeline
# solve (a couple of seconds), so this runs at -benchtime 1x; the
# benchmark itself fails unless the solve is feasible.
bench-smoke-large:
	$(GO) test -run XXX -bench 'ScheduleTenCube$$|ScheduleTorus32$$' -benchmem -benchtime 1x .

# The repository benchmark (BENCHMARK.json, bench/) is a Go module of
# its own, so `make test` does not reach it: run its tests, then its
# smoke pass — every workload timed and traced for 0.3 s with the
# correctness checks on.
bench-repo-smoke:
	$(GO) test -C bench ./...
	bash bench/run.sh -smoke

clean:
	$(GO) clean ./...
