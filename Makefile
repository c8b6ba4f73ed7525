# Tier-1 verify is `make check`: build, vet, then the full test suite.
# `make race` is the concurrency job for the parallel sweep/search
# engine and the /v1/watch subscription machinery (concurrent
# create/event/close churn); run it whenever internal/parallel,
# internal/service, or a sweep changes.

GO ?= go

.PHONY: all build vet test check race loc faults bench bench-parallel bench-json bench-compare bench-smoke-large bench-repo-smoke service-smoke fleet-smoke trace-smoke watch-smoke tenant-smoke explore-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

check: build vet test

race:
	$(GO) test -race ./...

# Non-test Go lines per package (plain wc -l, no comment stripping): the
# number a diet PR quotes before and after (scripts/loc.sh).
loc:
	sh scripts/loc.sh

# Survivability smoke sweep: the repair ladder against single-link
# faults on the binary 6-cube, each repaired Ω re-verified by
# packet-level fault injection (capped at 16 faults per load point for
# speed; drop -max-faults for the full panel).
faults:
	$(GO) run ./cmd/experiments -fig faults -config 6cube-b64 -max-faults 16

# End-to-end smoke of the srschedd daemon: boot, hit every endpoint,
# graceful shutdown (scripts/service_smoke.sh).
service-smoke:
	sh scripts/service_smoke.sh

# End-to-end smoke of the tracing layer: srsched -trace/-trace-out,
# ?debug=trace through traceview, /v1/version, stage histograms, and
# the isolated pprof listener (scripts/trace_smoke.sh).
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end smoke of the fleet features: two replicas sharing a
# -warmstart-dir, snapshot write-behind and fetch, and a kill/restart
# whose first solve derives zero structure (scripts/fleet_smoke.sh).
fleet-smoke:
	sh scripts/fleet_smoke.sh

# End-to-end smoke of the /v1/watch streaming reconfiguration service:
# srsched -watch, raw SSE with Last-Event-ID resume, watch metrics,
# and closing frames on SIGTERM drain (scripts/watch_smoke.sh).
watch-smoke:
	sh scripts/watch_smoke.sh

# End-to-end smoke of multi-tenant admission: two tenants admitted via
# srsched -admit, a third rejected with exit 4 and a 422 report, and
# the per-tenant metrics asserted (scripts/tenant_smoke.sh).
tenant-smoke:
	sh scripts/tenant_smoke.sh

# End-to-end smoke of the unified exploration surface: /v1/explore in
# Pareto and grid modes (the retired /v1/sweep must be a 404), srsched
# -explore, mode exclusivity (exit 2), and the explore metrics
# (scripts/explore_smoke.sh).
explore-smoke:
	sh scripts/explore_smoke.sh

# Full figure-regeneration benchmark suite (see bench_test.go).
bench:
	$(GO) test -bench . -benchmem -benchtime 1x .

# Machine-readable perf trajectory: the headline pipeline benchmark,
# the large-scale feasibility solves (10-cube, 32x32 torus), the
# Fig. 5/7 panels, the serial sweep, the CP-simulator replay, and the
# per-layer AssignPaths / interval-scheduling kernels at compile_large
# scale, rendered to JSON (ns/op, B/op, allocs/op, shape metrics) by
# cmd/benchjson.
BENCH_JSON_SUITE = ScheduleComputeSixCube$$|ScheduleTenCube$$|ScheduleTorus32$$|Fig5|Fig7|CPSimPacketReplay|SerialSweepFig5SixCubeB64|ColdVsWarmStartTenCube|ScheduleBatch64|TenantAdmitSixCube$$|ExploreSixCube$$|AssignPathsTorus32$$|GreedyDecomposeTenCube$$

# The baseline records three runs per benchmark so the compare gate's
# min-of-3 meets a min-of-3 baseline: a single lucky baseline run would
# otherwise read as a phantom regression later.
bench-json:
	$(GO) test -run XXX -bench '$(BENCH_JSON_SUITE)' \
		-benchmem -benchtime 2x -count 3 . | $(GO) run ./cmd/benchjson > BENCH_schedule.json

# Perf gate: rerun the bench-json suite and fail on a >10% regression
# in ns/op, B/op or allocs/op against the committed BENCH_schedule.json
# baseline. Each benchmark runs three times and the smallest value per
# metric is compared (min-of-N filters scheduler noise; a real
# regression slows every run, and allocs/op is deterministic anyway).
bench-compare:
	$(GO) test -run XXX -bench '$(BENCH_JSON_SUITE)' \
		-benchmem -benchtime 2x -count 3 . | $(GO) run ./cmd/benchjson | $(GO) run ./cmd/benchjson -compare BENCH_schedule.json

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

# Serial-vs-parallel sweep comparison plus the conflict-matrix
# allocs/op delta recorded in docs/results-latest.txt.
bench-parallel:
	$(GO) test -run XXX -bench '(Serial|Parallel)(Sweep|BestAllocation)' -benchtime 3x .
	$(GO) test -run XXX -bench ConflictMatrix -benchmem ./internal/schedule/

clean:
	$(GO) clean ./...
