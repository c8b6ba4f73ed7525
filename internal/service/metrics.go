package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"schedroute/internal/schedule"
)

// Metrics aggregates the service counters exported on /metrics in the
// Prometheus text exposition format. Everything is either atomic or
// guarded by mu; handlers update it on every request.
type Metrics struct {
	mu sync.Mutex
	// requests[endpoint][code] counts completed requests.
	requests map[string]map[int]int64
	// latSum/latCount accumulate request wall-clock per endpoint.
	latSum   map[string]time.Duration
	latCount map[string]int64
	// stage times accumulated from solver stats across all solve runs.
	stageNS map[string]int64
	// stageHist is the per-stage latency distribution over individual
	// solves (the totals above only show averages; the histogram shows
	// whether a slow stage is uniformly slow or has a long tail).
	stageHist map[string]*histogram

	solveRuns int64 // solver executions (post-coalescing)
	coalesced int64 // requests served by joining an in-flight solve
	queued    atomic.Int64

	// Fleet counters: batch volume and shard routing decisions.
	batchItems       atomic.Int64 // sub-requests processed through /v1/schedule:batch
	shardProxied     atomic.Int64 // requests forwarded to their owning shard
	shardLocalMisses atomic.Int64 // requests served locally though another shard owns them

	// Exploration counters: runs by mode ("grid" or "pareto"), points
	// reported (grid samples plus Pareto schedules evaluated), and
	// non-dominated points emitted on Pareto fronts.
	exploreRuns        map[string]int64 // by mode, guarded by mu
	explorePoints      atomic.Int64
	exploreFrontPoints atomic.Int64

	// Tenant counters: admission outcomes by ladder rung, evictions,
	// the live-tenant gauge, and per-tenant request volume (labelled by
	// endpoint and tenant id; the default tenant counts too, so the
	// tenant dimension is total).
	admissions      map[string]int64            // by outcome, guarded by mu
	tenantRequests  map[string]map[string]int64 // endpoint → tenant → count, guarded by mu
	tenantEvictions atomic.Int64
	tenantsGauge    atomic.Int64

	// Watch subscription counters. watchEventHist is the end-to-end
	// event→frame latency distribution (dequeue to frame appended).
	watchSubs      atomic.Int64 // live subscriptions (gauge)
	watchEvents    atomic.Int64 // events accepted into a queue
	watchFrames    atomic.Int64 // frames appended to replay rings
	watchDropped   atomic.Int64 // frames skipped coalescing slow consumers
	watchPanics    atomic.Int64 // recovered subscription panics
	watchEventHist histogram    // guarded by mu
}

// stageBuckets are the per-stage latency histogram upper bounds in
// seconds: decade buckets from 10µs (a warm cached stage) to 1s (a
// pathological solve), plus the implicit +Inf.
var stageBuckets = [...]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// histogram is a fixed-bucket Prometheus-style histogram: counts are
// cumulative per upper bound, exactly as the text exposition expects.
type histogram struct {
	buckets [len(stageBuckets)]int64
	count   int64
	sum     time.Duration
}

func (h *histogram) observe(d time.Duration) {
	h.count++
	h.sum += d
	s := d.Seconds()
	for i, ub := range stageBuckets {
		if s <= ub {
			h.buckets[i]++
		}
	}
}

func (m *Metrics) observeStage(stage string, d time.Duration) {
	h := m.stageHist[stage]
	if h == nil {
		h = &histogram{}
		m.stageHist[stage] = h
	}
	h.observe(d)
}

func newMetrics() *Metrics {
	return &Metrics{
		requests:       map[string]map[int]int64{},
		latSum:         map[string]time.Duration{},
		latCount:       map[string]int64{},
		stageNS:        map[string]int64{},
		stageHist:      map[string]*histogram{},
		admissions:     map[string]int64{},
		exploreRuns:    map[string]int64{},
		tenantRequests: map[string]map[string]int64{},
	}
}

// observeAdmission records one admission attempt's ladder outcome and
// how many tenants it preempted.
func (m *Metrics) observeAdmission(outcome string, evicted int) {
	m.mu.Lock()
	m.admissions[outcome]++
	m.mu.Unlock()
	m.tenantEvictions.Add(int64(evicted))
}

// observeExplore records one completed exploration.
func (m *Metrics) observeExplore(mode string, points, front int) {
	m.mu.Lock()
	m.exploreRuns[mode]++
	m.mu.Unlock()
	m.explorePoints.Add(int64(points))
	m.exploreFrontPoints.Add(int64(front))
}

// ExploreRuns reports completed explorations in the given mode (used by
// tests).
func (m *Metrics) ExploreRuns(mode string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exploreRuns[mode]
}

// observeTenantRequest counts one tenant-dimension request.
func (m *Metrics) observeTenantRequest(endpoint, tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byTenant := m.tenantRequests[endpoint]
	if byTenant == nil {
		byTenant = map[string]int64{}
		m.tenantRequests[endpoint] = byTenant
	}
	byTenant[tenant]++
}

// setTenants updates the admitted-tenants gauge.
func (m *Metrics) setTenants(n int64) { m.tenantsGauge.Store(n) }

// Admissions reports admission attempts by outcome (used by tests).
func (m *Metrics) Admissions(outcome string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admissions[outcome]
}

func (m *Metrics) observeRequest(endpoint string, code int, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	codes := m.requests[endpoint]
	if codes == nil {
		codes = map[int]int64{}
		m.requests[endpoint] = codes
	}
	codes[code]++
	m.latSum[endpoint] += dur
	m.latCount[endpoint]++
}

func (m *Metrics) observeSolve(st schedule.SolveStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solveRuns++
	m.stageNS["windows"] += int64(st.WindowsTime)
	m.stageNS["assign"] += int64(st.AssignTime)
	m.stageNS["allocate"] += int64(st.AllocateTime)
	m.stageNS["schedule"] += int64(st.ScheduleTime)
	m.stageNS["omega"] += int64(st.OmegaTime)
	m.observeStage("windows", st.WindowsTime)
	m.observeStage("assign", st.AssignTime)
	m.observeStage("allocate", st.AllocateTime)
	m.observeStage("schedule", st.ScheduleTime)
	m.observeStage("omega", st.OmegaTime)
}

func (m *Metrics) observeWatchEvent(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.watchEventHist.observe(d)
}

// WatchDropped reports frames skipped while coalescing slow consumers.
func (m *Metrics) WatchDropped() int64 { return m.watchDropped.Load() }

// WatchPanics reports recovered watch state-machine panics.
func (m *Metrics) WatchPanics() int64 { return m.watchPanics.Load() }

// WatchSubs reports currently live watch subscriptions.
func (m *Metrics) WatchSubs() int64 { return m.watchSubs.Load() }

func (m *Metrics) observeCoalesced() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.coalesced++
}

// Coalesced reports how many requests joined an in-flight solve.
func (m *Metrics) Coalesced() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.coalesced
}

// SolveRuns reports how many solver executions actually ran.
func (m *Metrics) SolveRuns() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.solveRuns
}

// WriteText renders the metrics in the Prometheus text format. Label
// sets are emitted in sorted order so the output is deterministic.
func (m *Metrics) WriteText(w io.Writer, cache *solverCache) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP srschedd_requests_total Completed requests by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE srschedd_requests_total counter")
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		codes := make([]int, 0, len(m.requests[ep]))
		for c := range m.requests[ep] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "srschedd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, m.requests[ep][c])
		}
	}

	fmt.Fprintln(w, "# HELP srschedd_request_seconds Request wall-clock time by endpoint.")
	fmt.Fprintln(w, "# TYPE srschedd_request_seconds summary")
	eps := make([]string, 0, len(m.latCount))
	for ep := range m.latCount {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		fmt.Fprintf(w, "srschedd_request_seconds_sum{endpoint=%q} %g\n", ep, m.latSum[ep].Seconds())
		fmt.Fprintf(w, "srschedd_request_seconds_count{endpoint=%q} %d\n", ep, m.latCount[ep])
	}

	hits, misses, evictions, size := cache.stats()
	fmt.Fprintln(w, "# HELP srschedd_solver_cache_hits_total Requests that found their problem structure cached.")
	fmt.Fprintln(w, "# TYPE srschedd_solver_cache_hits_total counter")
	fmt.Fprintf(w, "srschedd_solver_cache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP srschedd_solver_cache_misses_total Requests that had to build a solver.")
	fmt.Fprintln(w, "# TYPE srschedd_solver_cache_misses_total counter")
	fmt.Fprintf(w, "srschedd_solver_cache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP srschedd_solver_cache_size Cached problem structures.")
	fmt.Fprintln(w, "# TYPE srschedd_solver_cache_size gauge")
	fmt.Fprintf(w, "srschedd_solver_cache_size %d\n", size)

	fmt.Fprintln(w, "# HELP srschedd_cache_evictions_total Solver-cache entries evicted at capacity.")
	fmt.Fprintln(w, "# TYPE srschedd_cache_evictions_total counter")
	fmt.Fprintf(w, "srschedd_cache_evictions_total %d\n", evictions)

	fmt.Fprintln(w, "# HELP srschedd_batch_items Sub-requests processed through /v1/schedule:batch.")
	fmt.Fprintln(w, "# TYPE srschedd_batch_items counter")
	fmt.Fprintf(w, "srschedd_batch_items %d\n", m.batchItems.Load())

	fmt.Fprintln(w, "# HELP srschedd_explore_runs_total Completed explorations by mode.")
	fmt.Fprintln(w, "# TYPE srschedd_explore_runs_total counter")
	modes := make([]string, 0, len(m.exploreRuns))
	for mode := range m.exploreRuns {
		modes = append(modes, mode)
	}
	sort.Strings(modes)
	for _, mode := range modes {
		fmt.Fprintf(w, "srschedd_explore_runs_total{mode=%q} %d\n", mode, m.exploreRuns[mode])
	}
	fmt.Fprintln(w, "# HELP srschedd_explore_points_total Exploration points reported (grid samples plus Pareto evaluations).")
	fmt.Fprintln(w, "# TYPE srschedd_explore_points_total counter")
	fmt.Fprintf(w, "srschedd_explore_points_total %d\n", m.explorePoints.Load())
	fmt.Fprintln(w, "# HELP srschedd_explore_front_points_total Non-dominated points emitted on Pareto fronts.")
	fmt.Fprintln(w, "# TYPE srschedd_explore_front_points_total counter")
	fmt.Fprintf(w, "srschedd_explore_front_points_total %d\n", m.exploreFrontPoints.Load())

	fmt.Fprintln(w, "# HELP srschedd_shard_proxied_total Requests forwarded to their owning shard.")
	fmt.Fprintln(w, "# TYPE srschedd_shard_proxied_total counter")
	fmt.Fprintf(w, "srschedd_shard_proxied_total %d\n", m.shardProxied.Load())
	fmt.Fprintln(w, "# HELP srschedd_shard_local_misses_total Requests served locally although another shard owns their structure.")
	fmt.Fprintln(w, "# TYPE srschedd_shard_local_misses_total counter")
	fmt.Fprintf(w, "srschedd_shard_local_misses_total %d\n", m.shardLocalMisses.Load())

	fmt.Fprintln(w, "# HELP srschedd_coalesced_requests_total Requests served by joining an identical in-flight solve.")
	fmt.Fprintln(w, "# TYPE srschedd_coalesced_requests_total counter")
	fmt.Fprintf(w, "srschedd_coalesced_requests_total %d\n", m.coalesced)

	fmt.Fprintln(w, "# HELP srschedd_solve_runs_total Solver executions (after coalescing).")
	fmt.Fprintln(w, "# TYPE srschedd_solve_runs_total counter")
	fmt.Fprintf(w, "srschedd_solve_runs_total %d\n", m.solveRuns)

	fmt.Fprintln(w, "# HELP srschedd_queue_depth Requests waiting for a solve worker slot.")
	fmt.Fprintln(w, "# TYPE srschedd_queue_depth gauge")
	fmt.Fprintf(w, "srschedd_queue_depth %d\n", m.queued.Load())

	fmt.Fprintln(w, "# HELP srschedd_tenants Admitted tenants across all fabrics.")
	fmt.Fprintln(w, "# TYPE srschedd_tenants gauge")
	fmt.Fprintf(w, "srschedd_tenants %d\n", m.tenantsGauge.Load())

	fmt.Fprintln(w, "# HELP srschedd_admissions_total Tenant admission attempts by ladder outcome.")
	fmt.Fprintln(w, "# TYPE srschedd_admissions_total counter")
	outcomes := make([]string, 0, len(m.admissions))
	for o := range m.admissions {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Fprintf(w, "srschedd_admissions_total{outcome=%q} %d\n", o, m.admissions[o])
	}

	fmt.Fprintln(w, "# HELP srschedd_tenant_evictions_total Tenants preempted by higher-priority admissions.")
	fmt.Fprintln(w, "# TYPE srschedd_tenant_evictions_total counter")
	fmt.Fprintf(w, "srschedd_tenant_evictions_total %d\n", m.tenantEvictions.Load())

	fmt.Fprintln(w, "# HELP srschedd_tenant_requests_total Tenant-dimension requests by endpoint and tenant.")
	fmt.Fprintln(w, "# TYPE srschedd_tenant_requests_total counter")
	teps := make([]string, 0, len(m.tenantRequests))
	for ep := range m.tenantRequests {
		teps = append(teps, ep)
	}
	sort.Strings(teps)
	for _, ep := range teps {
		ids := make([]string, 0, len(m.tenantRequests[ep]))
		for id := range m.tenantRequests[ep] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "srschedd_tenant_requests_total{endpoint=%q,tenant=%q} %d\n", ep, id, m.tenantRequests[ep][id])
		}
	}

	fmt.Fprintln(w, "# HELP srschedd_watch_subscriptions Live /v1/watch subscriptions.")
	fmt.Fprintln(w, "# TYPE srschedd_watch_subscriptions gauge")
	fmt.Fprintf(w, "srschedd_watch_subscriptions %d\n", m.watchSubs.Load())

	fmt.Fprintln(w, "# HELP srschedd_watch_events_total Watch events accepted into subscription queues.")
	fmt.Fprintln(w, "# TYPE srschedd_watch_events_total counter")
	fmt.Fprintf(w, "srschedd_watch_events_total %d\n", m.watchEvents.Load())

	fmt.Fprintln(w, "# HELP srschedd_watch_frames_total Frames appended to watch replay rings.")
	fmt.Fprintln(w, "# TYPE srschedd_watch_frames_total counter")
	fmt.Fprintf(w, "srschedd_watch_frames_total %d\n", m.watchFrames.Load())

	fmt.Fprintln(w, "# HELP srschedd_watch_dropped_frames_total Frames skipped coalescing slow watch consumers to the latest state.")
	fmt.Fprintln(w, "# TYPE srschedd_watch_dropped_frames_total counter")
	fmt.Fprintf(w, "srschedd_watch_dropped_frames_total %d\n", m.watchDropped.Load())

	fmt.Fprintln(w, "# HELP srschedd_watch_panics_total Recovered watch state-machine panics (each terminates one subscription).")
	fmt.Fprintln(w, "# TYPE srschedd_watch_panics_total counter")
	fmt.Fprintf(w, "srschedd_watch_panics_total %d\n", m.watchPanics.Load())

	fmt.Fprintln(w, "# HELP srschedd_watch_event_seconds Watch event dequeue-to-frame latency.")
	fmt.Fprintln(w, "# TYPE srschedd_watch_event_seconds histogram")
	for i, ub := range stageBuckets {
		fmt.Fprintf(w, "srschedd_watch_event_seconds_bucket{le=\"%g\"} %d\n", ub, m.watchEventHist.buckets[i])
	}
	fmt.Fprintf(w, "srschedd_watch_event_seconds_bucket{le=\"+Inf\"} %d\n", m.watchEventHist.count)
	fmt.Fprintf(w, "srschedd_watch_event_seconds_sum %g\n", m.watchEventHist.sum.Seconds())
	fmt.Fprintf(w, "srschedd_watch_event_seconds_count %d\n", m.watchEventHist.count)

	fmt.Fprintln(w, "# HELP srschedd_solve_stage_seconds_total Cumulative pipeline time by stage across all solves.")
	fmt.Fprintln(w, "# TYPE srschedd_solve_stage_seconds_total counter")
	stages := make([]string, 0, len(m.stageNS))
	for st := range m.stageNS {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		fmt.Fprintf(w, "srschedd_solve_stage_seconds_total{stage=%q} %g\n", st, time.Duration(m.stageNS[st]).Seconds())
	}

	fmt.Fprintln(w, "# HELP srschedd_solve_stage_duration_seconds Per-solve pipeline stage latency.")
	fmt.Fprintln(w, "# TYPE srschedd_solve_stage_duration_seconds histogram")
	hstages := make([]string, 0, len(m.stageHist))
	for st := range m.stageHist {
		hstages = append(hstages, st)
	}
	sort.Strings(hstages)
	for _, st := range hstages {
		h := m.stageHist[st]
		for i, ub := range stageBuckets {
			fmt.Fprintf(w, "srschedd_solve_stage_duration_seconds_bucket{stage=%q,le=\"%g\"} %d\n", st, ub, h.buckets[i])
		}
		fmt.Fprintf(w, "srschedd_solve_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st, h.count)
		fmt.Fprintf(w, "srschedd_solve_stage_duration_seconds_sum{stage=%q} %g\n", st, h.sum.Seconds())
		fmt.Fprintf(w, "srschedd_solve_stage_duration_seconds_count{stage=%q} %d\n", st, h.count)
	}
}
