package service

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schedroute/internal/schedule"
	"schedroute/pkg/schedroute"
)

// series is one row of the /metrics table: everything the exposition,
// the README reference and the naming check need to know about it.
type series struct {
	id     int
	name   string
	typ    string // counter, gauge, summary or histogram
	help   string
	labels []string // at most two (labelKey)
}

// metricTable is every exported series, in exposition order.
var metricTable []*series

func row(name, typ, help string, labels ...string) *series {
	s := &series{id: len(metricTable), name: name, typ: typ, help: help, labels: labels}
	metricTable = append(metricTable, s)
	return s
}

var (
	mRequests        = row("srschedd_requests_total", "counter", "Completed requests by endpoint and status code.", "endpoint", "code")
	mRequestSeconds  = row("srschedd_request_seconds", "summary", "Request wall-clock time by endpoint.", "endpoint")
	mCacheHits       = row("srschedd_solver_cache_hits_total", "counter", "Requests that found their problem structure cached.")
	mCacheMisses     = row("srschedd_solver_cache_misses_total", "counter", "Requests that had to build a solver.")
	mCacheSize       = row("srschedd_solver_cache_size", "gauge", "Cached problem structures.")
	mCacheEvictions  = row("srschedd_cache_evictions_total", "counter", "Solver-cache entries evicted at capacity.")
	mBatchItems      = row("srschedd_batch_items_total", "counter", "Sub-requests processed through /v1/schedule:batch.")
	mExploreRuns     = row("srschedd_explore_runs_total", "counter", "Completed explorations by mode.", "mode")
	mExplorePoints   = row("srschedd_explore_points_total", "counter", "Exploration points reported (grid samples plus Pareto evaluations).")
	mExploreFront    = row("srschedd_explore_front_points_total", "counter", "Non-dominated points emitted on Pareto fronts.")
	mCoalesced       = row("srschedd_coalesced_requests_total", "counter", "Requests served by joining an identical in-flight solve.")
	mSolveRuns       = row("srschedd_solve_runs_total", "counter", "Solver executions (after coalescing).")
	mQueueDepth      = row("srschedd_queue_depth", "gauge", "Requests waiting for a solve worker slot.")
	mGoroutines      = row("srschedd_goroutines", "gauge", "Goroutines in the process at scrape time, solves' AssignPaths helpers included.")
	mTopologies      = row("srschedd_topologies", "gauge", "Machines interned at scrape time: every problem structure on one shares its Topology.")
	mTopologyRoutes  = row("srschedd_topology_routes", "gauge", "Fault-free route enumerations memoized on the interned machines at scrape time.")
	mGraphs          = row("srschedd_graphs", "gauge", "Task flow graphs interned at scrape time: every problem structure naming one shares its Graph.")
	mTenants         = row("srschedd_tenants", "gauge", "Admitted tenants on the daemon's one fabric.")
	mAdmissions      = row("srschedd_admissions_total", "counter", "Tenant admission attempts by ladder outcome.", "outcome")
	mTenantEvictions = row("srschedd_tenant_evictions_total", "counter", "Tenants preempted by higher-priority admissions.")
	mTenantRequests  = row("srschedd_tenant_requests_total", "counter", "Tenant-dimension requests by endpoint and tenant: an id the registry holds when the request ends, `default`, or `unadmitted` for any other.", "endpoint", "tenant")
	mWatchSubs       = row("srschedd_watch_subscriptions", "gauge", "Live /v1/watch subscriptions.")
	mWatchEvents     = row("srschedd_watch_events_total", "counter", "Watch events accepted into subscription queues.")
	mWatchFrames     = row("srschedd_watch_frames_total", "counter", "Frames appended to watch replay rings.")
	mWatchDropped    = row("srschedd_watch_dropped_frames_total", "counter", "Frames skipped coalescing slow watch consumers to the latest state.")
	mWatchPanics     = row("srschedd_watch_panics_total", "counter", "Recovered watch state-machine panics (each terminates one subscription).")
	mWatchEventTime  = row("srschedd_watch_event_seconds", "histogram", "Watch event dequeue-to-frame latency.")
	// Exposed from mStageDuration's cells — one accumulation, two views:
	// the total shows a stage's average, the histogram its tail.
	mStageSeconds  = row("srschedd_solve_stage_seconds_total", "counter", "Cumulative pipeline time by stage across all solves.", "stage")
	mStageDuration = row("srschedd_solve_stage_duration_seconds", "histogram", "Per-solve pipeline stage latency.", "stage")
)

// labelKey is one cell's label values: a fixed-size array is a map key
// as it stands, so no observation builds a joined key string.
type labelKey [2]string

// latencyBuckets are the histogram upper bounds in seconds: decade
// buckets from 10µs (a warm cached stage) to 1s (a pathological solve),
// plus the implicit +Inf.
var latencyBuckets = [...]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// cell is one label set's value. A counter or gauge uses n alone; a
// summary or histogram counts observations in n, their total in sumNS
// and — cumulative per upper bound, as the exposition expects — buckets.
type cell struct {
	n       atomic.Int64
	sumNS   atomic.Int64
	buckets [len(latencyBuckets)]atomic.Int64
}

// vec is one series' cells by label values. read, when bound, is where
// an unlabelled counter or gauge really lives: its owner counts, and the
// exposition asks.
type vec struct {
	mu    sync.Mutex
	cells map[labelKey]*cell
	read  func() int64
}

func (v *vec) at(labels []string) *cell {
	var k labelKey
	copy(k[:], labels)
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.cells[k]
	if c == nil {
		if v.cells == nil {
			v.cells = map[labelKey]*cell{}
		}
		c = new(cell)
		v.cells[k] = c
	}
	return c
}

// keys lists the label sets in sorted order. An unlabelled series is
// exposed from the start, at zero; others from their first observation.
func (v *vec) keys(s *series) []labelKey {
	if len(s.labels) == 0 {
		return []labelKey{{}}
	}
	v.mu.Lock()
	keys := make([]labelKey, 0, len(v.cells))
	for k := range v.cells {
		keys = append(keys, k)
	}
	v.mu.Unlock()
	slices.SortFunc(keys, func(a, b labelKey) int { return slices.Compare(a[:], b[:]) })
	return keys
}

// Metrics holds the cells behind metricTable, one vec per row.
type Metrics struct{ vecs []vec }

func newMetrics() *Metrics {
	m := &Metrics{vecs: make([]vec, len(metricTable))}
	m.bind(mGoroutines, func() int64 { return int64(runtime.NumGoroutine()) })
	m.bind(mTopologies, func() int64 { n, _ := schedroute.InternedMachines(); return int64(n) })
	m.bind(mTopologyRoutes, func() int64 { _, n := schedroute.InternedMachines(); return int64(n) })
	m.bind(mGraphs, func() int64 { return int64(schedroute.InternedGraphs()) })
	return m
}

func (m *Metrics) add(s *series, n int64, labels ...string) { m.vecs[s.id].at(labels).n.Add(n) }
func (m *Metrics) set(s *series, n int64, labels ...string) { m.vecs[s.id].at(labels).n.Store(n) }

// bind makes read the value of the unlabelled counter or gauge s; call
// before the Metrics is shared.
func (m *Metrics) bind(s *series, read func() int64) { m.vecs[s.id].read = read }

// count is the value of one counter or gauge cell.
func (v *vec) count(c *cell) int64 {
	if v.read != nil {
		return v.read()
	}
	return c.n.Load()
}

// sample records one observation of a summary or histogram row.
func (m *Metrics) sample(s *series, d time.Duration, labels ...string) {
	c := m.vecs[s.id].at(labels)
	c.n.Add(1)
	c.sumNS.Add(int64(d))
	for i, ub := range latencyBuckets {
		if d.Seconds() <= ub {
			c.buckets[i].Add(1)
		}
	}
}

// countSolve records one solver execution and its per-stage times.
func (m *Metrics) countSolve(st schedule.SolveStats) {
	m.add(mSolveRuns, 1)
	m.sample(mStageDuration, st.WindowsTime, "windows")
	m.sample(mStageDuration, st.AssignTime, "assign")
	m.sample(mStageDuration, st.AllocateTime, "allocate")
	m.sample(mStageDuration, st.ScheduleTime, "schedule")
	m.sample(mStageDuration, st.OmegaTime, "omega")
}

// value reads one counter or gauge by its exposition name (tests).
func (m *Metrics) value(name string, labels ...string) int64 {
	i := slices.IndexFunc(metricTable, func(s *series) bool { return s.name == name })
	return m.vecs[i].count(m.vecs[i].at(labels))
}

// labelText renders a label set, plus le on a histogram bucket line.
func labelText(names []string, k labelKey, le string) string {
	var b strings.Builder
	for i, n := range names {
		fmt.Fprintf(&b, ",%s=%q", n, k[i])
	}
	if le != "" {
		fmt.Fprintf(&b, ",le=%q", le)
	}
	if b.Len() == 0 {
		return ""
	}
	return "{" + b.String()[1:] + "}"
}

// WriteText renders the table in the Prometheus text format.
func (m *Metrics) WriteText(w io.Writer) {
	for _, s := range metricTable {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.typ)
		v := &m.vecs[s.id]
		if s == mStageSeconds {
			v = &m.vecs[mStageDuration.id]
		}
		for _, k := range v.keys(s) {
			c, lt := v.at(k[:]), labelText(s.labels, k, "")
			n, sum := v.count(c), time.Duration(c.sumNS.Load()).Seconds()
			switch {
			case s == mStageSeconds:
				fmt.Fprintf(w, "%s%s %g\n", s.name, lt, sum)
			case s.typ == "counter" || s.typ == "gauge":
				fmt.Fprintf(w, "%s%s %d\n", s.name, lt, n)
			default:
				if s.typ == "histogram" {
					for i, ub := range latencyBuckets {
						fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, labelText(s.labels, k, fmt.Sprint(ub)), c.buckets[i].Load())
					}
					fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, labelText(s.labels, k, "+Inf"), n)
				}
				fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", s.name, lt, sum, s.name, lt, n)
			}
		}
	}
}
