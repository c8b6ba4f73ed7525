package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"schedroute/internal/schedule"
	"schedroute/pkg/schedroute"
)

// newTestServer boots a server for one test. Its cleanup — which runs
// after the test's own, so after the test has closed its streams —
// drains the server the way srschedd does and then holds every endpoint
// test to the goroutine-leak check: whatever the test started through
// the HTTP surface must be gone once the server is.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	before := runtime.NumGoroutine()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
		waitGoroutines(t, before)
	})
	return srv, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func testProblem(tauIn float64) schedroute.Problem {
	return schedroute.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64, TauIn: tauIn}
}

// TestScheduleCoalescesIdenticalRequests is the coalescing acceptance
// test: N identical concurrent requests must execute exactly one solver
// run, and every response must be byte-identical.
func TestScheduleCoalescesIdenticalRequests(t *testing.T) {
	const n = 8
	srv, ts := newTestServer(t, Config{Workers: n, QueueDepth: n})

	// The flight leader holds its solve open until every duplicate has
	// joined the in-flight call, so the test is deterministic: all n
	// requests are provably concurrent when the solve finally runs.
	srv.beforeSolve = func(key string) {
		deadline := time.Now().Add(10 * time.Second)
		for srv.flights.waiters(key) < n-1 {
			if time.Now().After(deadline) {
				t.Error("duplicates never joined the in-flight solve")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	req := schedroute.ScheduleRequest{Problem: testProblem(150), IncludeOmega: true}
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = postJSON(t, ts, "/v1/schedule", req)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: response differs from request 0", i)
		}
	}
	if runs := srv.metrics.value("srschedd_solve_runs_total"); runs != 1 {
		t.Errorf("solver ran %d times for %d identical requests, want 1", runs, n)
	}
	if co := srv.metrics.value("srschedd_coalesced_requests_total"); co != n-1 {
		t.Errorf("coalesced %d requests, want %d", co, n-1)
	}
	ent, _, _ := srv.cache.Get(req.Problem.StructureKey(), func() (*solverEntry, error) {
		t.Fatal("structure should already be cached")
		return nil, nil
	})
	if st := ent.solver.CacheStats(); st.Solves != 1 {
		t.Errorf("underlying solver served %d solves, want 1", st.Solves)
	}
}

// TestSolverCacheWarmRepeat is the warm-path acceptance test: a repeat
// request with a new τin reuses the cached Solver and skips every
// τin-independent derivation (baseline, candidates, validation).
func TestSolverCacheWarmRepeat(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	for _, tauIn := range []float64{141, 200} {
		code, body := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(tauIn)})
		if code != http.StatusOK {
			t.Fatalf("τin=%g: status %d: %s", tauIn, code, body)
		}
	}

	hits, misses, size := srv.metrics.value("srschedd_solver_cache_hits_total"),
		srv.metrics.value("srschedd_solver_cache_misses_total"), srv.metrics.value("srschedd_solver_cache_size")
	if misses != 1 || hits < 1 || size != 1 {
		t.Errorf("cache hits=%d misses=%d size=%d, want 1 miss, ≥1 hit, 1 entry", hits, misses, size)
	}
	ent, _, _ := srv.cache.Get(testProblem(0).StructureKey(), func() (*solverEntry, error) {
		t.Fatal("structure should already be cached")
		return nil, nil
	})
	st := ent.solver.CacheStats()
	if st.Solves != 2 {
		t.Fatalf("solver served %d solves, want 2", st.Solves)
	}
	if st.BaselineBuilds != 1 || st.CandidateBuilds != 1 || st.ValidateBuilds != 1 {
		t.Errorf("structure rebuilt on the warm path: %+v", st)
	}
	if st.StartsBuilds != 1 {
		// Same window (τc) both times: the static starts are shared too.
		t.Errorf("starts rebuilt on the warm path: %+v", st)
	}
}

// TestScheduleGoldenMatchesDirect is the golden acceptance test: for
// the eight standard configurations the service response must be
// byte-identical to the direct library path through the shared
// pkg/schedroute wire types — the same conversion srsched-style tools
// use.
func TestScheduleGoldenMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topos := []string{"cube:6", "ghc:4,4,4", "torus:8,8", "torus:4,4,4"}
	bands := []float64{64, 128}
	for _, topo := range topos {
		for _, bw := range bands {
			req := schedroute.ScheduleRequest{
				Problem:      schedroute.Problem{TFG: "dvb:4", Topology: topo, Bandwidth: bw, TauIn: 150},
				IncludeOmega: true,
			}
			code, got := postJSON(t, ts, "/v1/schedule", req)
			if code != http.StatusOK {
				t.Fatalf("%s B=%g: status %d: %s", topo, bw, code, got)
			}

			b, err := schedroute.NewProblem(req.Problem)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := req.Options.ToSchedule()
			if err != nil {
				t.Fatal(err)
			}
			res, err := schedule.Compute(b.ScheduleProblem(), opts)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := schedroute.NewScheduleResult(b, res, b.TauIn, true, false)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(wire); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s B=%g: service response differs from direct path\nservice: %.200s\ndirect:  %.200s",
					topo, bw, got, want.Bytes())
			}
		}
	}
}

func TestRepairEndpointOutcomes(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A single failed link at moderate load is survivable: 200 with a
	// non-infeasible rung.
	code, body := postJSON(t, ts, "/v1/repair", schedroute.RepairRequest{
		Problem: testProblem(150),
		Fault:   schedroute.FaultSpec{Links: []string{"0-1"}},
	})
	if code != http.StatusOK {
		t.Fatalf("link repair: status %d: %s", code, body)
	}
	var rep schedroute.RepairResult
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != schedroute.SchemaVersion || rep.Outcome == "" || rep.Outcome == "infeasible" {
		t.Fatalf("bad repair result: %+v", rep)
	}

	// A failed node hosting a task is unsurvivable (no task migration):
	// 422 with the full ladder report in the error body.
	code, body = postJSON(t, ts, "/v1/repair", schedroute.RepairRequest{
		Problem: testProblem(150),
		Fault:   schedroute.FaultSpec{Nodes: []int{0}},
	})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("node repair: status %d, want 422: %s", code, body)
	}
	var er schedroute.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "infeasible_repair" || er.Repair == nil {
		t.Fatalf("422 body missing classification or report: %+v", er)
	}
	if er.Repair.Outcome != "infeasible" || !er.Repair.LostTasks {
		t.Fatalf("ladder report wrong: %+v", er.Repair)
	}

	// Malformed and empty fault specs are client errors.
	for _, fault := range []schedroute.FaultSpec{
		{},
		{Links: []string{"0~1"}},
		{Nodes: []int{4096}},
	} {
		code, body = postJSON(t, ts, "/v1/repair", schedroute.RepairRequest{Problem: testProblem(150), Fault: fault})
		if code != http.StatusBadRequest {
			t.Fatalf("fault %+v: status %d, want 400: %s", fault, code, body)
		}
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Kind != "bad_input" {
			t.Fatalf("fault %+v: kind %q, want bad_input", fault, er.Kind)
		}
	}
}

// TestExploreGridEndpoint drives the default grid mode of /v1/explore:
// the paper's twelve-point τin sweep, executed, through one cached
// solver.
func TestExploreGridEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts, "/v1/explore", schedroute.ExploreRequest{
		Problem:     schedroute.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64},
		Execute:     true,
		Invocations: 4,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var sw schedroute.ExploreResult
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Mode != schedroute.ExploreModeGrid {
		t.Fatalf("objective-free request ran in mode %q, want grid", sw.Mode)
	}
	if len(sw.Points) != 12 {
		t.Fatalf("default sweep has %d points, want the paper's 12", len(sw.Points))
	}
	if sw.TauC <= 0 || sw.Points[0].TauIn != sw.TauC ||
		math.Abs(sw.Points[11].TauIn-5*sw.TauC) > 1e-9*sw.TauC {
		t.Fatalf("grid bounds wrong: τc=%g first=%g last=%g", sw.TauC, sw.Points[0].TauIn, sw.Points[11].TauIn)
	}
	feasible := 0
	for i, pt := range sw.Points {
		if i > 0 && pt.Load >= sw.Points[i-1].Load {
			t.Fatalf("loads not descending at %d", i)
		}
		if pt.Feasible {
			feasible++
			if !pt.Executed {
				t.Fatalf("point %d feasible but not executed", i)
			}
			if pt.OI {
				t.Fatalf("point %d: scheduled routing produced output inconsistency", i)
			}
			if pt.ThroughputMid <= 0 {
				t.Fatalf("point %d: no throughput", i)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible point in the sweep")
	}

	// All twelve points share one cached solver: structure built once.
	if misses := srv.metrics.value("srschedd_solver_cache_misses_total"); misses != 1 {
		t.Errorf("sweep built %d structures, want 1", misses)
	}

	// Degenerate ranges are client errors.
	code, _ = postJSON(t, ts, "/v1/explore", schedroute.ExploreRequest{
		Problem: testProblem(0),
		Axes:    schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Min: 100, Max: 50}},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("inverted range: status %d, want 400", code)
	}
}

// TestGracefulShutdownUnderLoad is the drain acceptance test: the
// in-flight solve completes with 200, the queued request is shed with
// 503, new requests are refused, and Shutdown returns well within the
// drain deadline.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	srv.beforeSolve = func(string) { <-release }

	type reply struct {
		code int
		body []byte
	}
	inflight := make(chan reply, 1)
	queued := make(chan reply, 1)
	go func() {
		c, b := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(150)})
		inflight <- reply{c, b}
	}()
	waitFor(t, "request to start solving", func() bool { return len(srv.sem) == 1 })
	go func() {
		// A different structure: must not coalesce with the in-flight
		// solve; it queues behind the single worker slot.
		c, b := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: schedroute.Problem{TFG: "chain:8", Topology: "cube:6"}})
		queued <- reply{c, b}
	}()
	waitFor(t, "second request to queue", func() bool { return srv.metrics.value("srschedd_queue_depth") == 1 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// The queued request is shed promptly with 503.
	q := <-queued
	if q.code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d, want 503: %s", q.code, q.body)
	}
	// New requests are refused while draining.
	c, body := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(150)})
	if c != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503: %s", c, body)
	}
	// Health reports the drain.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}

	// The in-flight solve still completes.
	close(release)
	in := <-inflight
	if in.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200: %s", in.code, in.body)
	}
	if err := <-done; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
}

func TestRequestHygiene(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// GET on a solve endpoint: 405.
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule: %d, want 405", resp.StatusCode)
	}

	// Unknown schema version: 400 with the table's label.
	p := testProblem(150)
	p.SchemaVersion = 99
	code, body := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: p})
	var er schedroute.ErrorResponse
	if code != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Kind != "unknown_schema_version" {
		t.Fatalf("schema_version 99: status %d kind %q: %s", code, er.Kind, body)
	}

	// Unknown fields are rejected, not silently dropped.
	resp, err = http.Post(ts.URL+"/v1/schedule", "application/json",
		strings.NewReader(`{"problem":{"tfg":"dvb:4","topology":"cube:6"},"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}

	// Bad topology spec: 400 bad_input through the shared parser.
	code, body = postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{
		Problem: schedroute.Problem{TFG: "dvb:4", Topology: "klein-bottle:6"},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("bad topology: status %d: %s", code, body)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tauIn := range []float64{141, 141, 200} {
		postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(tauIn)})
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`srschedd_requests_total{endpoint="schedule",code="200"} 3`,
		"srschedd_solver_cache_hits_total 2",
		"srschedd_solver_cache_misses_total 1",
		"srschedd_solver_cache_size 1",
		"srschedd_solve_runs_total 3",
		"srschedd_queue_depth 0",
		"srschedd_cache_evictions_total 0",
		"srschedd_batch_items_total 0",
		`srschedd_solve_stage_seconds_total{stage="assign"}`,
		"srschedd_request_seconds_count{endpoint=\"schedule\"} 3",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	// Series retired with warm-start (PR 16) and shard routing (PR 21),
	// and the gauge that only duplicated srschedd_solver_cache_size, must
	// not come back.
	for _, gone := range []string{"warmstart", "shard", "srschedd_cache_entries", "_builds_total"} {
		if strings.Contains(string(text), gone) {
			t.Errorf("metrics still expose a %q series\n%s", gone, text)
		}
	}
}

// TestCachedStructureUsesRequestTauIn pins the period plumbing around
// the structure cache: StructureKey deliberately excludes τin, so the
// cached Built's own TauIn belongs to whichever request created it —
// later requests at other periods must see THEIR period in schedule
// responses and must repair at THEIR period, not the cached one.
func TestCachedStructureUsesRequestTauIn(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	// Populate the structure cache at one period.
	code, body := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(150)})
	if code != http.StatusOK {
		t.Fatalf("seed request: status %d: %s", code, body)
	}

	// A hit at another period reports that period, not the cached one.
	code, body = postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(250)})
	if code != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", code, body)
	}
	var out schedroute.ScheduleResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TauIn != 250 {
		t.Errorf("warm response τin=%g, want the request's 250", out.TauIn)
	}
	if math.Abs(out.Load-out.TauC/250) > 1e-12 {
		t.Errorf("warm response load=%g, want τc/250=%g", out.Load, out.TauC/250)
	}

	// Repair against the cached structure runs at the request's period:
	// its output period starts from THIS request's τin, so a repair at
	// the cached 150 would betray itself with τout < 250.
	code, body = postJSON(t, ts, "/v1/repair", schedroute.RepairRequest{
		Problem: testProblem(250),
		Fault:   schedroute.FaultSpec{Links: []string{"0-1"}},
	})
	if code != http.StatusOK {
		t.Fatalf("warm repair: status %d: %s", code, body)
	}
	var rep schedroute.RepairResult
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.TauOut < 250 {
		t.Errorf("repair ran at the cached period: τout=%g, want ≥ the request's 250", rep.TauOut)
	}

	if misses := srv.metrics.value("srschedd_solver_cache_misses_total"); misses != 1 {
		t.Errorf("structure rebuilt: %d misses, want 1", misses)
	}
}

// TestCacheHitWaitsForBuild pins the mid-build synchronization: a hit
// on an entry whose build is still running must block until the build
// finishes instead of observing nil built/solver with nil err.
func TestCacheHitWaitsForBuild(t *testing.T) {
	m := newMetrics()
	c := newSolverCache(4, m)
	key := testProblem(150).StructureKey()
	release := make(chan struct{})
	build := func() (*solverEntry, error) {
		<-release
		return newSolverEntry(schedroute.NewProblem(testProblem(150)))
	}

	const n = 8
	entries := make([]*solverEntry, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _, errs[i] = c.Get(key, build)
		}(i)
	}
	// Every caller has registered (hit or miss) and is parked on the
	// in-progress build before it is released.
	waitFor(t, "all callers to reach the entry", func() bool {
		return m.value("srschedd_solver_cache_hits_total")+m.value("srschedd_solver_cache_misses_total") == n
	})
	close(release)
	wg.Wait()

	for i, e := range entries {
		if errs[i] != nil {
			t.Fatalf("caller %d: build error %v", i, errs[i])
		}
		if e.built == nil || e.solver == nil {
			t.Fatalf("caller %d observed a half-built entry: built=%v solver=%v", i, e.built, e.solver)
		}
	}
}

// TestFlightAbandonedRunIsNotJoined: once every caller of a flight has
// gone, the run is cancelled — and must already be forgotten, or the
// next identical request joins it and is answered with a cancellation
// that was never its own (a 503 for a healthy client; found by
// TestEndpointRobustness cancelling mid-solve).
func TestFlightAbandonedRunIsNotJoined(t *testing.T) {
	g := newFlightGroup()
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan struct{})
	go func() {
		defer close(left)
		g.Do(ctx, "k", time.Minute, func(fctx context.Context) (any, error) {
			close(started)
			<-release // still running long after its only caller left
			return nil, fctx.Err()
		})
	}()
	<-started
	cancel()
	<-left

	next, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	v, err, shared := g.Do(next, "k", time.Minute, func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" || shared {
		t.Fatalf("after an abandoned run: v=%v err=%v shared=%v, want a fresh run of its own", v, err, shared)
	}
}

// TestFlightKeyMatchesSprintf holds flightKey to the format it spells
// out, on periods that %g writes in each notation, a key past its stack
// buffer and options with JSON punctuation.
func TestFlightKeyMatchesSprintf(t *testing.T) {
	long := strings.Repeat("torus:8,8|", 40)
	for _, structure := range []string{"", "dvb|torus:8,8|b128", long} {
		for _, tauIn := range []float64{50, 68.18181818181819, 1e-7, 1e21, 123456789, math.Inf(1), math.Copysign(0, -1)} {
			for _, traced := range []bool{false, true} {
				for _, opts := range []string{"", `{"seed":1,"engine":"greedy"}`} {
					want := fmt.Sprintf("%s|tauin=%g|traced=%t|opts=%s", structure, tauIn, traced, []byte(opts))
					if got := flightKey(structure, tauIn, traced, []byte(opts)); got != want {
						t.Fatalf("flightKey = %q, want %q", got, want)
					}
				}
			}
		}
	}
}

// TestFlightSurvivesLeaderCancel pins the coalescing cancellation
// contract: the shared run is detached from the leader's context, so a
// leader whose client vanishes gets its own ctx.Err while joiners with
// live contexts still receive the result; only when the last waiter
// abandons the call is the shared context canceled.
func TestFlightSurvivesLeaderCancel(t *testing.T) {
	g := newFlightGroup()
	type out struct {
		v      any
		err    error
		shared bool
	}

	release := make(chan struct{})
	started := make(chan struct{})
	var runCtx context.Context
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()

	leaderDone := make(chan out, 1)
	go func() {
		v, err, shared := g.Do(leaderCtx, "k", time.Minute, func(ctx context.Context) (any, error) {
			runCtx = ctx
			close(started)
			<-release
			return 42, nil
		})
		leaderDone <- out{v, err, shared}
	}()
	<-started

	joinerDone := make(chan out, 1)
	go func() {
		v, err, shared := g.Do(context.Background(), "k", time.Minute, func(context.Context) (any, error) {
			t.Error("joiner re-executed a coalesced call")
			return nil, nil
		})
		joinerDone <- out{v, err, shared}
	}()
	waitFor(t, "joiner to join the flight", func() bool { return g.waiters("k") == 1 })

	// The leader's client goes away: the leader returns its own error
	// promptly, the shared run keeps going for the joiner.
	cancelLeader()
	l := <-leaderDone
	if !errors.Is(l.err, context.Canceled) {
		t.Fatalf("canceled leader returned %v, want context.Canceled", l.err)
	}
	if runCtx.Err() != nil {
		t.Fatal("shared run canceled while a joiner still waits")
	}
	if dl, ok := runCtx.Deadline(); !ok || time.Until(dl) > time.Minute {
		t.Fatalf("shared run's deadline = %v, %t; want one at most a minute away", dl, ok)
	}
	close(release)
	j := <-joinerDone
	if j.err != nil || j.v != 42 || !j.shared {
		t.Fatalf("joiner got (%v, %v, shared=%v), want (42, nil, true)", j.v, j.err, j.shared)
	}

	// A run abandoned by every waiter is canceled so it stops burning a
	// solver on a result nobody will read.
	started2 := make(chan struct{})
	var runCtx2 context.Context
	soloCtx, cancelSolo := context.WithCancel(context.Background())
	soloDone := make(chan out, 1)
	go func() {
		v, err, shared := g.Do(soloCtx, "k2", time.Minute, func(ctx context.Context) (any, error) {
			runCtx2 = ctx
			close(started2)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		soloDone <- out{v, err, shared}
	}()
	<-started2
	cancelSolo()
	if s := <-soloDone; !errors.Is(s.err, context.Canceled) {
		t.Fatalf("abandoning caller returned %v, want context.Canceled", s.err)
	}
	waitFor(t, "abandoned run to be canceled", func() bool { return runCtx2.Err() != nil })
}

// TestSweepBoundedByWorkerPool pins the sweep's concurrency source:
// its fan-out borrows only idle worker slots, so concurrent sweeps
// cannot multiply past the server-wide Workers bound.
func TestSweepBoundedByWorkerPool(t *testing.T) {
	srv := New(Config{Workers: 3, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	srv.sem <- struct{}{} // the admitted sweep request's own slot

	extra, release := srv.claimExtraWorkers(srv.cfg.Workers - 1)
	if extra != 2 {
		t.Fatalf("claimed %d extra slots with 2 idle, want 2", extra)
	}
	if len(srv.sem) != 3 {
		t.Fatalf("pool at %d/3 after claim", len(srv.sem))
	}
	// A second sweep arriving at a saturated pool gets no extra lanes
	// and runs serially on its own slot.
	extra2, release2 := srv.claimExtraWorkers(srv.cfg.Workers - 1)
	if extra2 != 0 {
		t.Fatalf("claimed %d extra slots from a full pool, want 0", extra2)
	}
	release()
	release2()
	if len(srv.sem) != 1 {
		t.Fatalf("pool at %d/3 after release, want the request's 1", len(srv.sem))
	}
}

// TestBodySizeLimit pins the request-size cap: an oversized payload is
// rejected as bad input instead of being buffered into memory.
func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	code, body := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{
		Problem: schedroute.Problem{
			TFGInline: json.RawMessage(`"` + strings.Repeat("x", 4096) + `"`),
			Topology:  "cube:6",
		},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400: %s", code, body)
	}
	var er schedroute.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "bad_input" || !strings.Contains(er.Error, "exceeds") {
		t.Fatalf("oversized body classified as %q (%s), want bad_input size error", er.Kind, er.Error)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// syncBuffer is a log sink a test may read while the server still
// writes: the access-log line lands after the response has gone out.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRequestID follows one request by its id: a traced request returns
// the id in its header, carries it on the trace root, and is logged
// under it — whether the client supplied the id or the server minted
// it. An id that is not safe to echo verbatim is replaced, not trusted.
func TestRequestID(t *testing.T) {
	logs := new(syncBuffer)
	_, ts := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(logs, nil))})
	raw, _ := json.Marshal(schedroute.ScheduleRequest{Problem: testProblem(150)})
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	for _, sent := range []string{"trace-me.01", "", "no spaces\"or quotes"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule?debug=trace", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set(requestIDHeader, sent)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("id %q: status %d (%v): %s", sent, resp.StatusCode, err, body)
		}
		id := resp.Header.Get(requestIDHeader)
		if !requestIDForm.MatchString(id) || (requestIDForm.MatchString(sent) != (id == sent)) {
			t.Fatalf("sent id %q, got %q back: want a well-formed id echoed and anything else replaced", sent, id)
		}

		var out schedroute.ScheduleResult
		if err := json.Unmarshal(body, &out); err != nil || out.Trace == nil || out.Trace.Root == nil {
			t.Fatalf("id %q: no trace envelope (%v): %.200s", sent, err, body)
		}
		onRoot := ""
		for _, at := range out.Trace.Root.Attrs {
			if at.Key == "request_id" {
				onRoot = at.Str
			}
		}
		if onRoot != id {
			t.Errorf("trace root carries request_id %q, header says %q", onRoot, id)
		}
		want := "endpoint=schedule method=POST status=200"
		var logged string
		waitFor(t, "the server to log request "+id, func() bool {
			for _, line := range strings.Split(logs.String(), "\n") {
				if strings.Contains(line, "request_id="+id+" ") && strings.Contains(line, want) {
					logged = line
					return true
				}
			}
			return false
		})
		// The line also says how long the request queued for a worker
		// and which solver-cache structure it resolved to.
		wait, ok := logField(logged, "queue_wait_ms")
		if ms, err := strconv.ParseFloat(wait, 64); !ok || err != nil || ms < 0 {
			t.Errorf("access log %q: queue_wait_ms %q", logged, wait)
		}
		if got, _ := logField(logged, "structure"); got != strconv.Quote(testProblem(150).StructureKey()) {
			t.Errorf("access log %q: structure %s, want %q", logged, got, testProblem(150).StructureKey())
		}
	}
}

// logField returns the raw value of key in a text-handler log line.
func logField(line, key string) (string, bool) {
	_, rest, ok := strings.Cut(line, " "+key+"=")
	if !ok {
		return "", false
	}
	if strings.HasPrefix(rest, `"`) {
		if q, err := strconv.QuotedPrefix(rest); err == nil {
			return q, true
		}
	}
	v, _, _ := strings.Cut(rest, " ")
	return v, true
}
