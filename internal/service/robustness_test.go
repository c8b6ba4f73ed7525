package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"schedroute/internal/errkind"
	"schedroute/pkg/schedroute"
)

// jsonEndpoints is every route that decodes a JSON body. They all run
// behind the one adapter, which is what lets one table hold each of
// them to the same robustness contract.
var jsonEndpoints = []struct {
	name   string
	path   string // "{id}" stands for a live subscription
	body   func() any
	queues bool // waits for a worker slot
	solves bool // runs a coalescible solve, so beforeSolve fires
}{
	{"schedule", "/v1/schedule", func() any { return schedroute.ScheduleRequest{Problem: testProblem(150)} }, true, true},
	{"schedule_batch", "/v1/schedule:batch", func() any {
		return schedroute.BatchScheduleRequest{Items: []schedroute.ScheduleRequest{{Problem: testProblem(150)}}}
	}, true, true},
	{"repair", "/v1/repair", func() any {
		return schedroute.RepairRequest{Problem: testProblem(150), Fault: schedroute.FaultSpec{Links: []string{"0-1"}}}
	}, true, true},
	{"admit", "/v1/admit", func() any {
		return schedroute.AdmitRequest{Problem: testProblem(150), Tenant: tenantOf("robust", 0, 0)}
	}, true, false},
	{"explore", "/v1/explore", func() any {
		return schedroute.ExploreRequest{Problem: testProblem(0), Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Points: 2}}}
	}, true, false},
	{"watch", "/v1/watch", func() any { return schedroute.WatchRequest{Problem: testProblem(150)} }, true, true},
	{"watch_event", "/v1/watch/{id}/events", func() any {
		return schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"0-1"}}
	}, false, false},
}

// checkWhole is the contract every outcome must meet: a complete body —
// a JSON document or whole SSE events, never half of one — under the
// request id header, and, when the status is not 200, the typed errkind
// envelope whose kind maps back to that status.
func checkWhole(t *testing.T, code int, hdr http.Header, body []byte) schedroute.ErrorResponse {
	t.Helper()
	if hdr.Get(requestIDHeader) == "" {
		t.Errorf("status %d without an %s header", code, requestIDHeader)
	}
	if strings.HasPrefix(hdr.Get("Content-Type"), "text/event-stream") {
		if code != http.StatusOK || (len(body) > 0 && !bytes.HasSuffix(body, []byte("\n\n"))) {
			t.Fatalf("event stream: status %d, body cut inside an event: %q", code, body)
		}
		return schedroute.ErrorResponse{}
	}
	if !json.Valid(body) {
		t.Fatalf("status %d: body is not one whole JSON document: %q", code, body)
	}
	var er schedroute.ErrorResponse
	if code == http.StatusOK {
		return er
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("status %d: %v: %s", code, err, body)
	}
	if kind := errkind.ByName(er.Kind); kind == nil || errkind.HTTPStatus(kind) != code || er.Error == "" {
		t.Fatalf("status %d with envelope %+v: not a typed errkind rejection", code, er.ErrorEnvelope)
	}
	return er
}

// TestEndpointRobustness holds every JSON endpoint to one contract at
// the edges of the request path: a body exactly at MaxBodyBytes is
// served and one byte more is a bad_input rejection, as is a body with
// anything but whitespace after its value; a client that has
// gone away before the decode, while the request is queued, or in the
// middle of its solve, of an annealing search or of the allocation LP
// gets a whole typed answer (the unavailable envelope once the path
// notices) — never a 500, a hang, a leaked goroutine (newTestServer's
// cleanup checks) or half a body.
func TestEndpointRobustness(t *testing.T) {
	const maxBody = 2048
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: maxBody})
	// Installed once, before any request: an abandoned flight may still be
	// on its way to the hook when the next subtest starts.
	var midSolve atomic.Pointer[context.CancelFunc]
	srv.beforeSolve = func(string) {
		if cancel := midSolve.Load(); cancel != nil {
			(*cancel)()
		}
	}
	wc, hello := openWatch(t, ts, schedroute.WatchRequest{Problem: testProblem(150)})
	defer wc.Close()
	// refusalKind is the errkind a whole answer carries: its envelope's,
	// or — the batch reports per item, under a 200 — its one item's.
	refusalKind := func(t *testing.T, code int, hdr http.Header, body []byte) string {
		er := checkWhole(t, code, hdr, body)
		if code != http.StatusOK {
			return er.Kind
		}
		var out schedroute.BatchScheduleResult
		if err := json.Unmarshal(body, &out); err != nil || len(out.Items) != 1 {
			t.Fatalf("200 that is not the batch's per-item report: %s", body)
		}
		return out.Items[0].Kind
	}

	for _, ep := range jsonEndpoints {
		path := strings.Replace(ep.path, "{id}", hello.SubID, 1)
		raw, err := json.Marshal(ep.body())
		if err != nil {
			t.Fatal(err)
		}
		// padded is the request grown to exactly n bytes with leading
		// whitespace, which the decoder must read through to find the
		// value — so the whole body counts against the cap.
		padded := func(n int) []byte {
			return append(bytes.Repeat([]byte(" "), n-len(raw)), raw...)
		}
		// serve runs the handler in-process under ctx and returns its
		// complete answer; hooks may cancel ctx at a chosen point.
		serve := func(ctx context.Context) (int, http.Header, []byte) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)).WithContext(ctx)
			srv.Handler().ServeHTTP(rec, req)
			return rec.Code, rec.Header(), rec.Body.Bytes()
		}

		t.Run(ep.name+"/body at the cap", func(t *testing.T) {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(padded(maxBody)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK { // a 200 may be an open stream: do not read it
				t.Fatalf("body of exactly MaxBodyBytes: status %d, want 200", resp.StatusCode)
			}
		})
		t.Run(ep.name+"/body one over the cap", func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(padded(maxBody+1))))
			er := checkWhole(t, rec.Code, rec.Header(), rec.Body.Bytes())
			if rec.Code != http.StatusBadRequest || er.Kind != "bad_input" || !strings.Contains(er.Error, "exceeds") {
				t.Fatalf("body of MaxBodyBytes+1: status %d %+v, want 400 bad_input", rec.Code, er.ErrorEnvelope)
			}
		})
		// A body is one JSON value: a second one, or any byte but
		// whitespace after the first, refuses the whole request.
		for _, tail := range []struct{ name, bytes string }{{"garbage", " x"}, {"second value", string(raw)}} {
			t.Run(ep.name+"/"+tail.name+" after the value", func(t *testing.T) {
				// A deadline ends the stream a wrongly accepted watch opens.
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(raw)+tail.bytes)).WithContext(ctx))
				er := checkWhole(t, rec.Code, rec.Header(), rec.Body.Bytes())
				if rec.Code != http.StatusBadRequest || er.Kind != "bad_input" || !strings.Contains(er.Error, "after the JSON value") {
					t.Fatalf("%s after the value: status %d %+v, want 400 bad_input", tail.name, rec.Code, er.ErrorEnvelope)
				}
			})
		}
		t.Run(ep.name+"/cancelled before decode", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			code, hdr, body := serve(ctx)
			// Nothing on the way to the queue looks at the context, so the
			// request gets as far as it gets: shed there, or — for one
			// that never queues — answered on its merits.
			if er := checkWhole(t, code, hdr, body); code == http.StatusInternalServerError {
				t.Fatalf("a client that left early became a server error: %+v", er.ErrorEnvelope)
			}
		})
		if ep.queues {
			t.Run(ep.name+"/cancelled while queued", func(t *testing.T) {
				srv.sem <- struct{}{} // the one worker is busy
				defer func() { <-srv.sem }()
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					waitFor(t, "the request to queue", func() bool { return srv.metrics.value("srschedd_queue_depth") == 1 })
					cancel()
				}()
				code, hdr, body := serve(ctx)
				if er := checkWhole(t, code, hdr, body); code != http.StatusServiceUnavailable || !strings.Contains(er.Error, "queued past deadline") {
					t.Fatalf("status %d %+v, want 503 queued past deadline", code, er.ErrorEnvelope)
				}
			})
		}
		if ep.solves {
			t.Run(ep.name+"/cancelled mid-solve", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				midSolve.Store(&cancel)
				defer midSolve.Store(nil)
				code, hdr, body := serve(ctx)
				if kind := refusalKind(t, code, hdr, body); kind != "unavailable" {
					t.Fatalf("status %d kind %q, want unavailable", code, kind)
				}
			})
		}
	}

	// Forty bytes of spec do not make the daemon allocate gigabytes: a
	// GHC of 1024×1024 has 2^20 nodes, within the node cap, and 1.07e9
	// links, which the builder refuses from their count alone; and every
	// built-in graph generator refuses more than tfg.MaxTasks tasks
	// before it builds one.
	for _, c := range []struct{ name, tfg, topology, want string }{
		{"oversized machine", "dvb:4", "ghc:1024,1024", "links"},
		{"oversized graph/chain:2000000", "chain:2000000", "cube:6", "1048576"},
		{"oversized graph/layered:1,1*2000000,0.1", "layered:1,1*2000000,0.1", "cube:6", "1048576"},
	} {
		t.Run("schedule/"+c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			raw := []byte(`{"problem":{"tfg":"` + c.tfg + `","topology":"` + c.topology + `"}}`)
			start := time.Now()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(raw)).WithContext(ctx))
			took := time.Since(start)
			if er := checkWhole(t, rec.Code, rec.Header(), rec.Body.Bytes()); rec.Code != http.StatusBadRequest || er.Kind != "bad_input" || !strings.Contains(er.Error, c.want) {
				t.Fatalf("status %d %+v, want 400 bad_input naming %s", rec.Code, er.ErrorEnvelope, c.want)
			}
			if took > 100*time.Millisecond {
				t.Errorf("refused after %v, want under 100ms", took)
			}
		})
	}

	// An annealer budget of hours does not outlive its client: the search
	// polls the request context, in grid and in Pareto mode alike.
	for mode, objectives := range map[string][]string{"grid": nil, "pareto": {"tau_in"}} {
		t.Run("explore/cancelled mid-anneal/"+mode, func(t *testing.T) {
			raw, err := json.Marshal(schedroute.ExploreRequest{
				Problem:    testProblem(0),
				Objectives: objectives,
				Axes:       schedroute.ExploreAxes{Placement: &schedroute.PlacementAxis{AnnealSeeds: []int64{2}, AnnealSteps: 2000000000}},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			left := make(chan time.Time, 1)
			go func() {
				waitFor(t, "the exploration to take the worker", func() bool { return len(srv.sem) == 1 })
				// Everything between the slot and the annealer takes well
				// under a millisecond; either side of it is a typed answer.
				time.Sleep(20 * time.Millisecond)
				left <- time.Now()
				cancel()
			}()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore", bytes.NewReader(raw)).WithContext(ctx))
			took := time.Since(<-left)
			if er := checkWhole(t, rec.Code, rec.Header(), rec.Body.Bytes()); er.Kind != "unavailable" {
				t.Fatalf("status %d kind %q, want unavailable", rec.Code, er.Kind)
			}
			if took > time.Second {
				t.Errorf("answered %v after the client left, want under 1s", took)
			}
		})
	}

	// A Pareto bisection tolerance below the float spacing of the period
	// stops where the bracket stops shrinking: a whole answer, not a
	// worker slot held until the deadline (here 5 s; a request's own is
	// RequestTimeout) and then a 503.
	t.Run("explore/pareto tolerance below the float spacing", func(t *testing.T) {
		raw, err := json.Marshal(schedroute.ExploreRequest{Problem: testProblem(0), Objectives: []string{"tau_in"}, Tolerance: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore", bytes.NewReader(raw)).WithContext(ctx))
		if er := checkWhole(t, rec.Code, rec.Header(), rec.Body.Bytes()); rec.Code != http.StatusOK {
			t.Fatalf("status %d %+v, want 200", rec.Code, er.ErrorEnvelope)
		}
	})

	// Nor does a simplex of half a minute outlive its request: the
	// instance (one of bench/known_slow.json's) spends some 30 s in the
	// allocation LP to answer infeasible, and every endpoint that solves
	// it gives up with its client — the answer within the poll, and the
	// solve itself gone, not left running behind a freed worker slot.
	// (A server of its own: the first one's cube:6 fabric is pinned at
	// another bandwidth.)
	lpSrv, _ := newTestServer(t, Config{Workers: 1})
	slow := schedroute.Problem{TFG: "layered:3,8,8*5,8,0.15", Topology: "cube:6", Bandwidth: 128, TauIn: 65}
	seed := schedroute.Options{Seed: 1}
	// The hill-climb is held to the same: the largest restart, step and
	// retry counts the wire accepts make the same graph, at a period its
	// allocation rejects, a second of AssignPaths over 33 attempts.
	climb := slow
	climb.TauIn = 200
	limits := schedroute.Options{Seed: 1, MaxOuter: schedroute.MaxOuterLimit, MaxInner: schedroute.MaxInnerLimit, Retries: schedroute.RetriesLimit}
	// So is a climb on helper goroutines: compile_large's torus problem
	// has 1 101 multi-path messages, enough for its restarts to run on
	// every core, and at a sync margin of 40 the utilization check
	// rejects each of its 33 attempts, which makes seconds of AssignPaths
	// whatever the core count. The helpers must stop with the request.
	torus := schedroute.Problem{TFG: "layered:7,32,64*6,32,0.03", Topology: "torus:32,32", Bandwidth: 2048, TauIn: 200}
	torusLimits := limits
	torusLimits.SyncMargin = 40
	for _, ep := range []struct {
		name, path string
		body       any
	}{
		{"schedule/cancelled mid-LP", "/v1/schedule", schedroute.ScheduleRequest{Problem: slow, Options: seed}},
		{"schedule_batch/cancelled mid-LP", "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: []schedroute.ScheduleRequest{{Problem: slow, Options: seed}}}},
		{"repair/cancelled mid-LP", "/v1/repair", schedroute.RepairRequest{Problem: slow, Options: seed, Fault: schedroute.FaultSpec{Links: []string{"0-1"}}}},
		{"admit/cancelled mid-LP", "/v1/admit", schedroute.AdmitRequest{Problem: slow, Options: seed, Tenant: tenantOf("slow", 0, 0)}},
		{"explore/cancelled mid-LP", "/v1/explore", schedroute.ExploreRequest{Problem: slow, Options: seed,
			Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Min: 65, Max: 65, Points: 1}}}},
		{"watch/cancelled mid-LP", "/v1/watch", schedroute.WatchRequest{Problem: slow, Options: seed}},
		{"schedule/cancelled mid-AssignPaths", "/v1/schedule", schedroute.ScheduleRequest{Problem: climb, Options: limits}},
		{"schedule/cancelled mid-concurrent-AssignPaths", "/v1/schedule", schedroute.ScheduleRequest{Problem: torus, Options: torusLimits}},
	} {
		t.Run(ep.name, func(t *testing.T) {
			raw, err := json.Marshal(ep.body)
			if err != nil {
				t.Fatal(err)
			}
			running := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			start := time.Now()
			rec := httptest.NewRecorder()
			lpSrv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(raw)).WithContext(ctx))
			took := time.Since(start)
			if kind := refusalKind(t, rec.Code, rec.Header(), rec.Body.Bytes()); kind != "unavailable" || took > 2*time.Second {
				t.Fatalf("status %d kind %q after %v, want unavailable within 2s of a 200ms deadline", rec.Code, kind, took)
			}
			// Left alone the count only falls (idle connections of earlier
			// subtests closing), so a strict bound is safe.
			waitFor(t, "the abandoned solve to stop", func() bool { return runtime.NumGoroutine() <= running })
		})
	}

	// An allocator named again is refused before any placement is
	// resolved: each "anneal" would be one more anneal, which polls no
	// context. The refusal is Validate's, and the problem's structure,
	// which lpSrv has not solved, was never built: a request past
	// Validate would have cost a solver-cache miss. (lpSrv's body cap is
	// the default, room for 90 KB.)
	t.Run("explore/repeated allocators", func(t *testing.T) {
		names := make([]string, 10000)
		for i := range names {
			names[i] = "anneal"
		}
		raw, err := json.Marshal(schedroute.ExploreRequest{
			Problem: testProblem(0),
			Axes:    schedroute.ExploreAxes{Placement: &schedroute.PlacementAxis{Allocators: names}},
		})
		if err != nil {
			t.Fatal(err)
		}
		misses := lpSrv.metrics.value("srschedd_solver_cache_misses_total")
		rec := httptest.NewRecorder()
		lpSrv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore", bytes.NewReader(raw)))
		er := checkWhole(t, rec.Code, rec.Header(), rec.Body.Bytes())
		if rec.Code != http.StatusBadRequest || er.Kind != "bad_input" {
			t.Errorf("status %d %+v, want 400 bad_input", rec.Code, er.ErrorEnvelope)
		}
		if want := `explore: placement allocator "anneal" named twice`; er.Error != want {
			t.Errorf("refused with %q, want %q", er.Error, want)
		}
		if got := lpSrv.metrics.value("srschedd_solver_cache_misses_total"); got != misses {
			t.Errorf("solver cache misses went from %d to %d: the refused request built a structure", misses, got)
		}
	})
}
