package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"schedroute/pkg/schedroute"
)

// TestBatchScheduleOneStructureBuild is the batch acceptance test: 64
// same-structure items (distinct periods) cost exactly one structure
// build and one τin-independent derivation, asserted through the
// solver cache the same way the warm-repeat test does.
func TestBatchScheduleOneStructureBuild(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	items := make([]schedroute.ScheduleRequest, 64)
	for i := range items {
		items[i] = schedroute.ScheduleRequest{Problem: testProblem(150 + float64(i))}
	}
	code, body := postJSON(t, ts, "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	var out schedroute.BatchScheduleResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != len(items) {
		t.Fatalf("batch returned %d items, want %d", len(out.Items), len(items))
	}
	for i, it := range out.Items {
		if it.Index != i {
			t.Fatalf("item %d carries index %d", i, it.Index)
		}
		if it.Error != "" || it.Result == nil {
			t.Fatalf("item %d failed: %s (%s)", i, it.Error, it.Kind)
		}
		if it.Result.TauIn != 150+float64(i) {
			t.Errorf("item %d solved at τin=%g, want %g", i, it.Result.TauIn, 150+float64(i))
		}
	}

	if misses := srv.metrics.value("srschedd_solver_cache_misses_total"); misses != 1 {
		t.Errorf("batch built %d structures, want 1", misses)
	}
	ent, _ := srv.cache.getOrCreate(testProblem(0).StructureKey(), func() (*schedroute.Built, error) {
		t.Fatal("structure should already be cached")
		return nil, nil
	})
	st := ent.solver.CacheStats()
	if st.BaselineBuilds != 1 || st.CandidateBuilds != 1 || st.ValidateBuilds != 1 {
		t.Errorf("batch re-derived structure: %+v", st)
	}
	if got := srv.metrics.value("srschedd_batch_items_total"); got != 64 {
		t.Errorf("batch_items = %d, want 64", got)
	}
}

// TestBatchIdenticalItemsShareOneSolve pins the in-batch grouping:
// fully identical items share a single solve and a single result
// object, not just a structure.
func TestBatchIdenticalItemsShareOneSolve(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	items := make([]schedroute.ScheduleRequest, 8)
	for i := range items {
		items[i] = schedroute.ScheduleRequest{Problem: testProblem(150)}
	}
	code, body := postJSON(t, ts, "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	if runs := srv.metrics.value("srschedd_solve_runs_total"); runs != 1 {
		t.Errorf("8 identical batch items ran %d solves, want 1", runs)
	}
}

// TestBatchPerItemErrorIsolation pins that a malformed item reports
// its errkind label in its own slot while every sibling still solves.
func TestBatchPerItemErrorIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	items := []schedroute.ScheduleRequest{
		{Problem: testProblem(150)},
		{Problem: schedroute.Problem{TFG: "dvb:4", Topology: "bogus:9"}},
		{Problem: testProblem(200)},
	}
	code, body := postJSON(t, ts, "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	var out schedroute.BatchScheduleResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Items[1].Kind != "bad_input" || out.Items[1].Error == "" || out.Items[1].Result != nil {
		t.Errorf("bad item: got kind=%q err=%q result=%v, want bad_input error", out.Items[1].Kind, out.Items[1].Error, out.Items[1].Result)
	}
	for _, i := range []int{0, 2} {
		if out.Items[i].Result == nil || out.Items[i].Error != "" {
			t.Errorf("item %d should have solved: %s (%s)", i, out.Items[i].Error, out.Items[i].Kind)
		}
	}
}

// TestBatchValidation covers the request-level guards: empty batches
// and unknown schema versions are whole-request errors.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts, "/v1/schedule:batch", schedroute.BatchScheduleRequest{})
	if code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d: %s", code, body)
	}
	code, body = postJSON(t, ts, "/v1/schedule:batch", schedroute.BatchScheduleRequest{
		SchemaVersion: 99,
		Items:         []schedroute.ScheduleRequest{{Problem: testProblem(150)}},
	})
	var er schedroute.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusBadRequest || er.Kind != "unknown_schema_version" {
		t.Errorf("schema 99: status %d kind %q, want 400 unknown_schema_version", code, er.Kind)
	}
}

// replica is one member of a test fleet: the server, the listener it is
// reachable on (ts.URL is its entry in the peer list), and its log.
type replica struct {
	*Server
	ts   *httptest.Server
	logs *syncBuffer
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

// fleetPair starts two servers that know each other as peers, with both
// URLs fixed before construction (the ring needs final URLs in Config).
func fleetPair(t *testing.T, policy string) (a, b replica) {
	t.Helper()
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA := "http://" + la.Addr().String()
	urlB := "http://" + lb.Addr().String()
	peers := []string{urlA, urlB}
	a.logs, b.logs = new(syncBuffer), new(syncBuffer)
	a.Server = New(Config{Peers: peers, SelfURL: urlA, ShardPolicy: policy, Logger: slog.New(slog.NewTextHandler(a.logs, nil))})
	b.Server = New(Config{Peers: peers, SelfURL: urlB, ShardPolicy: policy, Logger: slog.New(slog.NewTextHandler(b.logs, nil))})
	a.ts = &httptest.Server{Listener: la, Config: &http.Server{Handler: a.Handler()}}
	b.ts = &httptest.Server{Listener: lb, Config: &http.Server{Handler: b.Handler()}}
	a.ts.Start()
	b.ts.Start()
	t.Cleanup(a.ts.Close)
	t.Cleanup(b.ts.Close)
	return a, b
}

// problemOwnedBy scans periods until it finds a problem whose
// StructureKey the ring assigns to wantOwner. τin does not vary the
// StructureKey, so the scan varies the allocator seed instead.
func problemOwnedBy(t *testing.T, ring *shardRing, wantOwner string) schedroute.Problem {
	t.Helper()
	for seed := int64(0); seed < 64; seed++ {
		p := testProblem(150)
		p.Allocator = "random"
		p.AllocSeed = seed
		if ring.owner(p.StructureKey()) == wantOwner {
			return p
		}
	}
	t.Fatal("no structure key hashed to the wanted owner in 64 tries")
	return schedroute.Problem{}
}

// postSchedule sends p to base's /v1/schedule over a connection of its
// own (no keep-alive, so goroutine-leak checks see only the servers),
// with the forwarded marker set when forwarded is true.
func postSchedule(t *testing.T, base string, p schedroute.Problem, forwarded bool) (int, []byte) {
	t.Helper()
	b, _ := json.Marshal(schedroute.ScheduleRequest{Problem: p})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if forwarded {
		req.Header.Set(forwardedHeader, "1")
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestShardProxy pins the proxy policy: a request for a structure the
// other replica owns is forwarded there and answered through the
// proxying replica byte-for-byte, leaving the proxier's cache cold.
func TestShardProxy(t *testing.T) {
	a, b := fleetPair(t, shardPolicyProxy)
	p := problemOwnedBy(t, a.ring, b.ts.URL)

	code, body := postSchedule(t, a.ts.URL, p, false)
	if code != http.StatusOK {
		t.Fatalf("proxied request: status %d: %s", code, body)
	}
	var out schedroute.ScheduleResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Errorf("proxied solve infeasible at %s", out.FailStage)
	}
	if got := a.metrics.value("srschedd_shard_proxied_total"); got != 1 {
		t.Errorf("A proxied %d requests, want 1", got)
	}
	if size := a.metrics.value("srschedd_solver_cache_size"); size != 0 {
		t.Errorf("proxying replica cached %d structures, want 0", size)
	}
	if misses := b.metrics.value("srschedd_solver_cache_misses_total"); misses != 1 {
		t.Errorf("owner built %d structures, want 1", misses)
	}
}

// TestShardProxyDeadOwner is the bad-peer case: the owner's listener is
// closed, so the proxy hop fails to connect. The client gets the 503
// unavailable envelope (retry elsewhere), nothing is counted as proxied,
// and the failed hop leaves no goroutine behind.
func TestShardProxyDeadOwner(t *testing.T) {
	a, b := fleetPair(t, shardPolicyProxy)
	p := problemOwnedBy(t, a.ring, b.ts.URL)
	b.ts.Close()
	before := runtime.NumGoroutine()

	code, body := postSchedule(t, a.ts.URL, p, false)
	var er schedroute.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body does not decode: %v: %s", err, body)
	}
	if code != http.StatusServiceUnavailable || er.Kind != "unavailable" || er.Error == "" {
		t.Errorf("dead owner: status %d kind %q error %q, want 503 unavailable", code, er.Kind, er.Error)
	}
	if got := a.metrics.value("srschedd_shard_proxied_total"); got != 0 {
		t.Errorf("A counted %d proxied requests for a hop that never connected, want 0", got)
	}
	if size := a.metrics.value("srschedd_solver_cache_size"); size != 0 {
		t.Errorf("A cached %d structures for a key it does not own, want 0", size)
	}
	waitGoroutines(t, before)
}

// TestShardForwardedServedLocally is the loop guard: a request that
// already carries the forwarded marker is served where it lands even
// though the ring names the other replica, so two replicas with
// disagreeing peer lists cannot bounce it forever. shardOwner returns
// before consulting the ring, so neither routing counter moves.
func TestShardForwardedServedLocally(t *testing.T) {
	a, b := fleetPair(t, shardPolicyProxy)
	p := problemOwnedBy(t, a.ring, b.ts.URL)

	code, body := postSchedule(t, a.ts.URL, p, true)
	if code != http.StatusOK {
		t.Fatalf("forwarded request: status %d: %s", code, body)
	}
	if misses := a.metrics.value("srschedd_solver_cache_misses_total"); misses != 1 {
		t.Errorf("A built %d structures, want 1 (served locally)", misses)
	}
	if misses := b.metrics.value("srschedd_solver_cache_misses_total"); misses != 0 {
		t.Errorf("owner built %d structures: the forwarded request was re-proxied", misses)
	}
	if got := a.metrics.value("srschedd_shard_proxied_total"); got != 0 {
		t.Errorf("shard_proxied = %d, want 0", got)
	}
	if got := a.metrics.value("srschedd_shard_local_misses_total"); got != 0 {
		t.Errorf("shard_local_misses = %d, want 0", got)
	}
}

// TestShardServeLocal pins the serve policy: the misrouted request is
// handled locally — structure derived here, owner never contacted — and
// recorded as a shard-local miss.
func TestShardServeLocal(t *testing.T) {
	a, b := fleetPair(t, shardPolicyServe)
	p := problemOwnedBy(t, a.ring, b.ts.URL)

	code, body := postSchedule(t, a.ts.URL, p, false)
	if code != http.StatusOK {
		t.Fatalf("serve-local request: status %d: %s", code, body)
	}
	if got := a.metrics.value("srschedd_shard_local_misses_total"); got != 1 {
		t.Errorf("A recorded %d local misses, want 1", got)
	}
	if got := a.metrics.value("srschedd_shard_proxied_total"); got != 0 {
		t.Errorf("A proxied %d requests under serve policy, want 0", got)
	}
	if misses := a.metrics.value("srschedd_solver_cache_misses_total"); misses != 1 {
		t.Errorf("A built %d structures, want 1", misses)
	}
	ent, _ := a.cache.getOrCreate(p.StructureKey(), func() (*schedroute.Built, error) {
		t.Fatal("structure should already be cached on A")
		return nil, nil
	})
	if st := ent.solver.CacheStats(); st.BaselineBuilds != 1 {
		t.Errorf("served locally means derived locally: baseline builds = %d, want 1", st.BaselineBuilds)
	}
	if misses := b.metrics.value("srschedd_solver_cache_misses_total"); misses != 0 {
		t.Errorf("owner built %d structures without receiving a request, want 0", misses)
	}
}

// TestRequestIDAcrossShardHop follows one request by its id: a traced
// request that replica A proxies to the owner B returns the id in its
// header, carries it on the owner's trace root, and is logged under it
// by both replicas — whether the client supplied the id or A minted it.
// An id that is not safe to echo verbatim is replaced, not trusted.
func TestRequestIDAcrossShardHop(t *testing.T) {
	a, b := fleetPair(t, shardPolicyProxy)
	p := problemOwnedBy(t, a.ring, b.ts.URL)
	raw, _ := json.Marshal(schedroute.ScheduleRequest{Problem: p})
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	for _, sent := range []string{"trace-me.01", "", "no spaces\"or quotes"} {
		req, err := http.NewRequest(http.MethodPost, a.ts.URL+"/v1/schedule?debug=trace", bytes.NewReader(raw))
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
		for name, r := range map[string]replica{"proxying": a, "owning": b} {
			want := "endpoint=schedule method=POST status=200"
			waitFor(t, name+" replica to log request "+id, func() bool {
				for _, line := range strings.Split(r.logs.String(), "\n") {
					if strings.Contains(line, "request_id="+id+" ") && strings.Contains(line, want) {
						return true
					}
				}
				return false
			})
		}
	}
	if got := a.metrics.value("srschedd_shard_proxied_total"); got != 3 {
		t.Errorf("A proxied %d requests, want all 3", got)
	}
}
