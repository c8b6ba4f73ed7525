package service

import (
	"encoding/json"
	"net/http"
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
	ent, _, _ := srv.cache.Get(testProblem(0).StructureKey(), func() (*solverEntry, error) {
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
