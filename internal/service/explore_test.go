package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// TestExploreParetoEndpoint drives the full Pareto mode over HTTP: a
// placement axis with an annealed candidate, all four objectives, and a
// traced request.
func TestExploreParetoEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := schedroute.ExploreRequest{
		Problem:    schedroute.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64},
		Objectives: []string{"tau_in", "latency", "links", "buffers"},
		Axes: schedroute.ExploreAxes{
			TauIn:     &schedroute.TauInAxis{Points: 2},
			Placement: &schedroute.PlacementAxis{AnnealSeeds: []int64{2}, AnnealSteps: 2000},
		},
	}
	code, body := postJSON(t, ts, "/v1/explore?debug=trace", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out schedroute.ExploreResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != schedroute.ExploreModePareto {
		t.Fatalf("mode %q, want pareto", out.Mode)
	}
	if out.MinTauIn < out.TauC {
		t.Errorf("min τin %g below τc %g", out.MinTauIn, out.TauC)
	}
	if len(out.Placements) != 2 || out.Placements[0].Source != "problem" || out.Placements[1].Source != "anneal:2" {
		t.Fatalf("placement sources wrong: %+v", out.Placements)
	}
	if out.Placements[1].MinTauIn != out.TauC {
		t.Errorf("annealed placement bisected to τin %g, want full load (τc = %g)", out.Placements[1].MinTauIn, out.TauC)
	}
	if len(out.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	for i, pt := range out.Front {
		if pt.Placement < 0 || pt.Placement >= len(out.Placements) {
			t.Errorf("front[%d]: placement %d out of range", i, pt.Placement)
		}
		if pt.TauIn < out.MinTauIn || pt.Window <= 0 || pt.Links <= 0 || pt.Buffers <= 0 {
			t.Errorf("front[%d] malformed: %+v", i, pt)
		}
	}
	if out.Trace == nil {
		t.Fatal("?debug=trace attached no trace")
	}
	for _, want := range []string{"explore", "explore_anneal", "explore_placement", "explore_bisect", "explore_point"} {
		if out.Trace.Root.Count(want) == 0 {
			t.Errorf("trace missing span %q", want)
		}
	}
	// The annealer runs inside the explore span, ahead of the placements
	// it adds to, and says what it was asked and what it reached.
	out.Trace.Root.Walk(func(_ int, n *trace.Tree) {
		if n.Name != "explore" {
			return
		}
		if len(n.Children) != 3 || n.Children[0].Name != "explore_anneal" || n.Children[1].Name != "explore_placement" {
			t.Fatalf("explore span's children are %v, want the anneal then the two placements", n.Names()[1:])
		}
		got := map[string]any{}
		for _, a := range n.Children[0].Attrs {
			got[a.Key] = a.Value()
		}
		if cost, _ := got["cost"].(float64); got["seed"] != int64(2) || got["steps"] != int64(2000) || cost <= 0 {
			t.Errorf("explore_anneal attributes %v, want seed 2, steps 2000 and a positive cost", got)
		}
	})
	if runs := srv.metrics.value("srschedd_explore_runs_total", "pareto"); runs != 1 {
		t.Errorf("pareto explore runs %d, want 1", runs)
	}
	if pts := srv.metrics.value("srschedd_explore_front_points_total"); pts != int64(len(out.Front)) {
		t.Errorf("front points counter %d, the front has %d", pts, len(out.Front))
	}

	// The same request without debug must return the same body minus the
	// trace envelope — and a repeat run is deterministic.
	code, plain := postJSON(t, ts, "/v1/explore", req)
	if code != http.StatusOK {
		t.Fatalf("untraced status %d: %s", code, plain)
	}
	var again schedroute.ExploreResult
	if err := json.Unmarshal(plain, &again); err != nil {
		t.Fatal(err)
	}
	if again.Trace != nil {
		t.Error("untraced request carried a trace envelope")
	}
	out.Trace = nil
	stripped, _ := json.Marshal(&out)
	repeat, _ := json.Marshal(&again)
	if !bytes.Equal(stripped, repeat) {
		t.Errorf("traced and untraced explorations diverged beyond the envelope:\n%s\n%s", stripped, repeat)
	}
}

// TestExploreGridPlacementAxis checks grid mode with candidate
// placements: a winner per point, placement outcomes labelled by
// source, and the best-allocation ordering (a winning candidate can
// only displace the problem placement by being feasible-or-lower-peak).
func TestExploreGridPlacementAxis(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := schedroute.ExploreRequest{
		Problem: schedroute.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64},
		Axes: schedroute.ExploreAxes{
			TauIn:     &schedroute.TauInAxis{Points: 3},
			Placement: &schedroute.PlacementAxis{Allocators: []string{"greedy"}, AnnealSeeds: []int64{2}, AnnealSteps: 2000},
		},
	}
	code, body := postJSON(t, ts, "/v1/explore?debug=trace", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out schedroute.ExploreResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != schedroute.ExploreModeGrid {
		t.Fatalf("mode %q, want grid", out.Mode)
	}
	if out.Trace == nil || out.Trace.Root.Count("explore_anneal") != 1 || out.Trace.Root.Count("explore_point") != 3 {
		t.Errorf("traced grid wants one explore_anneal and three explore_point spans")
	}
	if len(out.Points) != 3 || len(out.Winners) != 3 {
		t.Fatalf("got %d points / %d winners, want 3 / 3", len(out.Points), len(out.Winners))
	}
	wantSources := []string{"problem", "allocator:greedy", "anneal:2"}
	if len(out.Placements) != len(wantSources) {
		t.Fatalf("placements %+v, want sources %v", out.Placements, wantSources)
	}
	for i, want := range wantSources {
		if out.Placements[i].Source != want {
			t.Errorf("placement %d source %q, want %q", i, out.Placements[i].Source, want)
		}
	}
	for i, w := range out.Winners {
		if w < 0 || w >= len(wantSources) {
			t.Fatalf("point %d: winner %d out of range", i, w)
		}
	}
	if runs := srv.metrics.value("srschedd_explore_runs_total", "grid"); runs != 1 {
		t.Errorf("grid explore runs %d, want 1", runs)
	}
	// Three points × three candidates = nine solver executions.
	if n := srv.metrics.value("srschedd_solve_runs_total"); n != 9 {
		t.Errorf("solver ran %d times, want 9", n)
	}
}

// TestExploreSerialParallelIdenticalOverHTTP runs the same exploration
// on a single-worker and a multi-worker server: the serial-identical
// contract must hold across the whole service stack.
func TestExploreSerialParallelIdenticalOverHTTP(t *testing.T) {
	req := schedroute.ExploreRequest{
		Problem:    schedroute.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64},
		Objectives: []string{"tau_in", "latency"},
		Axes: schedroute.ExploreAxes{
			TauIn:     &schedroute.TauInAxis{Points: 2},
			Placement: &schedroute.PlacementAxis{AnnealSeeds: []int64{2}, AnnealSteps: 2000},
		},
	}
	var bodies [][]byte
	for _, workers := range []int{1, 8} {
		_, ts := newTestServer(t, Config{Workers: workers})
		code, body := postJSON(t, ts, "/v1/explore", req)
		if code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, code, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("1-worker and 8-worker explorations diverged:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestExploreRejectsBadRequests covers the request-validation surface:
// each malformed exploration is a 400, not a solve.
func TestExploreRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	problem := schedroute.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64}
	bad := []schedroute.ExploreRequest{
		{Problem: problem, Objectives: []string{"latency"}, Execute: true},
		{Problem: problem, Objectives: []string{"speed"}},
		{Problem: problem, Axes: schedroute.ExploreAxes{Placement: &schedroute.PlacementAxis{Allocators: []string{"magic"}}}},
		{Problem: problem, Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Min: 300, Max: 100}}},
		{Problem: problem, Tolerance: -1},
	}
	for i, req := range bad {
		code, body := postJSON(t, ts, "/v1/explore", req)
		if code != http.StatusBadRequest {
			t.Errorf("bad request %d: status %d (%s), want 400", i, code, body)
		}
	}
}
