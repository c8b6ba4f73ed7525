package schedroute

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestExploreRequestMode(t *testing.T) {
	if m := (ExploreRequest{}).Mode(); m != ExploreModeGrid {
		t.Errorf("empty objectives: mode %q, want grid", m)
	}
	r := ExploreRequest{Objectives: []string{"tau_in", "latency"}}
	if m := r.Mode(); m != ExploreModePareto {
		t.Errorf("objectives named: mode %q, want pareto", m)
	}
}

func TestExploreRequestValidate(t *testing.T) {
	ok := ExploreRequest{
		Axes: ExploreAxes{
			TauIn:     &TauInAxis{Points: 4, Min: 50, Max: 250},
			Placement: &PlacementAxis{Allocators: []string{"greedy"}, AnnealSeeds: []int64{2}},
		},
		Objectives: []string{"tau_in"},
		Tolerance:  1,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	bad := []ExploreRequest{
		{Axes: ExploreAxes{TauIn: &TauInAxis{Min: -1}}},
		{Axes: ExploreAxes{TauIn: &TauInAxis{Min: 100, Max: 50}}},
		{Axes: ExploreAxes{TauIn: &TauInAxis{Points: 100001}}},
		{Tolerance: -1},
		{Objectives: []string{"latency"}, Execute: true},
		{Axes: ExploreAxes{Placement: &PlacementAxis{Allocators: []string{"magic"}}}},
		{Axes: ExploreAxes{Placement: &PlacementAxis{AnnealSeeds: []int64{2}, AnnealSteps: -5}}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, r)
		}
	}
}

// goldenJSON pins a wire value byte-for-byte against testdata.
func goldenJSON(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./pkg/schedroute -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s\ngot:  %.600s\nwant: %.600s", path, got, want)
	}
}

// TestExploreWireGolden pins the explore request/result schema byte for
// byte.
func TestExploreWireGolden(t *testing.T) {
	req := ExploreRequest{
		Problem:    Problem{SchemaVersion: SchemaVersion, TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64},
		Options:    Options{Seed: 1},
		Objectives: []string{"tau_in", "latency", "links", "buffers"},
		Axes: ExploreAxes{
			TauIn:     &TauInAxis{Points: 3, Max: 250},
			Placement: &PlacementAxis{Allocators: []string{"greedy"}, AnnealSeeds: []int64{2, 3}},
		},
		Tolerance: 0.5,
	}
	goldenJSON(t, "explore_request.golden.json", req)

	res := ExploreResult{
		SchemaVersion: SchemaVersion,
		Mode:          ExploreModePareto,
		TauC:          50,
		TauM:          30.078125,
		MinTauIn:      50,
		Objectives:    []string{"tau_in", "latency", "links", "buffers"},
		Placements: []PlacementOutcome{
			{Source: "problem", Feasible: true, MinTauIn: 124.21875},
			{Source: "allocator:greedy", Feasible: true, MinTauIn: 50},
			{Source: "anneal:2", Feasible: true, MinTauIn: 50},
		},
		Evaluated: 9,
		Front: []ParetoPoint{
			{Placement: 2, TauIn: 50, Load: 1, Window: 50, Latency: 850, Links: 21, Buffers: 17, Peak: 1},
			{Placement: 0, TauIn: 250, Load: 0.2, Window: 50, Latency: 850, Links: 20, Buffers: 17, Peak: 1},
		},
	}
	goldenJSON(t, "explore_result.golden.json", res)
}
