package schedroute

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
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
		{Axes: ExploreAxes{Placement: &PlacementAxis{Allocators: []string{"anneal", "rr", "anneal"}}}},
		{Axes: ExploreAxes{Placement: &PlacementAxis{AnnealSeeds: []int64{2}, AnnealSteps: -5}}},
		{Execute: true, Invocations: -1},
		{Execute: true, Invocations: 1},
		{Execute: true, Invocations: MaxInvocations + 1},
	}
	for i, r := range bad {
		if err := r.Validate(); errkind.Name(err) != "bad_input" {
			t.Errorf("bad request %d: %v, want a bad_input: %+v", i, err, r)
		}
	}
	for _, inv := range []int{0, 2, MaxInvocations} {
		if err := (WatchRequest{Invocations: inv}).Validate(); err != nil {
			t.Errorf("watch with %d invocations refused: %v", inv, err)
		}
	}
	for _, inv := range []int{-1, 1, MaxInvocations + 1} {
		if err := (WatchRequest{Invocations: inv}).Validate(); errkind.Name(err) != "bad_input" {
			t.Errorf("watch with %d invocations: %v, want a bad_input", inv, err)
		}
	}
}

// TestOptionLimits: each count is taken at its limit and refused one
// above it; a negative one is left to the stage that reads it (a
// negative max_paths is the candidate build's bad_input, the others run once).
func TestOptionLimits(t *testing.T) {
	atLimit := Options{MaxPaths: MaxPathsLimit, MaxOuter: MaxOuterLimit, MaxInner: MaxInnerLimit, Retries: RetriesLimit}
	if got, err := atLimit.ToSchedule(); err != nil || got.MaxPaths != MaxPathsLimit || got.MaxOuter != MaxOuterLimit || got.MaxInner != MaxInnerLimit || got.Retries != RetriesLimit {
		t.Errorf("options at their limits: %+v, %v", got, err)
	}
	if _, err := (Options{MaxPaths: -3, MaxOuter: -1, MaxInner: -1, Retries: -1}).ToSchedule(); err != nil {
		t.Errorf("negative counts refused on the wire: %v", err)
	}
	for _, o := range []Options{{MaxPaths: MaxPathsLimit + 1}, {MaxOuter: MaxOuterLimit + 1}, {MaxInner: MaxInnerLimit + 1}, {Retries: RetriesLimit + 1}} {
		if _, err := o.ToSchedule(); errkind.Name(err) != "bad_input" {
			t.Errorf("%+v: %v, want a bad_input", o, err)
		}
	}
}

// TestRefusedParametersAreBadInput: every decodable problem or option the
// pipeline refuses is the caller's mistake by the errkind table — straight
// from NewProblem and schedule.Compute, so every endpoint and CLI that
// reaches the same check answers 400 / exit 1, never "internal".
func TestRefusedParametersAreBadInput(t *testing.T) {
	base := Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64, TauIn: 150}
	with := func(edit func(*Problem)) Problem { p := base; edit(&p); return p }
	for _, c := range []struct {
		name string
		p    Problem
		o    Options
		want string // a fragment of the message, which must survive
	}{
		{"period below the window", with(func(p *Problem) { p.TauIn = 10 }), Options{}, "window 50 exceeds invocation period 10"},
		{"period below the longest task", with(func(p *Problem) { p.TauIn = 49 }), Options{Window: 10}, "period 49 below longest task 50"},
		{"window beyond the period", base, Options{Window: 200}, "window 200 exceeds invocation period 150"},
		{"negative window", base, Options{Window: -5}, "non-positive window length -5"},
		{"window below a transmission", base, Options{Window: 0.001}, "message 0 transmission 3 exceeds window"},
		{"sync margin beyond the window", base, Options{SyncMargin: 1000}, "sync margin 1000 leaves message 0"},
		{"negative max_paths", base, Options{MaxPaths: -3}, "maxPaths -3 < 1"},
		{"more tasks than nodes", with(func(p *Problem) { p.Topology = "cube:2" }), Options{}, "15 tasks exceed 4 nodes"},
		{"more tasks than nodes, greedy", with(func(p *Problem) { p.Topology, p.Allocator = "cube:2", "greedy" }), Options{}, "15 tasks exceed 4 nodes"},
		{"graph generator out of range", with(func(p *Problem) { p.TFG = "dvb:0" }), Options{}, "at least one object model"},
		{"chain past the task cap", with(func(p *Problem) { p.TFG = "chain:2000000" }), Options{}, "chain of 2000000 tasks exceeds 1048576"},
		{"fan past the task cap", with(func(p *Problem) { p.TFG = "fan:1048575" }), Options{}, "fan width 1048575 exceeds 1048576 tasks"},
		{"stencil past the task cap", with(func(p *Problem) { p.TFG = "stencil:600000" }), Options{}, "stencil width 600000 exceeds 1048576 tasks"},
		{"dvb past the task cap", with(func(p *Problem) { p.TFG = "dvb:600000" }), Options{}, "600000 object models exceed 1048576 tasks"},
		{"layer widths past the task cap", with(func(p *Problem) { p.TFG = "layered:1,1*2000000,0.1" }), Options{}, `widths "1*2000000": more than 1048576 tasks`},
		{"one layer past the task cap", with(func(p *Problem) { p.TFG = "layered:1,8,2000000,0.1" }), Options{}, `widths "2000000": more than 1048576 tasks`},
		{"adjacent layers past the message cap", with(func(p *Problem) { p.TFG = "layered:1,2048,2048,0.01" }), Options{}, "past 1048576 candidate messages"},
		{"an inline graph's identity is no graph spec", with(func(p *Problem) { p.TFG = "inline:00" }), Options{}, `tfg "inline:00" names no generator`},
		{"a file's name is no graph spec", with(func(p *Problem) { p.TFG = "testdata/explore_request.golden.json" }), Options{}, `unknown graph spec "testdata/explore_request.golden.json"`},
		{"inline document that is no graph", with(func(p *Problem) { p.TFG, p.TFGInline = "", json.RawMessage(`{"not":"a graph"}`) }), Options{}, "tfg_inline: tfg:"},
	} {
		b, err := NewProblem(c.p)
		if err == nil {
			var opts schedule.Options
			if opts, err = c.o.ToSchedule(); err != nil {
				t.Fatal(err)
			}
			_, err = schedule.Compute(b.ScheduleProblem(), opts)
		}
		if err == nil || errkind.Name(err) != "bad_input" || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v (%s), want a bad_input mentioning %q", c.name, err, errkind.Name(err), c.want)
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
