package schedule

import (
	"slices"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/dvb"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// assignFixture prepares the AssignPaths inputs for the DVB on a
// 6-cube at the given period.
func assignFixture(t *testing.T, tauIn float64) (*PathAssignment, *Candidates, *topology.Topology, []Window, *Activity) {
	t.Helper()
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dvb.Timing(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ComputeWindowsFromStarts(g, tm, tauIn, tm.TauC(), g.PipelinedStart(tm, tm.TauC()), func(m tfg.Message) bool {
		return as.Node(m.Src) == as.Node(m.Dst)
	})
	if err != nil {
		t.Fatal(err)
	}
	set := BuildIntervals(ws, tauIn)
	act := BuildActivity(ws, set)
	lsd, err := LSDAssignment(g, top, as, ws)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := BuildCandidates(g, top, as, ws, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lsd, cands, top, ws, act
}

func TestAssignPathsDeterministic(t *testing.T) {
	lsd, cands, top, ws, act := assignFixture(t, 141)
	a := AssignPaths(lsd, cands, top, ws, act, 42, 4, 40)
	b := AssignPaths(lsd, cands, top, ws, act, 42, 4, 40)
	if a.Util.Peak != b.Util.Peak {
		t.Fatalf("nondeterministic peaks: %g vs %g", a.Util.Peak, b.Util.Peak)
	}
	for i := range a.Assignment.Paths {
		if !slices.Equal(a.Assignment.Paths[i].Nodes, b.Assignment.Paths[i].Nodes) && len(a.Assignment.Links[i]) > 0 {
			t.Fatalf("message %d paths differ across equal-seed runs", i)
		}
	}
	// The evaluation count is the move sequence's fingerprint (90 since
	// the LoadState landed); the memo only decides how many of the
	// per-link scores behind it were worked out.
	if a.Iterations != 90 || b.Iterations != 90 {
		t.Errorf("iterations %d and %d, want 90", a.Iterations, b.Iterations)
	}
	if a.TentativeComputed == 0 || a.TentativeReused == 0 {
		t.Errorf("tentative scores: %d computed, %d reused; expected both", a.TentativeComputed, a.TentativeReused)
	}
	if a.TentativeComputed != b.TentativeComputed || a.TentativeReused != b.TentativeReused {
		t.Errorf("tentative counts differ across equal-seed runs: %d/%d vs %d/%d",
			a.TentativeComputed, a.TentativeReused, b.TentativeComputed, b.TentativeReused)
	}
}

func TestAssignPathsImprovesOnLSD(t *testing.T) {
	lsd, cands, top, ws, act := assignFixture(t, 141)
	lsdU := computeUtilizationReference(top, lsd, ws, act, nil)
	res := AssignPaths(lsd, cands, top, ws, act, 1, 6, 60)
	if res.Util.Peak > lsdU.Peak+1e-9 {
		t.Fatalf("AssignPaths %g worse than LSD %g", res.Util.Peak, lsdU.Peak)
	}
	// On the 6-cube the heuristic should improve substantially (the
	// Fig. 5 gap): LSD peaks at 3.0, AssignPaths reaches 1.0.
	if res.Util.Peak > lsdU.Peak*0.67 {
		t.Errorf("expected a substantial improvement: %g vs LSD %g", res.Util.Peak, lsdU.Peak)
	}
	if res.Iterations == 0 {
		t.Error("no evaluations recorded")
	}
	// The returned paths remain valid shortest paths.
	for i, p := range res.Assignment.Paths {
		if len(res.Assignment.Links[i]) == 0 {
			continue
		}
		if err := p.Validate(top); err != nil {
			t.Errorf("message %d: %v", i, err)
		}
	}
}

func TestAssignPathsHandlesDegenerateBudgets(t *testing.T) {
	lsd, cands, top, ws, act := assignFixture(t, 141)
	res := AssignPaths(lsd, cands, top, ws, act, 1, 0, 0) // clamped to 1/1
	if res == nil || res.Assignment == nil {
		t.Fatal("degenerate budgets must still return an assignment")
	}
}

func TestUtilizationZeroWithoutTraffic(t *testing.T) {
	_, _, top, ws, act := assignFixture(t, 141)
	empty := &PathAssignment{
		Paths: make([]topology.Path, len(ws)),
		Links: make([][]topology.LinkID, len(ws)),
	}
	u := ComputeUtilization(top, empty, ws, act)
	if u.Peak != 0 {
		t.Errorf("no paths should mean zero utilization, got %g", u.Peak)
	}
}

func TestUtilizationSpotCountsNoSlackOnly(t *testing.T) {
	top, err := topology.NewTorus(8)
	if err != nil {
		t.Fatal(err)
	}
	p := top.LSDToMSD(0, 1)
	links, err := p.Links(top)
	if err != nil {
		t.Fatal(err)
	}
	// Two messages on one link, same interval: one no-slack, one slack.
	ws := []Window{
		{Release: 0, Length: 10, Xmit: 10}, // no slack
		{Release: 0, Length: 10, Xmit: 2},  // slack
	}
	pa := &PathAssignment{
		Paths: []topology.Path{p, p},
		Links: [][]topology.LinkID{links, links},
	}
	set := BuildIntervals(ws, 10)
	act := BuildActivity(ws, set)
	u := ComputeUtilization(top, pa, ws, act)
	// Link utilization 12/10 = 1.2 dominates the single-no-slack spot.
	if u.Peak < 1.2-1e-9 || u.Peak > 1.2+1e-9 {
		t.Errorf("peak = %g, want 1.2", u.Peak)
	}
	// Two no-slack messages with staggered windows: the hot-spot count 2
	// in the overlap interval dominates the link ratio 20/15.
	ws = []Window{
		{Release: 0, Length: 10, Xmit: 10},
		{Release: 5, Length: 10, Xmit: 10},
	}
	set = BuildIntervals(ws, 20)
	act = BuildActivity(ws, set)
	u = ComputeUtilization(top, pa, ws, act)
	if u.Peak != 2 {
		t.Errorf("peak = %g, want spot count 2", u.Peak)
	}
	if u.PeakInterval < 0 {
		t.Error("peak should identify the hot-spot interval")
	}
}

func TestCandidatesRespectMaxPaths(t *testing.T) {
	_, cands, _, _, _ := assignFixture(t, 141)
	for i, list := range cands.PathsOf {
		if len(list) > 16 {
			t.Fatalf("message %d has %d candidates, cap 16", i, len(list))
		}
	}
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dvb.Timing(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ComputeWindowsFromStarts(g, tm, 141, 50, g.PipelinedStart(tm, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCandidates(g, top, as, ws, 0); err == nil {
		t.Error("zero maxPaths should fail")
	}
}
