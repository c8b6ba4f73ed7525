package schedule

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// repairFixture builds a feasible base schedule on a 3-cube: an
// 8-task chain placed one task per node, lightly loaded so single-link
// faults are incrementally repairable.
func repairFixture(t *testing.T) (Problem, Options, *Result) {
	t.Helper()
	top, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tfg.Chain(8, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]topology.NodeID, 8)
	for i := range nodes {
		nodes[i] = topology.NodeID(i)
	}
	as := &alloc.Assignment{NodeOf: nodes}
	p := Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 2 * tm.TauC()}
	o := Options{Seed: 1}
	base, err := Compute(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible {
		t.Fatalf("fixture base schedule infeasible at stage %s", base.FailStage)
	}
	return p, o, base
}

// twoTaskProblem places a single producer/consumer pair on the given
// nodes of the topology.
func twoTaskProblem(t *testing.T, top *topology.Topology, src, dst topology.NodeID) (Problem, Options, *Result) {
	t.Helper()
	g, err := tfg.Chain(2, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	as := &alloc.Assignment{NodeOf: []topology.NodeID{src, dst}}
	p := Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 2 * tm.TauC()}
	o := Options{Seed: 1}
	base, err := Compute(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible {
		t.Fatalf("base infeasible at %s", base.FailStage)
	}
	return p, o, base
}

func firstUsedLink(base *Result) topology.LinkID {
	for i := range base.Windows {
		if len(base.Assignment.Links[i]) > 0 {
			return base.Assignment.Links[i][0]
		}
	}
	return -1
}

func TestRepairEmptyFaultSetUnaffected(t *testing.T) {
	p, o, base := repairFixture(t)
	rep, err := Repair(context.Background(), p, o, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairUnaffected || rep.Result != base {
		t.Fatalf("outcome %s, want unaffected reusing the base result", rep.Outcome)
	}
	if rep.Err() != nil {
		t.Error("unaffected repair must not report an error")
	}
}

func TestRepairUnusedLinkUnaffected(t *testing.T) {
	p, o, base := repairFixture(t)
	// Find a link no message uses.
	used := map[topology.LinkID]bool{}
	for i := range base.Windows {
		for _, l := range base.Assignment.Links[i] {
			used[l] = true
		}
	}
	unused := topology.LinkID(-1)
	for l := 0; l < p.Topology.Links(); l++ {
		if !used[topology.LinkID(l)] {
			unused = topology.LinkID(l)
			break
		}
	}
	if unused < 0 {
		t.Skip("every link carries traffic in this fixture")
	}
	fs := topology.NewFaultSet()
	fs.FailLink(unused)
	rep, err := Repair(context.Background(), p, o, base, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairUnaffected {
		t.Fatalf("fault on unused link: outcome %s, want unaffected", rep.Outcome)
	}
}

func TestRepairSingleLinkIncremental(t *testing.T) {
	p, o, base := repairFixture(t)
	failed := firstUsedLink(base)
	if failed < 0 {
		t.Fatal("no message uses any link")
	}
	fs := topology.NewFaultSet()
	fs.FailLink(failed)

	rep, err := Repair(context.Background(), p, o, base, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairIncremental {
		t.Fatalf("outcome %s (stage %s, reason %q), want incremental", rep.Outcome, rep.Stage, rep.Reason)
	}
	if len(rep.Affected) == 0 || rep.Rerouted != len(rep.Affected) {
		t.Errorf("affected=%v rerouted=%d", rep.Affected, rep.Rerouted)
	}
	if rep.Result == nil || rep.Result.Omega == nil {
		t.Fatal("incremental repair must produce a schedule")
	}
	if err := rep.Result.Omega.Validate(p.Topology); err != nil {
		t.Fatalf("repaired schedule invalid: %v", err)
	}
	// No repaired path may cross the failed link.
	for i, path := range rep.Result.Assignment.Paths {
		links := rep.Result.Assignment.Links[i]
		if base.Windows[i].Local || len(links) == 0 {
			continue
		}
		if err := path.Validate(p.Topology); err != nil || slices.Contains(links, failed) {
			t.Errorf("message %d: path %s over %v still crosses link %d (%v)", i, path, links, failed, err)
		}
	}
	// Unaffected messages keep their allocations.
	aff := map[tfg.MessageID]bool{}
	for _, mi := range rep.Affected {
		aff[mi] = true
	}
	for i := range base.Windows {
		if aff[tfg.MessageID(i)] || base.Allocation.P[i] == nil {
			continue
		}
		for k, v := range base.Allocation.P[i] {
			if rep.Result.Allocation.P[i][k] != v {
				t.Fatalf("pinned message %d allocation changed in interval %d", i, k)
			}
		}
	}
}

func TestRepairEverySingleLinkFault(t *testing.T) {
	p, o, base := repairFixture(t)
	for l := 0; l < p.Topology.Links(); l++ {
		fs := topology.NewFaultSet()
		fs.FailLink(topology.LinkID(l))
		rep, err := Repair(context.Background(), p, o, base, fs)
		if err != nil {
			t.Fatalf("link %d: %v", l, err)
		}
		if rep.Outcome == RepairInfeasible || rep.Outcome == RepairDegradedRate {
			t.Errorf("link %d: outcome %s on a lightly loaded cube", l, rep.Outcome)
		}
	}
}

func TestRepairNodeFaultHostingTaskInfeasible(t *testing.T) {
	p, o, base := repairFixture(t)
	fs := topology.NewFaultSet()
	fs.FailNode(2) // every node hosts a task in the fixture
	rep, err := Repair(context.Background(), p, o, base, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairInfeasible || !rep.LostTasks {
		t.Fatalf("outcome %s lostTasks=%v, want infeasible with lost tasks", rep.Outcome, rep.LostTasks)
	}
	var ire *InfeasibleRepairError
	if !errors.As(rep.Err(), &ire) {
		t.Fatalf("Err() = %v, want *InfeasibleRepairError", rep.Err())
	}
	if !strings.Contains(ire.Error(), "repair infeasible") {
		t.Errorf("error message %q lacks diagnosis", ire.Error())
	}
}

func TestRepairIntermediateNodeFaultSurvivable(t *testing.T) {
	// Tasks on antipodal nodes 0 and 7 of a 3-cube: every minimal path
	// crosses intermediate nodes only, so an intermediate-node fault
	// must be routed around.
	top, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	p, o, base := twoTaskProblem(t, top, 0, 7)
	path := base.Assignment.Paths[0]
	if len(path.Nodes) < 3 {
		t.Fatalf("path %s has no intermediate node", path)
	}
	fs := topology.NewFaultSet()
	fs.FailNode(path.Nodes[1])
	rep, err := Repair(context.Background(), p, o, base, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome == RepairInfeasible {
		t.Fatalf("intermediate node fault must be survivable: %s", rep.Reason)
	}
	if rep.LostTasks {
		t.Error("no task was lost")
	}
}

func TestRepairDisconnectionInfeasible(t *testing.T) {
	// On a 1-cube (two nodes, one link) failing the only link
	// disconnects the endpoints: nothing can repair that.
	top, err := topology.NewHypercube(1)
	if err != nil {
		t.Fatal(err)
	}
	p, o, base := twoTaskProblem(t, top, 0, 1)
	fs := topology.NewFaultSet()
	fs.FailLink(0)
	rep, err := Repair(context.Background(), p, o, base, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairInfeasible {
		t.Fatalf("outcome %s, want infeasible on a disconnected pair", rep.Outcome)
	}
	if rep.Err() == nil {
		t.Error("infeasible repair must expose a typed error")
	}
}

func TestRepairDeterministic(t *testing.T) {
	p, o, base := repairFixture(t)
	fs := topology.NewFaultSet()
	fs.FailLink(firstUsedLink(base))
	a, err := Repair(context.Background(), p, o, base, fs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Repair(context.Background(), p, o, base, fs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome || a.NewPeak != b.NewPeak || a.Rerouted != b.Rerouted {
		t.Fatal("repair must be deterministic")
	}
	for i := range a.Result.Assignment.Paths {
		if !slices.Equal(a.Result.Assignment.Paths[i].Nodes, b.Result.Assignment.Paths[i].Nodes) {
			t.Fatalf("message %d path differs between identical repairs", i)
		}
	}
}

// TestPinFreeingEverythingEqualsUnpinned: pinning is a residual on the
// one allocation LP, so a pin whose predicate frees every message must
// leave the pipeline's back half bit-identical to the unpinned run —
// same rows in the same order, same Ω — on every machine of the paper.
func TestPinFreeingEverythingEqualsUnpinned(t *testing.T) {
	for name, top := range solverGoldenTopologies(t) {
		for _, tc := range []struct {
			bw float64
			k  int
		}{{64, 4}, {64, 7}, {128, 2}, {128, 10}} { // feasible and rejected at every stage
			p := dvbProblem(t, top, tc.bw, gridTauIn(tc.k))
			opt := (&Options{Seed: 1}).withDefaults()
			base, err := Compute(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			var starts []float64
			if base.Omega != nil {
				starts = base.Omega.Starts
			}
			run := func(pin *allocPin) *Result {
				var arena solveArena
				back := backHalf{arena: &arena, top: top, tauIn: p.TauIn,
					opt: &opt, clock: new(stageClock)}
				r := &Result{Windows: base.Windows, Intervals: base.Intervals, Activity: base.Activity,
					PeakLSD: base.PeakLSD, Latency: base.Latency}
				if err := back.run(context.Background(), nil, r, base.Assignment, base.Peak, starts, pin); err != nil {
					t.Fatalf("%s bw=%g k=%d: %v", name, tc.bw, tc.k, err)
				}
				return r
			}
			plain := run(nil)
			freed := run(&allocPin{base: &Allocation{P: make([][]float64, len(base.Windows))},
				free: func(tfg.MessageID) bool { return true }})
			if !reflect.DeepEqual(plain, freed) {
				t.Errorf("%s bw=%g k=%d: all-free pin changed the result (feasible %t vs %t, stage %s vs %s)",
					name, tc.bw, tc.k, plain.Feasible, freed.Feasible, plain.FailStage, freed.FailStage)
			}
			if plain.Feasible != base.Feasible || plain.FailStage != base.FailStage {
				t.Errorf("%s bw=%g k=%d: back half alone says %t/%s, Compute said %t/%s",
					name, tc.bw, tc.k, plain.Feasible, plain.FailStage, base.Feasible, base.FailStage)
			}
		}
	}
}

// TestRepairRouteMemoGoesWithItsFaultSet is the /v1/repair leak through
// the whole ladder: 1000 repairs from one base, a fresh FaultSet per
// call as the daemon builds them, for a fault rung 1 absorbs and for
// one that walks the full-pipeline rungs. What was enumerated around
// the fault lived on the set and left with it; the long-lived Topology
// holds the fault-free enumerations the base solve put there, no more.
func TestRepairRouteMemoGoesWithItsFaultSet(t *testing.T) {
	p, o, base := dvbRepairFixture(t)
	warm := p.Topology.RouteMemoLen()
	if warm == 0 {
		t.Fatal("the base solve memoized no fault-free enumeration")
	}
	for _, c := range []struct {
		link topology.LinkID
		want RepairOutcome
	}{{0, RepairIncremental}, {8, RepairDegradedWindow}} {
		for i := 0; i < 1000; i++ {
			rep, err := Repair(context.Background(), p, o, base, newFaultSet(t, p, c.link))
			if err != nil || rep.Outcome != c.want {
				t.Fatalf("link %d, call %d: outcome %v, err %v; want %v", c.link, i, rep.Outcome, err, c.want)
			}
		}
		if n := p.Topology.RouteMemoLen(); n != warm {
			t.Errorf("link %d (%v): the Topology holds %d enumerations after 1000 repairs, %d before", c.link, c.want, n, warm)
		}
	}
}
