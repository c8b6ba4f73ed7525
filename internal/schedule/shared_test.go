package schedule

import (
	"errors"
	"math"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/dvb"
	"schedroute/internal/errkind"
	"schedroute/internal/metrics"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// sharedFixture places the 15-task DVB(4) on an 8-node 3-cube: every
// node hosts roughly two tasks, exercising the AP-sharing node
// scheduler.
func sharedFixture(t *testing.T, tauIn float64) Problem {
	t.Helper()
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dvb.Timing(g, 128)
	if err != nil {
		t.Fatal(err)
	}
	as := &alloc.Assignment{NodeOf: make([]topology.NodeID, g.NumTasks())}
	for i, task := range g.TopoOrder() {
		as.NodeOf[task] = topology.NodeID(i % top.Nodes())
	}
	return Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: tauIn}
}

func TestSharedNodesRejectedWithoutOption(t *testing.T) {
	p := sharedFixture(t, 250)
	if _, err := Compute(p, Options{Seed: 1}); err == nil {
		t.Error("shared placement must be rejected without AllowSharedNodes")
	}
}

func TestSharedNodesSchedule(t *testing.T) {
	// 15 tasks of 50 µs on 8 nodes need >= 100 µs per period on the
	// busiest AP; τin = 250 leaves room.
	p := sharedFixture(t, 250)
	res, err := Compute(p, Options{Seed: 1, AllowSharedNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("expected feasible, failed at %v (U=%g)", res.FailStage, res.Peak)
	}
	if res.Omega.Starts == nil {
		t.Fatal("shared schedule must record its start times")
	}
	// AP exclusivity: tasks on one node occupy disjoint frame intervals.
	type span struct{ a, e float64 }
	perNode := map[topology.NodeID][]span{}
	for i := 0; i < p.Graph.NumTasks(); i++ {
		n := p.Assignment.Node(tfg.TaskID(i))
		a := math.Mod(res.Omega.Starts[i], p.TauIn)
		perNode[n] = append(perNode[n], span{a: a, e: p.Timing.ExecTime[i]})
	}
	for n, spans := range perNode {
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				d := math.Mod(spans[j].a-spans[i].a+p.TauIn, p.TauIn)
				if d < spans[i].e-1e-9 || p.TauIn-d < spans[j].e-1e-9 {
					t.Fatalf("node %d: AP intervals overlap (%v vs %v)", n, spans[i], spans[j])
				}
			}
		}
	}
	// Execution still yields constant throughput.
	exec, err := Execute(res.Omega, p.Graph, p.Timing, p.Timing.TauC(), 6)
	if err != nil {
		t.Fatal(err)
	}
	ivs := metrics.Intervals(exec.OutputCompletions)
	if metrics.OutputInconsistent(p.TauIn, ivs, 1e-9) {
		t.Error("shared-node schedule lost output consistency")
	}
}

func TestSharedNodesLatencyAtLeastExclusive(t *testing.T) {
	// The same TFG on a 64-node machine with exclusive placement can
	// only be faster than the packed 8-node version.
	packed := sharedFixture(t, 250)
	res, err := Compute(packed, Options{Seed: 1, AllowSharedNodes: true})
	if err != nil || !res.Feasible {
		t.Fatalf("packed setup: %v", err)
	}

	big, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.RoundRobin(packed.Graph, big)
	if err != nil {
		t.Fatal(err)
	}
	wide := packed
	wide.Topology = big
	wide.Assignment = as
	resWide, err := Compute(wide, Options{Seed: 1})
	if err != nil || !resWide.Feasible {
		t.Fatalf("wide setup: %v", err)
	}
	if res.Latency < resWide.Latency-1e-9 {
		t.Errorf("packed latency %g beats exclusive %g — AP contention cannot speed things up", res.Latency, resWide.Latency)
	}
}

func TestSharedNodesOverloadedAPRejected(t *testing.T) {
	// 15 tasks of 50 µs on 2 nodes need 400 µs per period on one AP;
	// τin = 250 cannot fit.
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewHypercube(1)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dvb.Timing(g, 128)
	if err != nil {
		t.Fatal(err)
	}
	as := &alloc.Assignment{NodeOf: make([]topology.NodeID, g.NumTasks())}
	for i := range as.NodeOf {
		as.NodeOf[i] = topology.NodeID(i % 2)
	}
	p := Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 250}
	_, err = Compute(p, Options{Seed: 1, AllowSharedNodes: true})
	if err == nil {
		t.Fatal("overloaded AP should be rejected")
	}
	// The request's fault: HTTP 400, not an unclassified 500.
	if !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("overloaded AP refused with an unclassified error: %v", err)
	}
}

func TestPipelinedStartSharedMatchesExclusive(t *testing.T) {
	// With one task per node, the shared scheduler reduces to the
	// plain pipelined layout.
	g, err := tfg.Diamond(100, 640)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := []int{0, 1, 2, 3}
	shared, err := g.PipelinedStartShared(tm, 50, nodeOf, 150)
	if err != nil {
		t.Fatal(err)
	}
	plain := g.PipelinedStart(tm, 50)
	for i := range plain {
		if math.Abs(shared[i]-plain[i]) > 1e-9 {
			t.Errorf("task %d: shared %g vs plain %g", i, shared[i], plain[i])
		}
	}
}

func TestPipelinedStartSharedValidation(t *testing.T) {
	g, err := tfg.Chain(3, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.PipelinedStartShared(tm, 50, []int{0}, 150); err == nil {
		t.Error("short nodeOf should fail")
	}
	if _, err := g.PipelinedStartShared(tm, 50, []int{0, 0, 0}, 0); err == nil {
		t.Error("zero period should fail")
	}
	// Three 50 µs tasks on one node within a 100 µs period: impossible.
	if _, err := g.PipelinedStartShared(tm, 50, []int{0, 0, 0}, 100); err == nil {
		t.Error("overloaded AP should fail")
	}
	// Within 150 µs it packs exactly.
	starts, err := g.PipelinedStartShared(tm, 50, []int{0, 0, 0}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 {
		t.Fatal("missing starts")
	}
}
