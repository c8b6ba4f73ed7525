package wormhole

import (
	"math"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/dvb"
	"schedroute/internal/metrics"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// lineAssignment pins tasks to explicit nodes.
func lineAssignment(nodes ...topology.NodeID) *alloc.Assignment {
	return &alloc.Assignment{NodeOf: nodes}
}

func uniform(t *testing.T, g *tfg.Graph, exec, bw float64) *tfg.Timing {
	t.Helper()
	tm, err := tfg.NewUniformTiming(g, exec, bw)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestUncontendedChainConstantThroughput(t *testing.T) {
	g, err := tfg.Chain(3, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewTorus(8)
	if err != nil {
		t.Fatal(err)
	}
	tm := uniform(t, g, 10, 64) // exec 10, xmit 10
	// Adjacent placement 0,1,2: M1 uses link 0-1, M2 uses 1-2; disjoint.
	cfg := Config{
		Graph: g, Timing: tm, Topology: top,
		Assignment:  lineAssignment(0, 1, 2),
		TauIn:       15,
		Invocations: 10, Warmup: 3,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	ivs := metrics.Intervals(res.OutputCompletions)
	if metrics.OutputInconsistent(cfg.TauIn, ivs, 1e-9) {
		t.Errorf("uncontended chain shows OI: intervals %v", ivs)
	}
	// Latency = 3*10 exec + 2*10 xmit = 50 every invocation.
	for _, l := range res.Latencies {
		if math.Abs(l-50) > 1e-9 {
			t.Errorf("latency = %g, want 50", l)
		}
	}
	if res.TotalLinkWait != 0 {
		t.Errorf("unexpected link wait %g", res.TotalLinkWait)
	}
}

// TestOutputInconsistencyClaim reproduces the Section 3 construction:
// M1 (T1s→T1d) and M2 (T2s→T2d) with T1d preceding T2s, all on the
// critical path, whose assigned paths share links in the same
// direction; FCFS arbitration across invocations yields unequal output
// intervals.
func TestOutputInconsistencyClaim(t *testing.T) {
	b := tfg.NewBuilder("claim")
	a := b.AddTask("a", 100)
	bb := b.AddTask("b", 100)
	c := b.AddTask("c", 100)
	d := b.AddTask("d", 100)
	b.AddMessage("m1", a, bb, 512)  // the claim's M1
	b.AddMessage("mbc", bb, c, 128) // precedence T1d < T2s
	b.AddMessage("m2", c, d, 512)   // the claim's M2
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewTorus(8)
	if err != nil {
		t.Fatal(err)
	}
	tm := uniform(t, g, 10, 64) // exec 10, xmit m1=m2=8, mbc=2
	// a@0, b@3, c@1, d@3: M1 rides 0→1→2→3 and M2 rides 1→2→3 —
	// the eastbound channels of links 1-2 and 2-3 are shared.
	cfg := Config{
		Graph: g, Timing: tm, Topology: top,
		Assignment:  lineAssignment(0, 3, 1, 3),
		TauIn:       32,
		Invocations: 30, Warmup: 5,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	ivs := metrics.Intervals(res.OutputCompletions)
	if !metrics.OutputInconsistent(cfg.TauIn, ivs, 1e-9) {
		t.Errorf("expected OI from shared-link FCFS contention; intervals %v", ivs)
	}
	if res.TotalLinkWait == 0 {
		t.Error("expected blocking on the shared link")
	}
	// At a long period the same system pipelines consistently.
	cfg.TauIn = 70
	res, err = Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ivs = metrics.Intervals(res.OutputCompletions)
	if metrics.OutputInconsistent(cfg.TauIn, ivs, 1e-9) {
		t.Errorf("long period should remove OI; intervals %v", ivs)
	}
	// With d@4, M2 rides 1→2→3→4, and at τin = 32 the output intervals
	// alternate 42/22 µs, the pattern the proof's cycling argument
	// predicts. The last interval is an edge of the run (no later
	// invocation contends with it), so only the ones before it are held
	// to the alternation.
	cfg.Assignment, cfg.TauIn = lineAssignment(0, 3, 1, 4), 32
	res, err = Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ivs = metrics.Intervals(res.OutputCompletions)
	warm := ivs[:len(ivs)-1]
	for i, iv := range warm {
		is := func(x float64) bool { return math.Abs(iv-x) <= 1e-9 }
		if !is(42) && !is(22) || i > 0 && is(warm[i-1]) {
			t.Fatalf("placement {0,3,1,4} at τin 32: intervals %v, want a strict 42/22 µs alternation before the last", ivs)
		}
	}
}

func TestColocatedTasksDeliverInstantly(t *testing.T) {
	g, err := tfg.Chain(2, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewTorus(4)
	if err != nil {
		t.Fatal(err)
	}
	tm := uniform(t, g, 10, 64)
	cfg := Config{
		Graph: g, Timing: tm, Topology: top,
		Assignment:  lineAssignment(2, 2), // same node
		TauIn:       100,                  // long period: no AP overlap
		Invocations: 4, Warmup: 1,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Local message: still one transmission time, but AP serializes both
	// tasks on node 2: A 0-10, xmit 10-20, B 20-30 → latency 30.
	for _, l := range res.Latencies {
		if math.Abs(l-30) > 1e-9 {
			t.Errorf("latency = %g, want 30", l)
		}
	}
}

func TestAPSerializationWithSharedNode(t *testing.T) {
	// Two independent input tasks on one node must serialize.
	b := tfg.NewBuilder("two-inputs")
	a := b.AddTask("a", 100)
	c := b.AddTask("c", 100)
	sink := b.AddTask("sink", 100)
	b.AddMessage("m1", a, sink, 640)
	b.AddMessage("m2", c, sink, 640)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewTorus(8)
	if err != nil {
		t.Fatal(err)
	}
	tm := uniform(t, g, 10, 64)
	cfg := Config{
		Graph: g, Timing: tm, Topology: top,
		Assignment:  lineAssignment(0, 0, 4),
		TauIn:       100,
		Invocations: 3, Warmup: 0,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// a: 0-10, c: 10-20; messages 0->4 share the ring path 0..4
	// (LSD-to-MSD from the same source/destination pair): m1 10-20...
	// sink needs both; second message cannot start before 20 and the two
	// share all links, so sink starts at 30 and ends at 40.
	if math.Abs(res.Latencies[0]-40) > 1e-9 {
		t.Errorf("latency = %g, want 40", res.Latencies[0])
	}
}

func TestDVBOnSixCubeRuns(t *testing.T) {
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
	cfg := Config{
		Graph: g, Timing: tm, Topology: top, Assignment: as,
		TauIn:       tm.TauC(), // maximum load
		Invocations: 20, Warmup: 10,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("DVB on 6-cube deadlocked")
	}
	if len(res.OutputCompletions) != 20 {
		t.Fatalf("got %d completions", len(res.OutputCompletions))
	}
	// Outputs must be monotonically increasing.
	for i := 1; i < len(res.OutputCompletions); i++ {
		if res.OutputCompletions[i] <= res.OutputCompletions[i-1] {
			t.Fatalf("non-monotone completions at %d", i)
		}
	}
	// At maximum load with fan-in contention, blocking must occur.
	if res.TotalLinkWait == 0 {
		t.Error("expected link contention at maximum load")
	}
}

func TestConfigValidation(t *testing.T) {
	g, _ := tfg.Chain(2, 100, 640)
	top, _ := topology.NewTorus(4)
	tm := uniform(t, g, 10, 64)
	as := lineAssignment(0, 1)
	base := Config{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 20, Invocations: 2}

	bad := base
	bad.TauIn = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("zero period should fail")
	}
	bad = base
	bad.Invocations = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("zero invocations should fail")
	}
	bad = base
	bad.Warmup = -1
	if _, err := Simulate(bad); err == nil {
		t.Error("negative warmup should fail")
	}
	bad = base
	bad.Graph = nil
	if _, err := Simulate(bad); err == nil {
		t.Error("nil graph should fail")
	}
	bad = base
	bad.Assignment = lineAssignment(0)
	if _, err := Simulate(bad); err == nil {
		t.Error("short assignment should fail")
	}
}

func TestLatencyBoundedBelowByCriticalPath(t *testing.T) {
	// No invocation can finish faster than the uncontended critical path.
	g, err := dvb.New(4)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dvb.Timing(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.Greedy(g, top)
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := g.CriticalPath(tm)
	for _, tauIn := range []float64{50, 75, 120, 250} {
		cfg := Config{
			Graph: g, Timing: tm, Topology: top, Assignment: as,
			TauIn: tauIn, Invocations: 15, Warmup: 5,
		}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Fatalf("deadlock at tauIn=%g", tauIn)
		}
		for j, l := range res.Latencies {
			if l < cp-1e-6 {
				t.Errorf("tauIn=%g inv %d: latency %g below critical path %g", tauIn, j, l, cp)
			}
		}
		for i := 1; i < len(res.OutputCompletions); i++ {
			if res.OutputCompletions[i] <= res.OutputCompletions[i-1] {
				t.Fatalf("tauIn=%g: non-monotone output completions", tauIn)
			}
		}
	}
}
