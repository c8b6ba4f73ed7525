package schedule

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"schedroute/internal/alloc"
	"schedroute/internal/dvb"
	"schedroute/internal/metrics"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

func dvbProblem(t testing.TB, top *topology.Topology, bw, tauIn float64) Problem {
	t.Helper()
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dvb.Timing(g, bw)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: tauIn}
}

// gridTauIn returns the k-th of the paper's twelve input periods
// between τc and 5τc for τc = 50 µs.
func gridTauIn(k int) float64 { return 50 * (1 + 4*float64(k)/11) }

func sixCube(t testing.TB) *topology.Topology {
	t.Helper()
	top, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestComputeFeasibleLowLoadSixCube(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5)) // load 0.355
	res, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("expected feasible at load 0.355, failed at %v (U=%g)", res.FailStage, res.Peak)
	}
	if res.Peak > 1+1e-9 {
		t.Errorf("feasible with peak %g > 1", res.Peak)
	}
	if res.Omega == nil || len(res.Slices) == 0 {
		t.Fatal("missing schedule artifacts")
	}
	if err := res.Omega.Validate(p.Topology); err != nil {
		t.Errorf("omega validation: %v", err)
	}
}

func TestComputeInfeasibleHighLoadSixCubeB64(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, 50) // load 1.0
	res, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("load 1.0 at B=64 should exceed link capacity (paper Fig. 7)")
	}
	if res.FailStage != StageUtilization {
		t.Errorf("fail stage = %v, want utilization", res.FailStage)
	}
	if res.Peak <= 1 {
		t.Errorf("peak = %g, should exceed 1", res.Peak)
	}
}

func TestComputeFeasibleAllLoadsSixCubeB128(t *testing.T) {
	// Paper Fig. 7 bottom: at B=128 the 6-cube pipelines at every load.
	top := sixCube(t)
	for _, k := range []int{0, 3, 7, 11} {
		tauIn := gridTauIn(k)
		p := dvbProblem(t, top, 128, tauIn)
		res, err := Compute(p, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Errorf("tauIn=%g: failed at %v (U=%g)", tauIn, res.FailStage, res.Peak)
		}
	}
}

func TestComputeTorusB64NeverFeasible(t *testing.T) {
	// Paper Fig. 6: tori at B=64 never reach U <= 1.
	top, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tauIn := range []float64{50, 120, 250} {
		p := dvbProblem(t, top, 64, tauIn)
		res, err := Compute(p, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible {
			t.Errorf("tauIn=%g: 8x8 torus at B=64 should be infeasible", tauIn)
		}
		if res.FailStage != StageUtilization {
			t.Errorf("tauIn=%g: fail stage = %v, want utilization", tauIn, res.FailStage)
		}
	}
}

func TestAssignPathsNeverWorseThanLSD(t *testing.T) {
	top := sixCube(t)
	for _, tauIn := range []float64{50, 90, 130, 200, 250} {
		p := dvbProblem(t, top, 64, tauIn)
		res, err := Compute(p, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Peak > res.PeakLSD+1e-9 {
			t.Errorf("tauIn=%g: AssignPaths peak %g worse than LSD %g", tauIn, res.Peak, res.PeakLSD)
		}
	}
}

func TestExecuteConstantThroughput(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	exec, err := Execute(res.Omega, p.Graph, p.Timing, p.Timing.TauC(), 12)
	if err != nil {
		t.Fatal(err)
	}
	ivs := metrics.Intervals(exec.OutputCompletions)
	if metrics.OutputInconsistent(p.TauIn, ivs, 1e-9) {
		t.Errorf("scheduled routing must be output consistent; intervals %v", ivs)
	}
	th, err := metrics.NormalizedThroughput(p.TauIn, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if !th.Constant(1e-9) || math.Abs(th.Mid-1) > 1e-9 {
		t.Errorf("throughput spike %v, want exactly 1", th)
	}
	for _, l := range exec.Latencies {
		if math.Abs(l-res.Latency) > 1e-9 {
			t.Errorf("latency %g differs from schedule latency %g", l, res.Latency)
		}
	}
	// Windowed latency is never below the critical path.
	cp, _ := p.Graph.CriticalPath(p.Timing)
	if res.Latency < cp-1e-9 {
		t.Errorf("latency %g below critical path %g", res.Latency, cp)
	}
}

func TestComputeRejectsBadInput(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	bad := p
	bad.Graph = nil
	if _, err := Compute(bad, Options{}); err == nil {
		t.Error("nil graph should fail")
	}
	bad = p
	bad.TauIn = 10 // below τc
	if _, err := Compute(bad, Options{}); err == nil {
		t.Error("period below τc should fail")
	}
	// Shared node violates the exclusive-AP assumption.
	bad = p
	shared := &alloc.Assignment{NodeOf: append([]topology.NodeID(nil), p.Assignment.NodeOf...)}
	shared.NodeOf[1] = shared.NodeOf[0]
	bad.Assignment = shared
	if _, err := Compute(bad, Options{}); err == nil {
		t.Error("non-exclusive placement should fail")
	}
}

func TestComputeLSDOnly(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1, LSDOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak != res.PeakLSD {
		t.Errorf("LSDOnly peak %g != PeakLSD %g", res.Peak, res.PeakLSD)
	}
}

func TestComputeLocalMessages(t *testing.T) {
	// Chain of two tasks on the same node: everything is local, the
	// schedule is trivially feasible with no slices.
	g, err := tfg.Chain(2, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two tasks on distinct nodes is required (exclusive), so make a
	// local message via a graph where... exclusive placement forbids
	// same-node tasks, so local messages cannot arise under Compute.
	as := &alloc.Assignment{NodeOf: []topology.NodeID{0, 1}}
	res, err := Compute(Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 100}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("trivial chain should schedule: %v", res.FailStage)
	}
}

func TestMaximalSubsetsPartition(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	ws, err := ComputeWindowsFromStarts(p.Graph, p.Timing, p.TauIn, p.Timing.TauC(), p.Graph.PipelinedStart(p.Timing, p.Timing.TauC()), nil)
	if err != nil {
		t.Fatal(err)
	}
	set := BuildIntervals(ws, p.TauIn)
	act := BuildActivity(ws, set)
	pa, err := LSDAssignment(p.Graph, p.Topology, p.Assignment, ws)
	if err != nil {
		t.Fatal(err)
	}
	subsets := MaximalSubsets(pa, ws, act)
	seen := map[tfg.MessageID]int{}
	total := 0
	for si, sub := range subsets {
		if len(sub) == 0 {
			t.Fatal("empty subset")
		}
		for _, mi := range sub {
			if prev, dup := seen[mi]; dup {
				t.Fatalf("message %d in subsets %d and %d", mi, prev, si)
			}
			seen[mi] = si
			total++
		}
	}
	if total != p.Graph.NumMessages() {
		t.Errorf("subsets cover %d of %d messages", total, p.Graph.NumMessages())
	}
	// Messages in different subsets never share an active (link,
	// interval) cell.
	for i := 0; i < p.Graph.NumMessages(); i++ {
		for j := i + 1; j < p.Graph.NumMessages(); j++ {
			if seen[tfg.MessageID(i)] == seen[tfg.MessageID(j)] {
				continue
			}
			if sharesCell(pa, act, tfg.MessageID(i), tfg.MessageID(j)) {
				t.Fatalf("messages %d and %d share a cell across subsets", i, j)
			}
		}
	}
}

func sharesCell(pa *PathAssignment, act *Activity, a, b tfg.MessageID) bool {
	la := map[topology.LinkID]bool{}
	for _, l := range pa.Links[a] {
		la[l] = true
	}
	shared := false
	for _, l := range pa.Links[b] {
		if la[l] {
			shared = true
			break
		}
	}
	if !shared {
		return false
	}
	for k := range act.Active[a] {
		if act.Active[a][k] && act.Active[b][k] {
			return true
		}
	}
	return false
}

func TestAllocationRespectsConstraints(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	al, act, ws := res.Allocation, res.Activity, res.Windows
	// (3): allocations sum to transmission times.
	for _, m := range p.Graph.Messages() {
		if ws[m.ID].Local {
			continue
		}
		sum := 0.0
		for k := 0; k < act.Intervals.K(); k++ {
			v := al.P[m.ID][k]
			if v < -1e-9 {
				t.Fatalf("negative allocation %g", v)
			}
			if v > 1e-9 && !act.Active[m.ID][k] {
				t.Fatalf("message %d allocated to inactive interval %d", m.ID, k)
			}
			sum += v
		}
		if math.Abs(sum-ws[m.ID].Xmit) > 1e-6 {
			t.Errorf("message %d allocation sums to %g, want %g", m.ID, sum, ws[m.ID].Xmit)
		}
	}
	// (4): per-(link, interval) capacity.
	for l := 0; l < p.Topology.Links(); l++ {
		for k := 0; k < act.Intervals.K(); k++ {
			load := 0.0
			for _, m := range p.Graph.Messages() {
				if al.P[m.ID] == nil {
					continue
				}
				for _, ml := range res.Assignment.Links[m.ID] {
					if int(ml) == l {
						load += al.P[m.ID][k]
						break
					}
				}
			}
			if load > act.Intervals.Length(k)+1e-6 {
				t.Errorf("link %d interval %d overloaded: %g > %g", l, k, load, act.Intervals.Length(k))
			}
		}
	}
}

func TestSlicesAreLinkFeasible(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	for _, sl := range res.Slices {
		a, b := res.Activity.Intervals.Bounds(sl.Interval)
		if sl.Start < a-1e-9 || sl.End > b+1e-6 {
			t.Errorf("slice [%g,%g) escapes interval [%g,%g)", sl.Start, sl.End, a, b)
		}
		used := map[topology.LinkID]tfg.MessageID{}
		for _, m := range sl.Msgs {
			for _, l := range res.Assignment.Links[m] {
				if other, clash := used[l]; clash {
					t.Fatalf("slice shares link %d between messages %d and %d", l, other, m)
				}
				used[l] = m
			}
		}
	}
}

func TestGreedyAndExactEnginesAgreeOnFeasibility(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	for _, eng := range []Engine{EngineGreedy, EngineExact} {
		res, err := Compute(p, Options{Seed: 1, Engine: eng})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if !res.Feasible {
			t.Errorf("engine %v infeasible at low load", eng)
		}
		if err := res.Omega.Validate(p.Topology); err != nil {
			t.Errorf("engine %v: %v", eng, err)
		}
	}
}

// An engine: exact interval whose maximal link-feasible sets overrun
// the 4096-set cap takes the greedy decomposition, as under auto,
// instead of failing the solve: compile_lp's cube7-s3-d0.05-b256-t90 at
// the pool's Seed 1 and Retries 2 ends where auto ends, at interval
// scheduling with peak 0.4790736607142857 after 3 attempts.
func TestExactEngineFallsBackPastTheCap(t *testing.T) {
	pool, o := compileLPPool(t)
	i := slices.IndexFunc(pool, func(e poolEntry) bool { return e.id == "cube7-s3-d0.05-b256-t90" })
	if i < 0 {
		t.Fatal("cube7-s3-d0.05-b256-t90 left the compile_lp pool")
	}
	o.Engine = EngineExact
	res, err := Compute(pool[i].p, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailStage != StageIntervalSchedule || res.Peak != 0.4790736607142857 || res.Stats.Attempts != 3 {
		t.Errorf("ended at %v with peak %v after %d attempts, want interval scheduling with peak 0.4790736607142857 after 3",
			res.FailStage, res.Peak, res.Stats.Attempts)
	}
}

func TestOmegaCommandsConsistent(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil || !res.Feasible {
		t.Fatalf("setup: %v %v", err, res.FailStage)
	}
	om := res.Omega
	if om.NumCommands() == 0 {
		t.Fatal("no commands emitted")
	}
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			if c.End < c.Start-1e-9 {
				t.Errorf("node %d: command ends before start", ns.Node)
			}
			if c.In.AP && c.Out.AP {
				t.Errorf("node %d: AP-to-AP command", ns.Node)
			}
		}
	}
	// Every non-local message appears at both its endpoints.
	for _, m := range p.Graph.Messages() {
		if res.Windows[m.ID].Local {
			continue
		}
		srcNode := p.Assignment.Node(m.Src)
		dstNode := p.Assignment.Node(m.Dst)
		foundSrc, foundDst := false, false
		for _, c := range om.CommandsAt(srcNode) {
			if c.Msg == m.ID && c.In.AP {
				foundSrc = true
			}
		}
		for _, c := range om.CommandsAt(dstNode) {
			if c.Msg == m.ID && c.Out.AP {
				foundDst = true
			}
		}
		if !foundSrc || !foundDst {
			t.Errorf("message %d missing injection (%v) or delivery (%v)", m.ID, foundSrc, foundDst)
		}
	}
}

// The central soundness property: whenever Compute reports feasible for
// a random workload, the emitted schedule validates and executes with
// exactly constant throughput.
func TestQuickFeasibleImpliesSound(t *testing.T) {
	top, err := topology.NewGHC(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, loadRaw uint8) bool {
		g, err := tfg.RandomLayered(seed%200, []int{2, 3, 3, 2}, 100, 100, 256, 3200, 0.3)
		if err != nil {
			return false
		}
		tm, err := tfg.NewUniformTiming(g, 50, 64)
		if err != nil {
			return false
		}
		as, err := alloc.Random(g, top, seed)
		if err != nil {
			return false
		}
		tauIn := 50 * (1 + float64(loadRaw%40)/10) // load 1.0 .. 0.2
		res, err := Compute(Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: tauIn}, Options{Seed: seed})
		if err != nil {
			return false
		}
		if !res.Feasible {
			return true // infeasibility is a legitimate outcome
		}
		if res.Omega.Validate(top) != nil {
			return false
		}
		exec, err := Execute(res.Omega, g, tm, tm.TauC(), 5)
		if err != nil {
			return false
		}
		ivs := metrics.Intervals(exec.OutputCompletions)
		return !metrics.OutputInconsistent(tauIn, ivs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStageStrings(t *testing.T) {
	for s, want := range map[Stage]string{
		StageOK:               "ok",
		StageUtilization:      "utilization",
		StageAllocation:       "message-interval allocation",
		StageIntervalSchedule: "interval scheduling",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}
