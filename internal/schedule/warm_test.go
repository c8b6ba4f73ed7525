package schedule

import (
	"context"
	"errors"
	"math"
	"runtime/debug"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// sameUtilization fails unless got equals want, the dense reference
// (computeUtilizationReference), bit for bit: every LinkU entry, the
// peak and its position.
func sameUtilization(t *testing.T, step string, got, want *Utilization) {
	t.Helper()
	if math.Float64bits(got.Peak) != math.Float64bits(want.Peak) || got.PeakLink != want.PeakLink || got.PeakInterval != want.PeakInterval {
		t.Fatalf("%s: peak (%v, link %v, interval %v), the dense reference (%v, link %v, interval %v)",
			step, got.Peak, got.PeakLink, got.PeakInterval, want.Peak, want.PeakLink, want.PeakInterval)
	}
	sameLinkU(t, step, got.LinkU, want.LinkU)
}

func sameLinkU(t *testing.T, step string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d link utilizations, the dense reference has %d", step, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: link %d utilization %v, the dense reference %v", step, j, got[j], want[j])
		}
	}
}

// TestAssignPathsUtilMatchesComputeUtilization: the restart fold keeps
// only a peak and its position, and AssignPaths builds the Utilization
// it returns once, for the assignment it returns; it must equal the
// dense reference of that assignment (what ComputeUtilization is held
// to) bit for bit, LinkU included. DVB on the 6-cube at two periods and
// three seeds, and the near-zero climb whose fold stops early.
func TestAssignPathsUtilMatchesComputeUtilization(t *testing.T) {
	for _, tauIn := range []float64{100, 141} {
		lsd, cands, top, ws, act := assignFixture(t, tauIn)
		for seed := int64(1); seed <= 3; seed++ {
			res := AssignPaths(lsd, cands, top, ws, act, seed, 4, 40)
			sameUtilization(t, "dvb/cube6", res.Util, computeUtilizationReference(top, res.Assignment, ws, act, nil))
		}
	}
	c := nearZeroClimb(t)
	res := AssignPaths(c.pa, c.cands, c.p.Topology, c.ws, c.act, c.seed, 6, 60)
	sameUtilization(t, c.name, res.Util, computeUtilizationReference(c.p.Topology, res.Assignment, c.ws, c.act, nil))
}

// TestTenantReserveMatchesComputeUtilization: reserveOf reads a
// tenant's reservation off a pooled LoadState; every admitted tenant's
// Reserve must equal the dense reference's LinkU of its admitted
// schedule bit for bit. Tenants on the 6-cube — DVB at a relaxed period, then a
// displaced DVB copy at a tight one that the ladder degrades — and on
// the 3-cube, so the pooled arenas change shape between reservations.
func TestTenantReserveMatchesComputeUtilization(t *testing.T) {
	cube := sixCube(t)
	bys := dvbProblem(t, cube, 64, 150)
	bys.TauIn = bys.Timing.TauC() * 5
	vic := dvbProblem(t, cube, 64, 150)
	n := cube.Nodes()
	shifted := &alloc.Assignment{NodeOf: make([]topology.NodeID, len(vic.Assignment.NodeOf))}
	for i, nd := range vic.Assignment.NodeOf {
		shifted.NodeOf[i] = topology.NodeID((int(nd) + n/2) % n)
	}
	vic.Assignment = shifted
	small := threeCube(t)
	for _, set := range []struct {
		top     *topology.Topology
		tenants []Tenant
	}{
		{cube, []Tenant{
			{ID: "bystander", Priority: 1, Problem: bys, Options: Options{Seed: 1}},
			{ID: "victim", Priority: 1, Problem: vic, Options: Options{Seed: 1}},
		}},
		{small, []Tenant{chainTenant(t, small, "A"), chainTenant(t, small, "B"), pairTenant(t, small, "C", 0, 7, 640, 50)}},
	} {
		ts := NewTenantSet(set.top)
		for _, tn := range set.tenants {
			if _, err := ts.Admit(context.Background(), tn, nil); err != nil {
				t.Fatal(err)
			}
		}
		admitted := ts.Tenants()
		if len(admitted) < 2 {
			t.Fatalf("%v: %d tenants admitted; the fixture needs two", set.top, len(admitted))
		}
		for _, st := range admitted {
			want := computeUtilizationReference(set.top, st.Base.Assignment, st.Base.Windows, st.Base.Activity, nil).LinkU
			sameLinkU(t, st.Tenant.ID, st.Reserve, want)
		}
	}
}

// TestWarmValidateAllocatesNothing: Validate takes its linkset table and
// check arrays from a pool, so once one call has warmed it, a call
// allocates nothing. The garbage collector is off while it counts, so
// the pool is not emptied under it.
func TestWarmValidateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under -race")
	}
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("the fixture must be feasible, failed at %v", res.FailStage)
	}
	validate := func() {
		if err := res.Omega.Validate(p.Topology); err != nil {
			t.Fatal(err)
		}
	}
	validate()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(10, validate); n >= 1 {
		t.Fatalf("a warm Validate allocates %v times", n)
	}
}

// TestWarmMemoHitsAllocateNothing: a memo.Cache hit hands back what was
// built and allocates nothing, so the build closure each lookup passes
// never escapes: a route enumeration, fault-free and around a failed
// link, and a warm Solver's validation and LSD baseline.
func TestWarmMemoHitsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	torus, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs := topology.NewFaultSet()
	fs.FailLink(0)
	p := dvbProblem(t, torus, 128, 100)
	s := NewSolver(p)
	if _, err := s.Solve(context.Background(), p.TauIn, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		lookup func() error
	}{
		{"routes", func() error { _, _, err := torus.SurvivingRoutes(0, 27, 24, nil); return err }},
		{"routes around a fault", func() error { _, _, err := torus.SurvivingRoutes(0, 27, 24, fs); return err }},
		{"validation", func() error { return s.validate(true) }},
		{"baseline", func() error { _, _, err := s.lsdBaseline(nil); return err }},
	} {
		if err := c.lookup(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { c.lookup() }); n != 0 {
			t.Errorf("a warm %s lookup allocates %v times", c.name, n)
		}
	}
	if st := s.CacheStats(); st.ValidateBuilds != 1 || st.BaselineBuilds != 1 {
		t.Errorf("%+v: the lookups were not hits", st)
	}
}

// warmSolveAllocs bounds what a warm Solve of DVB on the 8x8 torus at
// B=128, τin 100 allocates: the Result and what it keeps — windows,
// intervals, activity, the LSD baseline's and the returned
// assignment's clones, the allocation rows (one array), the slices and
// the slice list, and Ω — and nothing else (solveArena's comment).
const warmSolveAllocs = 22

// TestWarmSolveAllocations pins warmSolveAllocs. The garbage collector
// is off while it counts, so the arena pool is not emptied under it.
func TestWarmSolveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under -race")
	}
	torus, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := dvbProblem(t, torus, 128, 100)
	s := NewSolver(p)
	solve := func() {
		if _, err := s.Solve(context.Background(), p.TauIn, Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(10, solve)
	t.Logf("a warm Solve allocates %v times", n)
	if n > warmSolveAllocs {
		t.Fatalf("a warm Solve allocates %v times, more than %d", n, warmSolveAllocs)
	}
}

// TestWarmComputeUtilizationAllocatesTwice: ComputeUtilization builds
// its LoadState in a pooled arena, so once one call has warmed it, a
// call allocates the Utilization and its LinkU and nothing else. The
// garbage collector is off while it counts, so the pool is not emptied
// under it.
func TestWarmComputeUtilizationAllocatesTwice(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under -race")
	}
	lsd, _, top, ws, act := assignFixture(t, 141)
	ComputeUtilization(top, lsd, ws, act)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(10, func() { ComputeUtilization(top, lsd, ws, act) }); n != 2 {
		t.Fatalf("a warm ComputeUtilization allocates %v times, want 2", n)
	}
}

// TestSolverKeepsRefusals: a Solver keeps its baseline's and its
// validation's verdicts, refusals included, so a cached structure that
// cannot solve answers every later Solve without running the failing
// stage again. DVB on the 8x8 torus with every link of the last
// message's destination node failed: each Solve returns the first one's
// NoRouteError, FaultRouteAssignment runs once, and a repeat allocates
// no more than refusalAllocs times — the windows and activity it
// derives before the baseline. A placement of every task on one node
// fails the exclusive validation once for every Solve.
func TestSolverKeepsRefusals(t *testing.T) {
	torus, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := dvbProblem(t, torus, 128, 100)
	last := p.Graph.Message(tfg.MessageID(p.Graph.NumMessages() - 1))
	dst := p.Assignment.Node(last.Dst)
	p.Faults = topology.NewFaultSet()
	for l := range torus.Links() {
		if ln := torus.Link(topology.LinkID(l)); ln.A == dst || ln.B == dst {
			p.Faults.FailLink(topology.LinkID(l))
		}
	}
	s := NewSolver(p)
	solve := func() error {
		_, err := s.Solve(context.Background(), p.TauIn, Options{Seed: 1})
		return err
	}
	first := solve()
	var nr *topology.NoRouteError
	if !errors.As(first, &nr) {
		t.Fatalf("Solve with node %v cut off: %v, want a NoRouteError", dst, first)
	}
	for range 3 {
		if err := solve(); err != first {
			t.Fatalf("a repeat Solve refused with %v, the first with %v", err, first)
		}
	}
	if !raceEnabled {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		n := testing.AllocsPerRun(10, func() { solve() })
		t.Logf("a repeat refusal allocates %v times", n)
		if n > refusalAllocs {
			t.Errorf("a repeat refusal allocates %v times, more than %d", n, refusalAllocs)
		}
	}
	if st := s.CacheStats(); st.BaselineBuilds != 1 || st.ValidateBuilds != 1 {
		t.Errorf("%+v: the baseline and the validation must be built once", st)
	}

	p = dvbProblem(t, torus, 128, 100)
	p.Assignment = &alloc.Assignment{NodeOf: make([]topology.NodeID, p.Graph.NumTasks())}
	s = NewSolver(p)
	first = solve()
	if first == nil {
		t.Fatal("every task on one node passed the exclusive validation")
	}
	for range 3 {
		if err := solve(); err != first {
			t.Fatalf("a repeat Solve refused with %v, the first with %v", err, first)
		}
	}
	if st := s.CacheStats(); st.ValidateBuilds != 1 || st.BaselineBuilds != 0 {
		t.Errorf("%+v: the validation must be built once and the baseline never", st)
	}
}

// refusalAllocs bounds what a Solve answered by a kept baseline refusal
// allocates: the windows, the intervals and the activity rows it derives
// before the baseline, and the Result that holds them.
const refusalAllocs = 7
