package schedule

import (
	"context"
	"reflect"
	"testing"
	"time"

	"schedroute/internal/alloc"
	"schedroute/internal/parallel"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// solverGoldenTopologies mirrors experiments.StandardConfigs (which
// cannot be imported here without a cycle): every 64-node network of
// the paper at both link bandwidths.
func solverGoldenTopologies(t *testing.T) map[string]*topology.Topology {
	t.Helper()
	cube, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	ghc, err := topology.NewGHC(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	t88, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	t444, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Topology{"6cube": cube, "ghc444": ghc, "torus88": t88, "torus444": t444}
}

// TestSolverMatchesCompute is the golden equivalence test: a reused
// Solver must produce, for every standard config, bandwidth, and load
// point — perfect and faulted — a Result deeply equal to a fresh
// one-shot Compute.
func TestSolverMatchesCompute(t *testing.T) {
	for name, top := range solverGoldenTopologies(t) {
		for _, bw := range []float64{64, 128} {
			p := dvbProblem(t, top, bw, 0)
			var fs *topology.FaultSet
			for _, faulted := range []bool{false, true} {
				if faulted {
					fs = topology.NewFaultSet()
					fs.FailLink(0)
				}
				prob := p
				prob.Faults = fs
				solver := NewSolver(prob)
				for k := 0; k < 12; k++ {
					tauIn := gridTauIn(k)
					prob.TauIn = tauIn
					want, err := Compute(prob, Options{Seed: 1})
					if err != nil {
						t.Fatalf("%s bw=%g faulted=%t k=%d: Compute: %v", name, bw, faulted, k, err)
					}
					got, err := solver.Solve(context.Background(), tauIn, Options{Seed: 1})
					if err != nil {
						t.Fatalf("%s bw=%g faulted=%t k=%d: Solve: %v", name, bw, faulted, k, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s bw=%g faulted=%t k=%d: Solver.Solve differs from Compute (peak %v vs %v, feasible %t vs %t)",
							name, bw, faulted, k, got.Peak, want.Peak, got.Feasible, want.Feasible)
					}
				}
			}
		}
	}
}

// TestSolverConcurrentReuse hammers one Solver from parallel workers —
// the sweep usage pattern — and requires every result to match the
// serial one-shot pipeline.
func TestSolverConcurrentReuse(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, 0)
	solver := NewSolver(p)
	results, err := parallel.Map(context.Background(), 12, parallel.Workers(0), func(k int) (*Result, error) {
		return solver.Solve(context.Background(), gridTauIn(k), Options{Seed: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, got := range results {
		prob := p
		prob.TauIn = gridTauIn(k)
		want, err := Compute(prob, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: concurrent Solve differs from serial Compute", k)
		}
	}
}

// TestSolverStats checks the instrumentation satellite: deterministic
// counters are always filled, wall-clock timings only on request.
func TestSolverStats(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(2))
	plain, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Attempts != 1 || plain.Stats.AssignIterations <= 0 {
		t.Fatalf("deterministic counters missing: %+v", plain.Stats)
	}
	if plain.Stats.AssignTime != 0 || plain.Stats.WindowsTime != 0 {
		t.Fatalf("timings must stay zero without CollectStats: %+v", plain.Stats)
	}
	timed, err := Compute(p, Options{Seed: 1, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if timed.Stats.AssignTime <= 0 {
		t.Fatalf("CollectStats left AssignTime empty: %+v", timed.Stats)
	}
	if timed.Stats.Attempts != plain.Stats.Attempts || timed.Stats.AssignIterations != plain.Stats.AssignIterations {
		t.Fatalf("CollectStats changed deterministic counters: %+v vs %+v", timed.Stats, plain.Stats)
	}
}

// TestSolveStopsInsideTheAllocationLP: the deadline reaches into the
// simplex. The instance (`layered:3,8,8*5,8,0.15` on the 6-cube at
// B=128, τin=65 — one of bench/known_slow.json's) spends some 30 s in
// the §5.2 LP before answering infeasible; under a 200 ms context Solve
// must come back with the context's bare error well inside 2 s, not
// after the LP has run its course.
func TestSolveStopsInsideTheAllocationLP(t *testing.T) {
	g, err := tfg.RandomLayered(3, []int{8, 8, 8, 8, 8, 8, 8}, 400, 1925, 192, 3200, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 128)
	if err != nil {
		t.Fatal(err)
	}
	top := sixCube(t)
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = NewSolver(Problem{Graph: g, Timing: tm, Topology: top, Assignment: as}).Solve(ctx, 65, Options{Seed: 1})
	if took := time.Since(start); err != context.DeadlineExceeded || took > 2*time.Second {
		t.Fatalf("Solve returned error %v after %v, want the bare context.DeadlineExceeded in under 2s", err, took)
	}
}

// TestSolverMemosAreBounded cycles each client-chosen key — MaxPaths,
// the window, and (window, τin) under AP sharing — over 1000 distinct
// values on one Solver: every one is a build, and what stays resident
// is the bound, not the history.
func TestSolverMemosAreBounded(t *testing.T) {
	s := NewSolver(dvbProblem(t, sixCube(t), 64, 150))
	for i := 0; i < 1000; i++ {
		w := 50 + float64(i)/100 // from τc = 50 to 60, under τin throughout
		for _, o := range []Options{
			{Seed: 1, MaxPaths: 1 + i},
			{Seed: 1, Window: w, LSDOnly: true},
			{Seed: 1, Window: w, LSDOnly: true, AllowSharedNodes: true},
		} {
			if _, err := s.Solve(context.Background(), 150, o); err != nil {
				t.Fatalf("i=%d %+v: %v", i, o, err)
			}
		}
	}
	if st := s.CacheStats(); st.CandidateBuilds != 1000 || st.StartsBuilds != 2000 {
		t.Errorf("builds %+v, want 1000 candidate sets and 2000 start tables", st)
	}
	if c, st, sh := s.cands.Stats().Len, s.starts.Stats().Len, s.sharedStarts.Stats().Len; c != solverCandidateSets || st != solverStartTables || sh != solverStartTables {
		t.Errorf("after 1000 distinct keys each: %d candidate sets, %d and %d start tables resident; want the bounds %d, %d, %d",
			c, st, sh, solverCandidateSets, solverStartTables, solverStartTables)
	}
}
