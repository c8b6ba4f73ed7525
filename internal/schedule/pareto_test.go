package schedule

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// exploreTestProblem is a cheap workload with real routing: a 10-task
// chain on a 4x4 torus, short messages (xmit 10µs << τc 50µs) so the
// window-minimization has room to move.
func exploreTestProblem(t *testing.T) Problem {
	t.Helper()
	g, err := tfg.Chain(10, 1925, 640)
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
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Graph: g, Timing: tm, Topology: top, Assignment: as}
}

// TestParetoFilterProperties checks the domination filter on random
// synthetic point clouds: no front point is dominated by any input
// point, every input point is accounted for (on the front, dominated
// by a front member, or an exact duplicate of one), and the filter is
// idempotent and order-independent.
func TestParetoFilterProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	objectives := AllObjectives
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([]ParetoPoint, n)
		for i := range pts {
			pts[i] = ParetoPoint{
				Placement: rng.Intn(3),
				TauIn:     float64(50 + rng.Intn(5)*25),
				Latency:   float64(100 + rng.Intn(6)*50),
				Links:     rng.Intn(8),
				Buffers:   rng.Intn(10),
			}
		}
		front := ParetoFilter(pts, objectives)
		if len(front) == 0 {
			t.Fatalf("trial %d: empty front from %d points", trial, n)
		}
		for _, f := range front {
			for _, p := range pts {
				if Dominates(&p, &f, objectives) {
					t.Fatalf("trial %d: front point %+v dominated by input %+v", trial, f, p)
				}
			}
		}
		equalOn := func(a, b *ParetoPoint) bool {
			for _, ob := range objectives {
				if a.value(ob) != b.value(ob) {
					return false
				}
			}
			return true
		}
		for _, p := range pts {
			covered := false
			for i := range front {
				if Dominates(&front[i], &p, objectives) || equalOn(&front[i], &p) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("trial %d: input point %+v neither on the front nor dominated", trial, p)
			}
		}
		again := ParetoFilter(front, objectives)
		if !reflect.DeepEqual(front, again) {
			t.Fatalf("trial %d: filter not idempotent", trial)
		}
		shuffled := append([]ParetoPoint(nil), pts...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := ParetoFilter(shuffled, objectives); !reflect.DeepEqual(front, got) {
			t.Fatalf("trial %d: front depends on input order", trial)
		}
	}
}

// TestDominates pins the strictness of domination: equal points do not
// dominate each other, and a single strict improvement with no
// regression does.
func TestDominates(t *testing.T) {
	a := ParetoPoint{TauIn: 50, Latency: 100, Links: 4, Buffers: 6}
	b := a
	if Dominates(&a, &b, AllObjectives) || Dominates(&b, &a, AllObjectives) {
		t.Error("equal points must not dominate each other")
	}
	b.Latency = 120
	if !Dominates(&a, &b, AllObjectives) {
		t.Error("a should dominate b (strictly better latency, equal elsewhere)")
	}
	if Dominates(&b, &a, AllObjectives) {
		t.Error("b must not dominate a")
	}
	// Trade-off: better latency but worse links — no domination.
	c := a
	c.Latency, c.Links = 80, 6
	if Dominates(&a, &c, AllObjectives) || Dominates(&c, &a, AllObjectives) {
		t.Error("trade-off points must be mutually non-dominated")
	}
	// On a reduced objective set the extra axes are ignored.
	if !Dominates(&a, &c, []Objective{ObjLinks}) {
		t.Error("a should dominate c on the links-only objective")
	}
}

// TestExploreFrontOnChain runs the full explorer on the chain workload
// and checks the structural contract: a non-empty deterministic front,
// a sensible minimal period, every point feasible with a validating Ω,
// and the window-minimization actually engaging (the chain's 10µs
// transmissions leave a 40µs window range below τc).
func TestExploreFrontOnChain(t *testing.T) {
	p := exploreTestProblem(t)
	opt := Options{Seed: 1}
	spec := ExploreSpec{GridPoints: 3, AnnealSeeds: []int64{3}}
	front, err := Explore(context.Background(), p, opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Placements) != 2 {
		t.Fatalf("placements = %d, want 2 (base + 1 annealed)", len(front.Placements))
	}
	if front.MinTauIn < front.TauC {
		t.Errorf("MinTauIn %g below τc %g", front.MinTauIn, front.TauC)
	}
	if len(front.Points) == 0 {
		t.Fatal("empty front")
	}
	sawShortWindow := false
	for i, pt := range front.Points {
		if pt.Result == nil || !pt.Result.Feasible {
			t.Fatalf("front point %d not feasible", i)
		}
		if err := pt.Result.Omega.Validate(p.Topology); err != nil {
			t.Errorf("front point %d: Ω invalid: %v", i, err)
		}
		if pt.Window < pt.Result.Windows[0].Length-1e-9 && pt.Window > pt.Result.Windows[0].Length+1e-9 {
			t.Errorf("front point %d: Window %g disagrees with result windows %g", i, pt.Window, pt.Result.Windows[0].Length)
		}
		if pt.Window < front.TauC-1e-9 {
			sawShortWindow = true
		}
		links, buffers := ResourceFootprint(pt.Result)
		if links != pt.Links || buffers != pt.Buffers {
			t.Errorf("front point %d: footprint (%d,%d) recorded as (%d,%d)", i, links, buffers, pt.Links, pt.Buffers)
		}
	}
	if !sawShortWindow {
		t.Error("latency minimization never shortened a window below τc")
	}
	// The front must not contain a dominated pair.
	for i := range front.Points {
		for j := range front.Points {
			if i != j && Dominates(&front.Points[i], &front.Points[j], front.Objectives) {
				t.Errorf("front point %d dominates front point %d", i, j)
			}
		}
	}
}

// TestExploreOmegaByteIdentity re-solves each front point directly at
// its (placement, τin, window) through a fresh Solver and asserts the
// whole Result — and the encoded Ω bytes — are identical: the explorer
// reports exactly what a one-shot solve would produce.
func TestExploreOmegaByteIdentity(t *testing.T) {
	p := exploreTestProblem(t)
	opt := Options{Seed: 1}
	spec := ExploreSpec{GridPoints: 2, AnnealSeeds: []int64{3}}
	front, err := Explore(context.Background(), p, opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("empty front")
	}
	for i, pt := range front.Points {
		prob := p
		prob.Assignment = front.Placements[pt.Placement].Assignment
		o := opt
		o.Window = pt.Window
		direct, err := NewSolver(prob).Solve(context.Background(), pt.TauIn, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, pt.Result) {
			t.Errorf("front point %d: Result differs from direct Solve at (placement %d, τin %g, window %g)",
				i, pt.Placement, pt.TauIn, pt.Window)
		}
		var a, b bytes.Buffer
		if err := EncodeOmega(&a, pt.Result.Omega); err != nil {
			t.Fatal(err)
		}
		if err := EncodeOmega(&b, direct.Omega); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("front point %d: Ω bytes differ from direct solve", i)
		}
	}
}

// TestExploreSerialParallelIdentical pins the deterministic fan-out
// contract: the entire front — points, outcomes, evaluation counts —
// is byte-identical whether the exploration runs on one worker or
// many.
func TestExploreSerialParallelIdentical(t *testing.T) {
	p := exploreTestProblem(t)
	spec := ExploreSpec{GridPoints: 2, AnnealSeeds: []int64{3, 4}}
	serial, err := Explore(context.Background(), p, Options{Seed: 1, Procs: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{0, 4} {
		par, err := Explore(context.Background(), p, Options{Seed: 1, Procs: procs}, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Procs is part of Options but not of any Result, so the fronts
		// must DeepEqual across worker counts.
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("explore with procs=%d differs from serial run", procs)
		}
	}
}

// TestExploreObjectiveSubset drops the latency objective and checks
// the explorer skips window minimization (every point stays at the
// base window) while still producing a front.
func TestExploreObjectiveSubset(t *testing.T) {
	p := exploreTestProblem(t)
	spec := ExploreSpec{GridPoints: 2, Objectives: []Objective{ObjTauIn, ObjLinks, ObjBuffers}}
	front, err := Explore(context.Background(), p, Options{Seed: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("empty front")
	}
	for i, pt := range front.Points {
		if pt.Window != front.TauC {
			t.Errorf("point %d: window %g moved although latency was not an objective", i, pt.Window)
		}
	}
	if _, err := ParseObjectives([]string{"nope"}); err == nil {
		t.Error("unknown objective accepted")
	}
	if _, err := ParseObjectives([]string{"links", "links"}); err == nil {
		t.Error("duplicate objective accepted")
	}
}

// TestBisect covers the search's four exits: lo already feasible, hi
// infeasible, a bracket that converges on the threshold from above, and
// a probe error at each of the three probing sites.
func TestBisect(t *testing.T) {
	var probed []float64
	above := func(th float64) func(float64) (bool, error) {
		return func(x float64) (bool, error) {
			probed = append(probed, x)
			return x >= th, nil
		}
	}

	probed = nil
	if x, ok, err := bisect(10, 20, 1, above(5)); x != 10 || !ok || err != nil || len(probed) != 1 {
		t.Errorf("feasible lo: got (%g, %t, %v) after probes %v, want lo after one probe", x, ok, err, probed)
	}

	probed = nil
	if x, ok, err := bisect(10, 20, 1, above(25)); x != 0 || ok || err != nil || len(probed) != 2 {
		t.Errorf("infeasible hi: got (%g, %t, %v) after probes %v, want (0, false) after lo and hi", x, ok, err, probed)
	}

	probed = nil
	x, ok, err := bisect(10, 20, 0.5, above(13.3))
	if err != nil || !ok || x < 13.3 || x-13.3 > 0.5 {
		t.Errorf("converging bracket: got (%g, %t, %v), want within 0.5 above 13.3", x, ok, err)
	}
	if last := probed[len(probed)-1]; x != 13.4375 || last > x {
		t.Errorf("converging bracket: returned %g after probes %v, want the feasible end 13.4375 of the last bracket", x, probed)
	}
	for _, v := range probed[2:] {
		if v <= 10 || v >= 20 {
			t.Errorf("probe %g outside the open bracket (10, 20)", v)
		}
	}

	// A tolerance below the floats' spacing: the bracket closes to two
	// adjacent floats, whose midpoint is one of them, and the search
	// stops there rather than probing that midpoint forever. A float64
	// has 52 fraction bits, so [1, 5] halves at most 2+52 times before
	// that; past 64 bisection probes the probe itself ends the search.
	probed = nil
	tooMany := errors.New("bisection still probing")
	x, ok, err = bisect(1, 5, 1e-300, func(x float64) (bool, error) {
		if probed = append(probed, x); len(probed) > 2+64 {
			return false, tooMany
		}
		return x >= math.Pi, nil
	})
	if err != nil || !ok || x != math.Pi {
		t.Errorf("tolerance below the float spacing: got (%v, %t, %v) after %d probes, want (π, true, nil)", x, ok, err, len(probed))
	}

	boom := errors.New("boom")
	for failAt := 1; failAt <= 3; failAt++ {
		n := 0
		_, ok, err := bisect(10, 20, 1, func(x float64) (bool, error) {
			if n++; n == failAt {
				return false, boom
			}
			return x >= 15, nil
		})
		if !errors.Is(err, boom) || ok || n != failAt {
			t.Errorf("probe error at call %d: got (ok=%t, %v) after %d probes", failAt, ok, err, n)
		}
	}
}
