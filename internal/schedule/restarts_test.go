package schedule

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// climbCase is one set of AssignPaths inputs.
type climbCase struct {
	name  string
	pa    *PathAssignment
	cands *Candidates
	p     Problem
	ws    []Window
	act   *Activity
	seed  int64
}

// compileLargeClimbs is both compile_large machines' climbs from their
// LSD baselines at seed 1.
func compileLargeClimbs(t *testing.T) []climbCase {
	t.Helper()
	var out []climbCase
	for _, c := range compileLarge(t) {
		p, res := c.p, c.res
		lsd, err := LSDAssignment(p.Graph, p.Topology, p.Assignment, res.Windows)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := BuildCandidates(p.Graph, p.Topology, p.Assignment, res.Windows, 24)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, climbCase{c.name, lsd, cands, p, res.Windows, res.Activity, 1})
	}
	return out
}

// nearZeroClimb is DVB on the 6-cube with every transmission time
// scaled by a seeded factor in [0, 7e-7), half of them to zero, so peaks
// sit around timeEps. At seed 2 the start scores 2.1e-6, restarts 0 and
// 1 end above 1.2e-6 and restart 2 ends below timeEps, which ends the
// climb three restarts early: workers have restarts in flight that the
// fold must drop.
func nearZeroClimb(t *testing.T) climbCase {
	t.Helper()
	p := dvbProblem(t, sixCube(t), 64, 100)
	pa, ws, act, cands, _ := routeFixture(t, p, nil)
	rng := rand.New(rand.NewSource(16))
	for i := range ws {
		f := rng.Float64()
		if rng.Intn(2) == 0 {
			f = 0
		}
		ws[i].Xmit *= f * 7e-7
	}
	return climbCase{"dvb/cube6-near-zero", pa, cands, p, ws, act, 2}
}

// climb runs c on a fresh arena and record with the given worker count
// and lists the restarts it climbed.
func (c climbCase) climb(t *testing.T, workers int) (assignOutcome, []int) {
	t.Helper()
	var mu sync.Mutex
	var climbed []int
	var a solveArena
	rec := assignRecord{onClimb: func(restart int, _ *LoadState, _ *PathAssignment) {
		mu.Lock()
		climbed = append(climbed, restart)
		mu.Unlock()
	}}
	res, err := rec.assign(context.Background(), &a, c.pa, c.cands, c.p.Topology, c.ws, c.act, c.seed, 6, 60, nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(climbed)
	return res, climbed
}

// assignDiff is the first difference between two assign outcomes. The
// per-link utilizations are a function of the assignment, so links and
// peak spot cover the Utilization AssignPaths builds from them.
func assignDiff(got, want assignOutcome) error {
	switch {
	case !got.pa.sameLinks(want.pa):
		return fmt.Errorf("assignments differ")
	case got.spot != want.spot:
		return fmt.Errorf("peak %+v, want %+v", got.spot, want.spot)
	case got.evals != want.evals || got.computed != want.computed || got.reused != want.reused:
		return fmt.Errorf("%d evaluations, %d/%d tentative scores computed/reused; want %d, %d/%d",
			got.evals, got.computed, got.reused, want.evals, want.computed, want.reused)
	}
	return nil
}

// solveDiff is the first difference between two Solve results in what
// the pipeline decides: verdict, peaks, assignment, AssignIterations,
// attempts and Ω bytes.
func solveDiff(got, want *Result) error {
	gotOmega, err := MarshalOmega(got.Omega)
	if err != nil {
		return err
	}
	wantOmega, err := MarshalOmega(want.Omega)
	if err != nil {
		return err
	}
	switch {
	case got.Feasible != want.Feasible || got.FailStage != want.FailStage:
		return fmt.Errorf("feasible %t at %v, want %t at %v", got.Feasible, got.FailStage, want.Feasible, want.FailStage)
	case got.Peak != want.Peak || got.PeakLSD != want.PeakLSD:
		return fmt.Errorf("peaks %v/%v, want %v/%v", got.Peak, got.PeakLSD, want.Peak, want.PeakLSD)
	case !got.Assignment.sameLinks(want.Assignment):
		return fmt.Errorf("assignments differ")
	case got.Stats.AssignIterations != want.Stats.AssignIterations || got.Stats.Attempts != want.Stats.Attempts:
		return fmt.Errorf("%d evaluations in %d attempts, want %d in %d",
			got.Stats.AssignIterations, got.Stats.Attempts, want.Stats.AssignIterations, want.Stats.Attempts)
	case !bytes.Equal(gotOmega, wantOmega):
		return fmt.Errorf("Ω bytes differ")
	}
	return nil
}

// TestAssignPathsConcurrentMatchesSerial holds AssignPaths and Solve at
// Retries 2 on two and four workers to one: the same assignment, link
// for link, the same Utilization bit for bit, the same evaluation and
// tentative counts, and for Solve the same verdict, peaks,
// AssignIterations and Ω bytes. It calls the unexported entries that
// take the worker count, so fixtures below climbGate climb concurrently
// too. Cases: both compile_large machines; nearZeroClimb, whose fold
// reaches timeEps at restart 2 of 6; and for Solve, DVB on the 6-cube,
// at B=64 and at a bandwidth that puts the start under timeEps, so the
// fold stops after restart 0.
func TestAssignPathsConcurrentMatchesSerial(t *testing.T) {
	near := nearZeroClimb(t)
	if res, climbed := near.climb(t, 1); res.spot.peak > timeEps || len(climbed) != 3 {
		t.Fatalf("%s: peak %v after climbing restarts %v; the fixture must reach timeEps at restart 2", near.name, res.spot.peak, climbed)
	}
	climbs := []climbCase{near}
	solves := []struct {
		name string
		p    Problem
	}{
		{"dvb/cube6-b64", dvbProblem(t, sixCube(t), 64, 100)},
		{"dvb/cube6-b64e9", dvbProblem(t, sixCube(t), 64e9, 100)},
	}
	if !testing.Short() {
		climbs = append(climbs, compileLargeClimbs(t)...)
		for _, c := range compileLarge(t) {
			solves = append(solves, struct {
				name string
				p    Problem
			}{c.name, c.p})
		}
	}

	for _, c := range climbs {
		serial, _ := c.climb(t, 1)
		for _, workers := range []int{2, 4} {
			got, _ := c.climb(t, workers)
			if err := assignDiff(got, serial); err != nil {
				t.Fatalf("AssignPaths %s on %d workers: %v", c.name, workers, err)
			}
		}
	}
	opt := Options{Seed: 1, Retries: 2}
	for _, c := range solves {
		serial, err := NewSolver(c.p).solve(context.Background(), c.p.TauIn, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			got, err := NewSolver(c.p).solve(context.Background(), c.p.TauIn, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := solveDiff(got, serial); err != nil {
				t.Fatalf("Solve %s on %d workers: %v", c.name, workers, err)
			}
		}
	}
}

// TestMemberSlabCompileLarge holds the member slab to at most twice the
// memberships at the end of every restart of the climb on
// compile_large's 10-cube, serial and on two workers, where a member
// bitset took 760 KB.
func TestMemberSlabCompileLarge(t *testing.T) {
	c := compileLargeClimbs(t)[0]
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		var slab, nmem int
		var a solveArena
		rec := assignRecord{onClimb: func(restart int, ls *LoadState, pa *PathAssignment) {
			if err := loadStateDiff(ls, c.p.Topology, pa, c.ws, c.act); err != nil {
				t.Errorf("%s workers %d restart %d: %v", c.name, workers, restart, err)
			}
			mu.Lock()
			slab, nmem = max(slab, len(ls.slab)), ls.nmem
			mu.Unlock()
		}}
		if _, err := rec.assign(context.Background(), &a, c.pa, c.cands, c.p.Topology, c.ws, c.act, c.seed, 6, 60, nil, workers); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s workers %d: %d memberships, longest slab %d", c.name, workers, nmem, slab)
	}
}
