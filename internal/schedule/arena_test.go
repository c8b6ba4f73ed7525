package schedule

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// TestArenaReuseBitIdentical pins the arena contract directly: a cold
// first Solve and many warm Solves through the same pooled scratch must
// produce deeply equal Results — same Ω command lists, same slices,
// same peak — at every load point, feasible or not. Any residue a
// stage reads from a recycled arena would show up here.
func TestArenaReuseBitIdentical(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, 0)
	solver := NewSolver(p)
	ctx := context.Background()
	for k := 0; k < 12; k++ {
		tauIn := gridTauIn(k)
		cold, err := solver.Solve(ctx, tauIn, Options{Seed: 1})
		if err != nil {
			t.Fatalf("k=%d cold: %v", k, err)
		}
		for warm := 0; warm < 3; warm++ {
			got, err := solver.Solve(ctx, tauIn, Options{Seed: 1})
			if err != nil {
				t.Fatalf("k=%d warm %d: %v", k, warm, err)
			}
			if !reflect.DeepEqual(got, cold) {
				t.Fatalf("k=%d warm %d: warm-arena Solve differs from cold", k, warm)
			}
		}
	}
}

// TestArenaConcurrentSameTauIn hammers the pool from parallel
// goroutines all solving the same load point — the pattern that
// maximizes arena recycling pressure (every finishing Solve returns an
// arena another goroutine immediately reuses) — and requires every Ω
// to be bit-identical to the serial golden. Run under `make race` this
// also proves no scratch is shared between in-flight Solves.
func TestArenaConcurrentSameTauIn(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(2))
	want, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(p)
	ctx := context.Background()

	const workers, rounds = 8, 4
	results := make([]*Result, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := solver.Solve(ctx, p.TauIn, Options{Seed: 1})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				results[w*rounds+r] = res
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, got := range results {
		if !reflect.DeepEqual(got.Omega, want.Omega) {
			t.Fatalf("solve %d: concurrent Ω differs from serial golden", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("solve %d: concurrent Result differs from serial golden", i)
		}
	}
}

// TestArenaReuseAcrossStructures alternates Solvers of two problem
// structures back to back, so each Solve inherits an arena warmed by the
// other, catching any dimension-keyed scratch that fails to follow the
// structure: the 6-cube and a faulted variant (the same dimensions), and
// the 6-cube at B=64 and the 8x8 torus at B=128 (other link, interval
// and message counts).
func TestArenaReuseAcrossStructures(t *testing.T) {
	ctx := context.Background()
	tauIn := gridTauIn(4)

	perfect := dvbProblem(t, sixCube(t), 64, tauIn)
	faulted := perfect
	fs := topology.NewFaultSet()
	fs.FailLink(0)
	faulted.Faults = fs
	torus, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name string
		a, b Problem
	}{
		{"perfect/faulted", perfect, faulted},
		{"6cube-b64/torus88-b128", perfect, dvbProblem(t, torus, 128, tauIn)},
	}
	for _, pair := range pairs {
		t.Run(pair.name, func(t *testing.T) {
			probs := []Problem{pair.a, pair.b}
			var want [2]*Result
			var solvers [2]*Solver
			for i, p := range probs {
				if want[i], err = Compute(p, Options{Seed: 1}); err != nil {
					t.Fatal(err)
				}
				solvers[i] = NewSolver(p)
			}
			for round := 0; round < 3; round++ {
				for i, s := range solvers {
					got, err := s.Solve(ctx, tauIn, Options{Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("round %d: problem %d diverged after the other's arena", round, i)
					}
				}
			}
		})
	}
}

// TestLoadStateReusedAcrossShapes takes one arena's LoadState through
// problems of other interval, link and message counts — the DVB on the
// 6-cube at B=64 at two periods with different K, the DVB on the 8x8
// torus at B=128, a compile_lp entry on GHC(4,4,8), and back to the
// first — and requires after each step that every accumulator and member
// list over all links, the peak cache and a seeded eval/apply/undo walk
// equal a fresh NewLoadStateCap's. Once warm, the whole cycle allocates
// nothing, a helper arena's restart set-up included: each arena resizes
// its state in place instead of building another.
func TestLoadStateReusedAcrossShapes(t *testing.T) {
	pool, _ := compileLPPool(t)
	var ghc Problem
	for _, e := range pool {
		if e.id == "ghc448-s3-d0.05-b128-t65" {
			ghc = e.p
		}
	}
	if ghc.Graph == nil {
		t.Fatal("compile_lp pool has no ghc448-s3-d0.05-b128-t65")
	}
	torus, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cube := dvbProblem(t, sixCube(t), 64, gridTauIn(0))
	cubeLater := cube
	cubeLater.TauIn = gridTauIn(7)
	shapes := []struct {
		name string
		p    Problem
	}{
		{"6cube-k0", cube},
		{"6cube-k7", cubeLater},
		{"torus88-b128", dvbProblem(t, torus, 128, gridTauIn(4))},
		{"ghc448", ghc},
		{"6cube-k0-again", cube},
	}
	type fixture struct {
		pa    *PathAssignment
		ws    []Window
		act   *Activity
		cands *Candidates
		multi []tfg.MessageID
	}
	fx := make([]fixture, len(shapes))
	for i, s := range shapes {
		pa, ws, act, cands, multi := routeFixture(t, s.p, nil)
		fx[i] = fixture{pa, ws, act, cands, multi}
	}
	if fx[0].act.Intervals.K() == fx[1].act.Intervals.K() {
		t.Fatal("the two 6-cube periods have the same interval count")
	}
	if top := shapes[3].p.Topology; top.Links() <= torus.Links() || top.Links() <= sixCube(t).Links() || len(fx[3].ws) <= len(fx[0].ws) {
		t.Fatal("the compile_lp entry must have more links and messages than the DVB problems")
	}

	var a solveArena
	for i, s := range shapes {
		f := fx[i]
		top := s.p.Topology
		ls := a.loadState(top, f.pa, f.ws, f.act, nil)
		ref := NewLoadStateCap(top, f.pa, f.ws, f.act, nil)
		sameLoadState(t, s.name, ls, ref)

		rng := rand.New(rand.NewSource(int64(i + 1)))
		pa := f.pa.Clone()
		for step := 0; step < 100; step++ {
			mi := f.multi[rng.Intn(len(f.multi))]
			c := routesOf(f.cands, mi)[rng.Intn(len(f.cands.PathsOf[mi]))]
			old := pa.Links[mi]
			switch rng.Intn(3) {
			case 0:
				gp, gl, gk := ls.EvalReroute(mi, old, c.links, math.Inf(1))
				wp, wl, wk := ref.EvalReroute(mi, old, c.links, math.Inf(1))
				if gp != wp || gl != wl || gk != wk {
					t.Fatalf("%s step %d: eval (%v, %v, %v), fresh state (%v, %v, %v)", s.name, step, gp, gl, gk, wp, wl, wk)
				}
			case 1:
				ls.ApplyReroute(mi, old, c.links)
				ref.ApplyReroute(mi, old, c.links)
				pa.SetPath(mi, c.path, c.links)
			default:
				ls.ApplyReroute(mi, old, c.links)
				ls.Undo(mi, old, c.links)
				ref.ApplyReroute(mi, old, c.links)
				ref.Undo(mi, old, c.links)
			}
		}
		sameLoadState(t, s.name+" after the walk", ls, ref)
	}

	// A helper worker of a concurrent climb sets up its restarts on a
	// pooled arena of its own the same way; the calling arena's restart
	// fold copies into its own storage.
	var helper solveArena
	cycle := func() {
		for i, s := range shapes {
			a.loadState(s.p.Topology, fx[i].pa, fx[i].ws, fx[i].act, nil)
			a.fold.copyFrom(fx[i].pa)
			helper.cur.copyFrom(fx[i].pa)
			helper.loadState(s.p.Topology, &helper.cur, fx[i].ws, fx[i].act, nil)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Fatalf("a warm cycle through the shapes, helper arena included, allocates %v times", n)
	}
}

// sameLoadState fails unless got and want hold the same dimensions,
// accumulators over every link, and peak cache.
func sameLoadState(t *testing.T, step string, got, want *LoadState) {
	t.Helper()
	if got.nl != want.nl || got.K != want.K || got.nmem != want.nmem {
		t.Fatalf("%s: dimensions (%d links, %d intervals, %d memberships), fresh state (%d, %d, %d)", step, got.nl, got.K, got.nmem, want.nl, want.K, want.nmem)
	}
	for j := 0; j < got.nl; j++ {
		if !slices.Equal(got.members(j), want.members(j)) {
			t.Fatalf("%s: link %d's members %v, fresh state %v", step, j, got.members(j), want.members(j))
		}
	}
	for _, c := range []struct {
		name string
		eq   bool
	}{
		{"lenK", slices.Equal(got.lenK, want.lenK)},
		{"noSlack", slices.Equal(got.noSlack, want.noSlack)},
		{"xmit", slices.Equal(got.xmit, want.xmit)},
		{"cnt", slices.Equal(got.cnt, want.cnt)},
		{"spot", slices.Equal(got.spot, want.spot)},
		{"activeLen", slices.Equal(got.activeLen, want.activeLen)},
		{"score", slices.Equal(got.score, want.score)},
		{"scoreK", slices.Equal(got.scoreK, want.scoreK)},
		{"touched", slices.Equal(got.touched, want.touched)},
		{"peak cache", slices.Equal(got.topk, want.topk) && got.topkAll == want.topkAll},
	} {
		if !c.eq {
			t.Fatalf("%s: %s differs from a fresh state", step, c.name)
		}
	}
}
