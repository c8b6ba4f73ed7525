package schedroute

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"schedroute/internal/schedule"
	"schedroute/internal/topology"
)

// churnMachines are the four machines of the benchmark's svc_churn pool.
var churnMachines = []string{"cube:6", "ghc:4,4,4", "torus:8,8", "torus:4,4,4"}

// churnProblem is one of svc_churn's placements: dvb:4 placed at random
// with alloc_seed seed (1..12), at the seed's load point.
func churnProblem(topo string, bw float64, seed int64) Problem {
	return Problem{TFG: "dvb:4", Topology: topo, Bandwidth: bw, Allocator: "random", AllocSeed: seed,
		TauIn: 50 + 200*float64(seed-1)/11}
}

// interned reports whether the intern holds a machine under key.
func interned(key string) (held bool) {
	machines.Each(func(k string, _ *topology.Topology) { held = held || k == key })
	return held
}

// TestNewProblemInternsTheMachine: every spelling of a machine resolves
// to one Topology, another machine to another, a spec that fails to
// build leaves nothing behind, and the intern holds at most
// internedMachines machines, dropping the least recently used.
func TestNewProblemInternsTheMachine(t *testing.T) {
	topo := func(spec string) *topology.Topology {
		t.Helper()
		b, err := NewProblem(Problem{TFG: "dvb:4", Topology: spec})
		if err != nil {
			t.Fatal(err)
		}
		return b.Topology
	}
	a, b, other := topo("torus:8,8"), topo("torus:8, 8"), topo("torus:4,4,4")
	if a != b {
		t.Error("torus:8,8 and torus:8, 8 built two machines")
	}
	if a == other {
		t.Error("torus:8,8 and torus:4,4,4 share a machine")
	}
	if fresh, err := ParseTopology("torus:8,8"); err != nil || fresh == a {
		t.Errorf("ParseTopology handed out the interned machine (%v)", err)
	}
	for _, spec := range []string{"ghc:1024,1024", "torus:1,8", "cube:0"} {
		if _, err := NewProblem(Problem{TFG: "dvb:4", Topology: spec}); err == nil {
			t.Fatalf("%s built", spec)
		}
		m, err := parseMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		if interned(m.key()) {
			t.Errorf("%s failed to build and left an entry", spec)
		}
	}
	// torus:8,8 is the least recently used of the machines asked for
	// below: past the bound it is the one dropped, and rebuilt when asked
	// for again.
	for i := 0; i < internedMachines; i++ {
		topo(fmt.Sprintf("mesh:%d,8", 4+i))
		if n, _ := InternedMachines(); n > internedMachines {
			t.Fatalf("%d machines interned, the bound is %d", n, internedMachines)
		}
	}
	if m, _ := parseMachine("torus:8,8"); interned(m.key()) {
		t.Fatal("the least recently used machine was kept past the bound")
	}
	if topo("torus:8,8") == a {
		t.Error("an evicted machine came back")
	}
}

// solveOn solves p at its period on the given machine, or on the
// interned one when top is nil.
func solveOn(p Problem, top *topology.Topology) (*schedule.Result, error) {
	b, err := NewProblem(p)
	if err != nil {
		return nil, err
	}
	sp := b.ScheduleProblem()
	if top != nil {
		sp.Topology = top
	}
	return schedule.NewSolver(sp).Solve(context.Background(), sp.TauIn, schedule.Options{})
}

// TestSharedMachineSolvesAsAFreshOne: the 96 structures of svc_churn,
// solved in a shuffled order on the interned machines, each warming the
// route memo for the next, answer exactly what each answers alone on a
// fresh machine.
func TestSharedMachineSolvesAsAFreshOne(t *testing.T) {
	var probs []Problem
	for _, topo := range churnMachines {
		for _, bw := range []float64{64, 128} {
			for seed := int64(1); seed <= 12; seed++ {
				probs = append(probs, churnProblem(topo, bw, seed))
			}
		}
	}
	rand.New(rand.NewSource(40)).Shuffle(len(probs), func(i, j int) { probs[i], probs[j] = probs[j], probs[i] })
	for _, p := range probs {
		fresh, err := ParseTopology(p.Topology)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveOn(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveOn(p, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s B=%g seed %d: the shared machine answers feasible=%t peak=%g, a fresh one feasible=%t peak=%g",
				p.Topology, p.Bandwidth, p.AllocSeed, got.Feasible, got.Peak, want.Feasible, want.Peak)
		}
	}
}

// TestSharedMachineConcurrentStructures: two goroutines per machine
// build and solve different placements at once on the interned
// machines (the race detector watches the route memo they fill), and
// every answer equals a serial solve on a fresh machine.
func TestSharedMachineConcurrentStructures(t *testing.T) {
	type solve struct {
		p    Problem
		want *schedule.Result
	}
	var solves []solve
	for _, topo := range churnMachines {
		fresh, err := ParseTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(13); seed <= 14; seed++ { // placements no other test solves
			p := churnProblem(topo, 128, seed)
			want, err := solveOn(p, fresh)
			if err != nil {
				t.Fatal(err)
			}
			solves = append(solves, solve{p, want})
		}
	}
	var wg sync.WaitGroup
	for _, s := range solves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if got, err := solveOn(s.p, nil); err != nil || !reflect.DeepEqual(got, s.want) {
					t.Errorf("%s seed %d: a concurrent solve on the shared machine differs from a fresh machine's (%v)", s.p.Topology, s.p.AllocSeed, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
