package schedroute

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
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

// graphInterned reports whether the graph intern holds a graph under key.
func graphInterned(key string) (held bool) {
	graphs.Each(func(k string, _ *tfg.Graph) { held = held || k == key })
	return held
}

// TestNewProblemInternsGraph: one graph spec resolves to one Graph
// whatever the placement, bandwidth and machine, another spec to
// another, equal inline bytes to one Graph; a spec that fails to build
// leaves nothing behind, and the intern holds at most internedGraphs
// graphs, dropping the least recently used.
func TestNewProblemInternsGraph(t *testing.T) {
	graph := func(p Problem) *tfg.Graph {
		t.Helper()
		b, err := NewProblem(p)
		if err != nil {
			t.Fatal(err)
		}
		return b.Graph
	}
	dvb := graph(churnProblem("torus:8,8", 128, 1))
	for _, topo := range churnMachines {
		for _, bw := range []float64{64, 128} {
			for seed := int64(1); seed <= 3; seed++ {
				if g := graph(churnProblem(topo, bw, seed)); g != dvb {
					t.Fatalf("dvb:4 on %s B=%g seed %d built a second graph", topo, bw, seed)
				}
			}
		}
	}
	if g := graph(Problem{TFG: "dvb:4", Topology: "cube:6", Speed: 2, Allocator: "greedy"}); g != dvb {
		t.Error("dvb:4 at a speed, greedily placed, built a second graph")
	}
	if g := graph(Problem{TFG: "dvb:3", Topology: "cube:6"}); g == dvb {
		t.Error("dvb:3 and dvb:4 share a graph")
	}
	if fresh, err := LoadGraph("dvb:4"); err != nil || fresh == dvb {
		t.Errorf("LoadGraph handed out the interned graph (%v)", err)
	}

	var doc bytes.Buffer
	if err := tfg.Encode(&doc, dvb); err != nil {
		t.Fatal(err)
	}
	inline := func() Problem {
		return Problem{TFGInline: json.RawMessage(bytes.Clone(doc.Bytes())), Topology: "cube:6"}
	}
	in1, in2 := graph(inline()), graph(inline())
	if in1 != in2 {
		t.Error("equal inline bytes built two graphs")
	}
	if in1 == dvb {
		t.Error("an inline graph shares the generator's entry")
	}
	id := string(appendGraphID(nil, inline()))
	if !graphInterned(id) {
		t.Fatalf("the inline graph is not interned under %q", id)
	}
	// A generator spec spelled as an inline graph's identity names no
	// graph, though the intern holds one under it.
	if _, err := NewProblem(Problem{TFG: id, Topology: "cube:6"}); errkind.Name(err) != "bad_input" {
		t.Errorf("tfg %q: %v, want bad_input", id, err)
	}

	n := InternedGraphs()
	for _, p := range []Problem{
		{TFG: "dvb:0", Topology: "cube:6"},
		{TFG: "chain:2000000", Topology: "cube:6"},
		{TFG: "layered:1,1*2000000,0.1", Topology: "cube:6"},
		{TFG: "klein:3", Topology: "cube:6"},
		{TFGInline: json.RawMessage(`{"name":"cycle","tasks":[{"name":"a","ops":1},{"name":"b","ops":1}],` +
			`"messages":[{"name":"x","src":0,"dst":1,"bytes":1},{"name":"y","src":1,"dst":0,"bytes":1}]}`), Topology: "cube:6"},
	} {
		if _, err := NewProblem(p); errkind.Name(err) != "bad_input" {
			t.Fatalf("%s%s: %v, want bad_input", p.TFG, p.TFGInline, err)
		}
		if key := string(appendGraphID(nil, p)); graphInterned(key) {
			t.Errorf("%s failed to build and left an entry", key)
		}
	}
	if got := InternedGraphs(); got != n {
		t.Errorf("refused specs took the intern from %d graphs to %d", n, got)
	}
	// dvb:4 is the least recently used of the graphs asked for below:
	// past the bound it is the one dropped, and rebuilt when asked for
	// again.
	for i := 0; i < internedGraphs; i++ {
		graph(Problem{TFG: fmt.Sprintf("chain:%d", 4+i), Topology: "cube:6"})
		if n := InternedGraphs(); n > internedGraphs {
			t.Fatalf("%d graphs interned, the bound is %d", n, internedGraphs)
		}
	}
	if graphInterned("dvb:4") {
		t.Fatal("the least recently used graph was kept past the bound")
	}
	if graph(churnProblem("torus:8,8", 128, 1)) == dvb {
		t.Error("an evicted graph came back")
	}
}

// TestSharedGraphConcurrentStructures: goroutines build and solve
// placements of two graphs on four machines at once, every structure of
// a graph sharing its interned Graph, and every answer equals a serial
// solve on a graph and a machine built afresh.
func TestSharedGraphConcurrentStructures(t *testing.T) {
	type solve struct {
		p    Problem
		want *schedule.Result
	}
	var solves []solve
	for _, spec := range []string{"dvb:4", "layered:5,2,4,4,3,2,0.2"} {
		for _, topo := range churnMachines {
			p := churnProblem(topo, 128, 15)
			p.TFG = spec
			b, err := NewProblem(p)
			if err != nil {
				t.Fatal(err)
			}
			sp := b.ScheduleProblem()
			if sp.Graph, err = LoadGraph(spec); err != nil {
				t.Fatal(err)
			}
			if sp.Topology, err = ParseTopology(topo); err != nil {
				t.Fatal(err)
			}
			want, err := schedule.NewSolver(sp).Solve(context.Background(), sp.TauIn, schedule.Options{})
			if err != nil {
				t.Fatal(err)
			}
			solves = append(solves, solve{p, want})
		}
	}
	var wg sync.WaitGroup
	for _, s := range solves {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					if got, err := solveOn(s.p, nil); err != nil || !reflect.DeepEqual(got, s.want) {
						t.Errorf("%s on %s: a concurrent solve on the shared graph differs from a fresh graph's (%v)", s.p.TFG, s.p.Topology, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestWarmNewProblemAllocatesItsStructure: once its graph and machine
// are interned, NewProblem allocates the Built, the timing and the
// placement — what the structure owns — and the two allocations of
// resolving the machine spec (its radices and its key); the graph
// lookup allocates nothing.
func TestWarmNewProblemAllocatesItsStructure(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	p := churnProblem("torus:8,8", 128, 3)
	b, err := NewProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := p.withDefaults()
	timing := testing.AllocsPerRun(100, func() { tfg.NewUniformTiming(b.Graph, 50, spec.Bandwidth) })
	placement := testing.AllocsPerRun(100, func() { ParseAllocator(spec.Allocator, b.Graph, b.Topology, spec.AllocSeed) })
	if n := testing.AllocsPerRun(100, func() { internGraph(spec) }); n != 0 {
		t.Errorf("an interned graph's lookup allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { internTopology(spec.Topology) }); n != 2 {
		t.Errorf("an interned machine's lookup allocates %v times, want 2", n)
	}
	if n, want := testing.AllocsPerRun(100, func() { NewProblem(p) }), 1+timing+placement+2; n != want {
		t.Errorf("a warm NewProblem allocates %v times, want %v: the Built, %v for the timing, %v for the placement, 2 for the machine",
			n, want, timing, placement)
	}
}
