package alloc

import (
	"testing"
	"testing/quick"

	"schedroute/internal/dvb"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

func fixtures(t *testing.T) (*tfg.Graph, *topology.Topology) {
	t.Helper()
	g, err := dvb.New(8)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewGHC(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g, top
}

func TestRoundRobinValid(t *testing.T) {
	g, top := fixtures(t)
	a, err := RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g, top, true); err != nil {
		t.Error(err)
	}
}

func TestRandomValidAndDeterministic(t *testing.T) {
	g, top := fixtures(t)
	a1, err := Random(g, top, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Validate(g, top, true); err != nil {
		t.Error(err)
	}
	a2, _ := Random(g, top, 42)
	for i := range a1.NodeOf {
		if a1.NodeOf[i] != a2.NodeOf[i] {
			t.Fatal("Random not deterministic for equal seeds")
		}
	}
	a3, _ := Random(g, top, 43)
	same := true
	for i := range a1.NodeOf {
		if a1.NodeOf[i] != a3.NodeOf[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical placement (suspicious)")
	}
}

func TestGreedyValidAndCompact(t *testing.T) {
	g, top := fixtures(t)
	greedy, err := Greedy(g, top)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.Validate(g, top, true); err != nil {
		t.Fatal(err)
	}
	rr, err := RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy keeps communicating tasks close: it should never be worse
	// than round-robin on total hops for this workload.
	hops := func(a *Assignment) int {
		total := 0
		for _, m := range g.Messages() {
			total += top.Distance(a.NodeOf[m.Src], a.NodeOf[m.Dst])
		}
		return total
	}
	if gh, rh := hops(greedy), hops(rr); gh > rh {
		t.Errorf("greedy hops %d > round-robin hops %d", gh, rh)
	}
}

func TestTooManyTasks(t *testing.T) {
	g, err := tfg.Chain(10, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewGHC(2, 2) // 4 nodes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RoundRobin(g, top); err == nil {
		t.Error("RoundRobin should reject oversubscription")
	}
	if _, err := Random(g, top, 1); err == nil {
		t.Error("Random should reject oversubscription")
	}
	if _, err := Greedy(g, top); err == nil {
		t.Error("Greedy should reject oversubscription")
	}
}

func TestValidateCatchesSharing(t *testing.T) {
	g, top := fixtures(t)
	a, _ := RoundRobin(g, top)
	a.NodeOf[1] = a.NodeOf[0]
	if err := a.Validate(g, top, true); err == nil {
		t.Error("shared node should fail exclusive validation")
	}
	if err := a.Validate(g, top, false); err != nil {
		t.Errorf("non-exclusive validation should pass: %v", err)
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	g, top := fixtures(t)
	a, _ := RoundRobin(g, top)
	a.NodeOf[0] = topology.NodeID(top.Nodes())
	if err := a.Validate(g, top, false); err == nil {
		t.Error("out-of-range node should fail")
	}
	short := &Assignment{NodeOf: a.NodeOf[:2]}
	if err := short.Validate(g, top, false); err == nil {
		t.Error("short assignment should fail")
	}
}

// Property: all allocators produce valid exclusive placements for random
// layered graphs that fit the topology.
func TestQuickAllocatorsValid(t *testing.T) {
	top, err := topology.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		g, err := tfg.RandomLayered(seed%100, []int{2, 4, 3, 2}, 50, 100, 64, 1024, 0.3)
		if err != nil {
			return false
		}
		for _, mk := range []func() (*Assignment, error){
			func() (*Assignment, error) { return RoundRobin(g, top) },
			func() (*Assignment, error) { return Random(g, top, seed) },
			func() (*Assignment, error) { return Greedy(g, top) },
		} {
			a, err := mk()
			if err != nil {
				return false
			}
			if a.Validate(g, top, true) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
