package alloc

import (
	"fmt"
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

// TestValidateFirstError pins Validate's messages and which error a
// placement with several faults reports: the first task, in task order,
// that is out of range or lands on an occupied node, and for sharing
// the one earlier task on that node.
func TestValidateFirstError(t *testing.T) {
	g, top := fixtures(t) // 23 tasks on 64 nodes
	placed := func(moves map[int]topology.NodeID) *Assignment {
		a := &Assignment{NodeOf: make([]topology.NodeID, g.NumTasks())}
		for i := range a.NodeOf {
			a.NodeOf[i] = topology.NodeID(30 + i)
		}
		for i, n := range moves {
			a.NodeOf[i] = n
		}
		return a
	}
	for _, tc := range []struct {
		name      string
		a         *Assignment
		exclusive bool
		want      string
	}{
		{"distinct", placed(nil), true, ""},
		{"shared", placed(map[int]topology.NodeID{7: 33}), true,
			"alloc: tasks 3 and 7 share node 33 under exclusive placement"},
		{"shared thrice", placed(map[int]topology.NodeID{7: 33, 12: 33}), true,
			"alloc: tasks 3 and 7 share node 33 under exclusive placement"},
		{"shared, not exclusive", placed(map[int]topology.NodeID{7: 33, 12: 33}), false, ""},
		{"moved onto a later task's node", placed(map[int]topology.NodeID{2: 40}), true,
			"alloc: tasks 2 and 10 share node 40 under exclusive placement"},
		{"past the last node", placed(map[int]topology.NodeID{5: 64}), false,
			"alloc: task 5 assigned to node 64 outside topology of 64 nodes"},
		{"negative", placed(map[int]topology.NodeID{0: -1}), true,
			"alloc: task 0 assigned to node -1 outside topology of 64 nodes"},
		{"shared before out of range", placed(map[int]topology.NodeID{4: 31, 9: 99}), true,
			"alloc: tasks 1 and 4 share node 31 under exclusive placement"},
		{"out of range before shared", placed(map[int]topology.NodeID{4: 99, 9: 31}), true,
			"alloc: task 4 assigned to node 99 outside topology of 64 nodes"},
		{"short", &Assignment{NodeOf: make([]topology.NodeID, 2)}, true,
			"alloc: assignment covers 2 tasks, graph has 23"},
	} {
		err := tc.a.Validate(g, top, tc.exclusive)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
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
