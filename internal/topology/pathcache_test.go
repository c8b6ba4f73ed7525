package topology

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

func TestShortestPathsMemoized(t *testing.T) {
	top, err := NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	first := top.ShortestPaths(0, 63, 24)
	second := top.ShortestPaths(0, 63, 24)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized result differs")
	}
	// Different caps are distinct cache entries.
	capped := top.ShortestPaths(0, 63, 4)
	if len(capped) != 4 || len(first) != 24 {
		t.Fatalf("caps leaked across cache entries: %d and %d", len(capped), len(first))
	}
}

// TestShortestPathsConcurrent races 8 goroutines on cold cache entries,
// fault-free and faulted: whichever enumeration wins the store, every
// caller sees the same paths, and beside them the links Path.Links
// resolves.
func TestShortestPathsConcurrent(t *testing.T) {
	top, err := NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := top.walk(0, 27, 24, nil)
	fs := NewFaultSet()
	fs.FailLink(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := top.ShortestPaths(0, 27, 24)
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent enumeration diverged")
					return
				}
				for _, f := range []*FaultSet{nil, fs} {
					checkRoutes(t, top, 0, NodeID(i), f)
				}
			}
		}()
	}
	wg.Wait()
}

// checkRoutes compares the memoized link rows of one (src, dst) pair
// with what Path.Links resolves for each of its paths.
func checkRoutes(t *testing.T, top *Topology, src, dst NodeID, fs *FaultSet) {
	t.Helper()
	paths, links, err := top.SurvivingRoutes(src, dst, 24, fs)
	if err != nil {
		t.Errorf("%v %d->%d: %v", top, src, dst, err)
		return
	}
	if len(links) != len(paths) {
		t.Errorf("%v %d->%d: %d link rows for %d paths", top, src, dst, len(links), len(paths))
		return
	}
	for i, p := range paths {
		want, err := p.Links(top)
		if err != nil || !slices.Equal(links[i], want) {
			t.Errorf("%v %d->%d path %v: memoized links %v, Path.Links %v (%v)", top, src, dst, p, links[i], want, err)
		}
	}
}

// TestMemoizedLinksMatchPathLinks checks every cached enumeration of the
// four standard topologies, fault-free and with a failed link and node,
// cold and again from the memo.
func TestMemoizedLinksMatchPathLinks(t *testing.T) {
	for _, top := range []*Topology{mustGHC(t, 2, 2, 2, 2, 2, 2), mustGHC(t, 4, 4, 4), mustTorus(t, 8, 8), mustTorus(t, 4, 4, 4)} {
		fs := NewFaultSet()
		fs.FailLink(3)
		fs.FailNode(5)
		for _, f := range []*FaultSet{nil, fs} {
			for pass := 0; pass < 2; pass++ {
				for src := 0; src < top.Nodes(); src++ {
					for dst := 0; dst < top.Nodes(); dst++ {
						if !f.NodeFailed(NodeID(src)) && !f.NodeFailed(NodeID(dst)) {
							checkRoutes(t, top, NodeID(src), NodeID(dst), f)
						}
					}
				}
			}
		}
	}
}

// memoLen counts a FaultSet's memoized enumerations.
func memoLen(fs *FaultSet) int { return fs.routes.Stats().Len }

// TestRouteMemoFreshFaultSetsLeaveTheTopologyAlone pins the leak where
// it lived: enumerations around a fault used to be kept on the Topology
// under the FaultSet's identity, so a caller that builds its set per
// call (every /v1/repair) left entries nothing could hit again. They
// live on the set now, and the Topology holds what the fault-free
// warm-up put there.
func TestRouteMemoFreshFaultSetsLeaveTheTopologyAlone(t *testing.T) {
	top := mustGHC(t, 2, 2, 2, 2, 2, 2)
	for dst := 0; dst < top.Nodes(); dst++ {
		top.ShortestPaths(0, NodeID(dst), 24)
	}
	warm := top.RouteMemoLen()
	if warm != top.Nodes() {
		t.Fatalf("%d fault-free enumerations memoized, want %d", warm, top.Nodes())
	}
	for i := 0; i < 1000; i++ {
		fs := NewFaultSet()
		fs.FailLink(0)
		if _, _, err := top.SurvivingRoutes(0, NodeID(1+i%(top.Nodes()-1)), 24, fs); err != nil {
			t.Fatal(err)
		}
		if n := memoLen(fs); n != 1 {
			t.Fatalf("call %d: the set memoized %d enumerations, want its own 1", i, n)
		}
	}
	if n := top.RouteMemoLen(); n != warm {
		t.Errorf("the Topology holds %d enumerations after 1000 fresh fault sets, %d before", n, warm)
	}
}

// TestRouteMemoLivesAndDiesWithItsFaultSet: a set answers a repeated
// question from its memo (the very same slices), forgets everything on
// any mutation, and shares nothing with its Clone.
func TestRouteMemoLivesAndDiesWithItsFaultSet(t *testing.T) {
	top := mustGHC(t, 2, 2, 2, 2, 2, 2)
	fs := NewFaultSet()
	fs.FailLink(0)
	ask := func(f *FaultSet) []Path {
		t.Helper()
		paths, err := top.SurvivingPaths(0, 63, 24, f)
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	first := ask(fs)
	if again := ask(fs); &again[0] != &first[0] || memoLen(fs) != 1 {
		t.Fatalf("second call re-enumerated: %d entries, same slice %t", memoLen(fs), &again[0] == &first[0])
	}
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"FailLink", func() { fs.FailLink(7) }},
		{"RepairLink", func() { fs.RepairLink(7) }},
		{"FailNode", func() { fs.FailNode(9) }},
		{"RepairNode", func() { fs.RepairNode(9) }},
	} {
		ask(fs)
		m.mutate()
		if n := memoLen(fs); n != 0 {
			t.Errorf("%d enumerations survived %s", n, m.name)
		}
	}
	first = ask(fs)
	cp := fs.Clone()
	if n := memoLen(cp); n != 0 {
		t.Fatalf("Clone copied %d enumerations", n)
	}
	if got := ask(cp); !reflect.DeepEqual(got, first) || &got[0] == &first[0] {
		t.Errorf("the clone's enumeration is shared with, or differs from, the original's")
	}
	top.SurvivingPaths(0, 62, 24, cp)
	if a, b := memoLen(fs), memoLen(cp); a != 1 || b != 2 {
		t.Errorf("original holds %d enumerations and its clone %d, want 1 and 2", a, b)
	}
}

// TestRouteMemoCapped: a Topology holds at most routeMemoCap
// fault-free enumerations. Past the bound the least recently used one
// goes, the newest is held, and an evicted pair is walked again to the
// rows a fresh machine gives.
func TestRouteMemoCapped(t *testing.T) {
	top, fresh := mustTorus(t, 16, 16), mustTorus(t, 16, 16)
	n := NodeID(top.Nodes())
	key := func(i int) (src, dst NodeID, max int) {
		return NodeID(i) % n, NodeID(i) / n % n, 2 + i/int(n*n)
	}
	held := func(i int) []Path { return top.ShortestPaths(key(i)) }
	first := make([][]Path, 2)
	for i := 0; i < routeMemoCap; i++ {
		if p := held(i); i < len(first) {
			first[i] = p
		}
	}
	if got := top.RouteMemoLen(); got != routeMemoCap {
		t.Fatalf("%d distinct enumerations asked for, %d memoized", routeMemoCap, got)
	}
	held(0) // 0 is now the most recent, 1 the least
	for i := routeMemoCap; i < routeMemoCap+1000; i++ {
		newest := held(i)
		if got := top.RouteMemoLen(); got > routeMemoCap {
			t.Fatalf("RouteMemoLen %d past the bound of %d", got, routeMemoCap)
		}
		if again := held(i); &again[0] != &newest[0] {
			t.Fatalf("enumeration %d past the bound was not held", i)
		}
		if i == routeMemoCap {
			if again := held(0); &again[0] != &first[0][0] {
				t.Fatal("the most recently used enumeration was evicted")
			}
			if st := top.routes.Stats(); st.Evictions != 1 {
				t.Fatalf("%d evictions after one enumeration past the bound, want 1", st.Evictions)
			}
			src, dst, max := key(1)
			paths, links, _ := top.SurvivingRoutes(src, dst, max, nil)
			wantPaths, wantLinks, _ := fresh.SurvivingRoutes(src, dst, max, nil)
			if &paths[0] == &first[1][0] {
				t.Fatal("the least recently used enumeration was kept")
			}
			if !reflect.DeepEqual(paths, wantPaths) || !reflect.DeepEqual(links, wantLinks) {
				t.Fatalf("%d->%d max %d after its eviction: %v, a fresh machine %v", src, dst, max, paths, wantPaths)
			}
		}
	}
	if got := top.RouteMemoLen(); got != routeMemoCap {
		t.Errorf("RouteMemoLen %d after 1000 enumerations past the bound of %d", got, routeMemoCap)
	}
}
