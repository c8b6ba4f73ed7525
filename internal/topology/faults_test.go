package topology

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestFaultSetBasics(t *testing.T) {
	fs := NewFaultSet()
	if !fs.Empty() {
		t.Fatal("new set should be empty")
	}
	fs.FailLink(3)
	fs.FailNode(5)
	if fs.Empty() || !fs.LinkFailed(3) || !fs.NodeFailed(5) {
		t.Fatal("failures not recorded")
	}
	if fs.LinkFailed(4) || fs.NodeFailed(4) {
		t.Fatal("phantom failures")
	}
	if n := len(fs.FailedLinks()); n != 1 {
		t.Fatalf("%d failed links, want 1", n)
	}
	if got := fs.String(); got != "faults{links:3 nodes:5}" {
		t.Errorf("String = %q", got)
	}
	fs.RepairLink(3)
	fs.RepairNode(5)
	if !fs.Empty() {
		t.Fatal("repair did not empty the set")
	}
	// Nil receiver means "no faults" everywhere.
	var nilFS *FaultSet
	if !nilFS.Empty() || nilFS.LinkFailed(0) || nilFS.NodeFailed(0) {
		t.Error("nil fault set must be empty")
	}
}

func TestFaultSetLinkUsable(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := top.LinkBetween(0, 1)
	if !ok {
		t.Fatal("0-1 must be adjacent")
	}
	fs := NewFaultSet()
	if !fs.LinkUsable(top, l) {
		t.Fatal("healthy link unusable")
	}
	fs.FailNode(1)
	if fs.LinkUsable(top, l) {
		t.Error("link incident on a dead node must be unusable")
	}
	if fs.LinkFailed(l) {
		t.Error("node fault must not mark the link itself failed")
	}
}

func TestSurvivingPathsRoutesAroundLinkFault(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 1 is a single-hop LSD route; fail that link and the
	// survivors must be 3-hop detours (hypercube parity) that avoid it.
	l, _ := top.LinkBetween(0, 1)
	fs := NewFaultSet()
	fs.FailLink(l)
	paths, err := top.SurvivingPaths(0, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no surviving paths in a 3-cube with one dead link")
	}
	for _, p := range paths {
		if p.Hops() != 3 {
			t.Errorf("path %s: want a 3-hop detour", p)
		}
		if err := p.Validate(top); err != nil || blockedByNodeWalk(top, fs, p) {
			t.Errorf("path %s crosses the fault (%v)", p, err)
		}
	}
	// Determinism: a second enumeration (now cached) is identical.
	again, err := top.SurvivingPaths(0, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(paths) {
		t.Fatalf("cached enumeration size changed: %d vs %d", len(again), len(paths))
	}
	for i := range again {
		if !slices.Equal(again[i].Nodes, paths[i].Nodes) {
			t.Errorf("cached path %d differs: %s vs %s", i, again[i], paths[i])
		}
	}
}

func TestSurvivingPathsCacheInvalidatesOnEpoch(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet()
	l01, _ := top.LinkBetween(0, 1)
	fs.FailLink(l01)
	withFault, err := top.SurvivingPaths(0, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	fs.RepairLink(l01)
	repaired, err := top.SurvivingPaths(0, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) == len(withFault) && repaired[0].Hops() == withFault[0].Hops() {
		t.Errorf("repair must change the enumeration: %d 2-hop detours vs direct link", len(withFault))
	}
	if repaired[0].Hops() != 1 {
		t.Errorf("after repair the direct link should return: got %s", repaired[0])
	}
}

func TestSurvivingPathsNodeFault(t *testing.T) {
	top, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet()
	fs.FailNode(1)
	// 0 -> 2 along dimension 0 normally passes node 1; survivors must
	// detour around it.
	paths, err := top.SurvivingPaths(0, 2, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		for _, n := range p.Nodes {
			if n == 1 {
				t.Errorf("path %s visits the dead node", p)
			}
		}
	}
	// Dead endpoints are unroutable.
	if _, err := top.SurvivingPaths(1, 2, 0, fs); err == nil {
		t.Error("dead source must be unroutable")
	} else {
		var nre *NoRouteError
		if !errors.As(err, &nre) {
			t.Errorf("want *NoRouteError, got %T", err)
		}
	}
}

func TestSurvivingPathsNonMinimalDetour(t *testing.T) {
	// On a 4x1... use a 4-ring (torus:4): 0 -> 1 direct, or 3 hops the
	// long way. Failing 0-1 leaves only the non-minimal detour.
	top, err := NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := top.LinkBetween(0, 1)
	if !ok {
		t.Fatal("0-1 must be adjacent")
	}
	fs := NewFaultSet()
	fs.FailLink(l)
	p, err := top.RouteAround(0, 1, fs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() <= top.Distance(0, 1) {
		t.Errorf("surviving distance %d must exceed fault-free distance %d", p.Hops(), top.Distance(0, 1))
	}
	if err := p.Validate(top); err != nil || blockedByNodeWalk(top, fs, p) {
		t.Errorf("RouteAround %s crosses the fault (%v)", p, err)
	}
}

func TestRouteAroundPrefersLSD(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet()
	// Fail a link unrelated to the 0 -> 3 LSD route (0->1->3).
	l, _ := top.LinkBetween(4, 5)
	fs.FailLink(l)
	p, err := top.RouteAround(0, 3, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Nodes, top.LSDToMSD(0, 3).Nodes) {
		t.Errorf("unaffected LSD route must be kept: got %s", p)
	}
}

// blockedByNodeWalk reports whether p visits a failed node or crosses a
// failed link, walking its nodes source to destination and resolving
// each hop with LinkBetween: the reference Survives is held to.
func blockedByNodeWalk(top *Topology, fs *FaultSet, p Path) bool {
	for i, n := range p.Nodes {
		if fs.NodeFailed(n) {
			return true
		}
		if i > 0 {
			if l, ok := top.LinkBetween(p.Nodes[i-1], n); ok && fs.LinkFailed(l) {
				return true
			}
		}
	}
	return false
}

// TestSurvivesMatchesNodeWalk holds Survives, which reads a route's
// links, to the node walk on seeded link-only, node-only and mixed
// fault sets: on every fault-free and every surviving SurvivingRoutes
// row and on every LSD route of a GHC, two tori, a mesh and a
// hypercube. Both verdicts must occur on every machine.
func TestSurvivesMatchesNodeWalk(t *testing.T) {
	for _, m := range testMachines {
		top, err := m.build()
		if err != nil {
			t.Fatal(err)
		}
		blocked, clear := 0, 0
		check := func(what string, fs *FaultSet, p Path, links []LinkID) {
			t.Helper()
			want := !blockedByNodeWalk(top, fs, p)
			if got := fs.Survives(top, p.Nodes[0], links); got != want {
				t.Fatalf("%s: Survives(%s) under %s = %v, node walk %v", what, p, fs, got, want)
			}
			if want {
				clear++
			} else {
				blocked++
			}
		}
		for seed := int64(1); seed <= 9; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fs := NewFaultSet()
			if seed%3 != 2 { // 1 and 0 mod 3: failed links
				for range 1 + rng.Intn(3) {
					fs.FailLink(LinkID(rng.Intn(top.Links())))
				}
			}
			if seed%3 != 1 { // 2 and 0 mod 3: a failed node
				fs.FailNode(NodeID(rng.Intn(top.Nodes())))
			}
			for src := NodeID(0); int(src) < top.Nodes(); src++ {
				for dst := NodeID(0); int(dst) < top.Nodes(); dst++ {
					what := fmt.Sprintf("%s seed %d %d->%d", m.name, seed, src, dst)
					check(what+" LSD", fs, top.LSDToMSD(src, dst), top.AppendLSDLinks(nil, src, dst))
					paths, links, _ := top.SurvivingRoutes(src, dst, 6, nil)
					for i := range paths {
						check(what+" fault-free row", fs, paths[i], links[i])
					}
					paths, links, _ = top.SurvivingRoutes(src, dst, 6, fs) // none when unroutable
					for i := range paths {
						check(what+" surviving row", fs, paths[i], links[i])
					}
				}
			}
		}
		if blocked == 0 || clear == 0 {
			t.Errorf("%s: %d routes blocked, %d clear: want both", m.name, blocked, clear)
		}
	}

	// The 3-cube's LSD route 0 -> 1 -> 3 under a failed second link and
	// under a failed middle node, and a route clear of the dead node.
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	links := top.AppendLSDLinks(nil, 0, 3)
	if len(links) != 2 {
		t.Fatalf("LSD route 0->3 should have 2 hops, got %d", len(links))
	}
	linkFault, nodeFault := NewFaultSet(), NewFaultSet()
	linkFault.FailLink(links[1])
	nodeFault.FailNode(1)
	l45, _ := top.LinkBetween(4, 5)
	for _, c := range []struct {
		fs    *FaultSet
		src   NodeID
		links []LinkID
		want  bool
	}{
		{nil, 0, links, true},
		{linkFault, 0, links, false},
		{nodeFault, 0, links, false},
		{nodeFault, 4, []LinkID{l45}, true},
		{nodeFault, 1, nil, false}, // a dead node reaches not even itself
	} {
		if got := c.fs.Survives(top, c.src, c.links); got != c.want {
			t.Errorf("Survives(%d over %v) under %s = %v, want %v", c.src, c.links, c.fs, got, c.want)
		}
	}
}

func TestParseLinkSpec(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	l, err := top.ParseLinkSpec("0-1")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := top.LinkBetween(0, 1)
	if l != want {
		t.Errorf("got link %d want %d", l, want)
	}
	for _, bad := range []string{"", "0", "0-9", "0-3", "x-1", "0-x", "-1-2"} {
		if _, err := top.ParseLinkSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// testMachines are small machines of every kind, with a radix-2 ring
// (the torus whose two directions are one link) and a mesh's boundary.
var testMachines = []struct {
	name  string
	build func() (*Topology, error)
}{
	{"cube:4", func() (*Topology, error) { return NewHypercube(4) }},
	{"ghc:3,3", func() (*Topology, error) { return NewGHC(3, 3) }},
	{"torus:4,4", func() (*Topology, error) { return NewTorus(4, 4) }},
	{"torus:2,4", func() (*Topology, error) { return NewTorus(2, 4) }},
	{"mesh:3,4", func() (*Topology, error) { return NewMesh(3, 4) }},
}

func sortedKeys[K cmp.Ordered](m map[K]bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func joinIDs[E any](ids []E) string {
	ss := make([]string, len(ids))
	for i, id := range ids {
		ss[i] = fmt.Sprint(id)
	}
	return strings.Join(ss, ",")
}

// checkFaultSet holds fs to the reference maps of what is failed.
func checkFaultSet(t *testing.T, what string, top *Topology, fs *FaultSet, links map[LinkID]bool, nodes map[NodeID]bool) {
	t.Helper()
	for l := LinkID(0); int(l) < top.Links(); l++ {
		lk := top.Link(l)
		usable := !links[l] && !nodes[lk.A] && !nodes[lk.B]
		if fs.LinkFailed(l) != links[l] || fs.LinkUsable(top, l) != usable {
			t.Fatalf("%s: link %d failed %v usable %v, want %v %v", what, l, fs.LinkFailed(l), fs.LinkUsable(top, l), links[l], usable)
		}
	}
	for n := NodeID(0); int(n) < top.Nodes(); n++ {
		if fs.NodeFailed(n) != nodes[n] {
			t.Fatalf("%s: node %d failed %v, want %v", what, n, fs.NodeFailed(n), nodes[n])
		}
	}
	wantLinks, wantNodes := sortedKeys(links), sortedKeys(nodes)
	if got := fs.FailedLinks(); !slices.Equal(got, wantLinks) {
		t.Fatalf("%s: FailedLinks %v, want %v", what, got, wantLinks)
	}
	if got := fs.FailedNodes(); !slices.Equal(got, wantNodes) {
		t.Fatalf("%s: FailedNodes %v, want %v", what, got, wantNodes)
	}
	if fs.Empty() != (len(links)+len(nodes) == 0) {
		t.Fatalf("%s: Empty %v with %d links and %d nodes failed", what, fs.Empty(), len(links), len(nodes))
	}
	var parts []string
	if len(wantLinks) > 0 {
		parts = append(parts, "links:"+joinIDs(wantLinks))
	}
	if len(wantNodes) > 0 {
		parts = append(parts, "nodes:"+joinIDs(wantNodes))
	}
	if want := "faults{" + strings.Join(parts, " ") + "}"; fs.String() != want {
		t.Fatalf("%s: String %q, want %q", what, fs.String(), want)
	}
}

// TestFaultSetMatchesMapReference drives seeded fail / repair sequences
// of links and nodes, from the zero value, against two maps; a Clone
// taken halfway must keep its population through the rest of the
// sequence, and the original through the Clone's own mutations.
func TestFaultSetMatchesMapReference(t *testing.T) {
	for _, m := range testMachines {
		if m.name != "cube:4" && m.name != "torus:4,4" {
			continue
		}
		top, err := m.build()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fs := new(FaultSet)
			links, nodes := map[LinkID]bool{}, map[NodeID]bool{}
			var clone *FaultSet
			var cloneLinks map[LinkID]bool
			var cloneNodes map[NodeID]bool
			for step := 0; step < 60; step++ {
				l, n := LinkID(rng.Intn(top.Links())), NodeID(rng.Intn(top.Nodes()))
				switch rng.Intn(4) {
				case 0:
					fs.FailLink(l)
					links[l] = true
				case 1:
					fs.RepairLink(l)
					delete(links, l)
				case 2:
					fs.FailNode(n)
					nodes[n] = true
				case 3:
					fs.RepairNode(n)
					delete(nodes, n)
				}
				what := fmt.Sprintf("%s seed %d step %d", m.name, seed, step)
				checkFaultSet(t, what, top, fs, links, nodes)
				if step == 30 {
					clone, cloneLinks, cloneNodes = fs.Clone(), maps.Clone(links), maps.Clone(nodes)
				}
			}
			what := fmt.Sprintf("%s seed %d", m.name, seed)
			checkFaultSet(t, what+" clone", top, clone, cloneLinks, cloneNodes)
			for l := LinkID(0); int(l) < top.Links(); l++ {
				clone.FailLink(l)
			}
			clone.FailNode(0)
			checkFaultSet(t, what+" after the clone's mutations", top, fs, links, nodes)
		}
	}
}

// TestFaultFreeAndBFSDistancesAgree cross-checks the walk's two
// distance sources. Around one failed link that no fault-free shortest
// src -> dst path crosses, the residual BFS gives every node of that
// DAG its address distance, so the faulted enumeration must be the
// fault-free one.
func TestFaultFreeAndBFSDistancesAgree(t *testing.T) {
	for _, m := range testMachines {
		top, err := m.build()
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, max := range []int{0, 3} {
			for src := NodeID(0); int(src) < top.Nodes(); src++ {
				for dst := NodeID(0); int(dst) < top.Nodes(); dst++ {
					used := map[LinkID]bool{}
					for _, p := range top.ShortestPaths(src, dst, 0) {
						ls, err := p.Links(top)
						if err != nil {
							t.Fatal(err)
						}
						for _, l := range ls {
							used[l] = true
						}
					}
					spare := LinkID(0)
					for used[spare] {
						spare++
					}
					if int(spare) == top.Links() {
						continue // every link is on some shortest path
					}
					fs := NewFaultSet()
					fs.FailLink(spare)
					got, err := top.SurvivingPaths(src, dst, max, fs)
					if want := top.ShortestPaths(src, dst, max); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %d->%d max %d around link %d: %v (%v), want %v", m.name, src, dst, max, spare, got, err, want)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no pair has a link off its shortest paths", m.name)
		}
	}
}
