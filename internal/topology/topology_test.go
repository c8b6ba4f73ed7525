package topology

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustGHC(t *testing.T, radices ...int) *Topology {
	t.Helper()
	top, err := NewGHC(radices...)
	if err != nil {
		t.Fatalf("NewGHC(%v): %v", radices, err)
	}
	return top
}

func mustTorus(t *testing.T, radices ...int) *Topology {
	t.Helper()
	top, err := NewTorus(radices...)
	if err != nil {
		t.Fatalf("NewTorus(%v): %v", radices, err)
	}
	return top
}

func TestBinary6CubeCounts(t *testing.T) {
	top, err := NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	if got := top.Nodes(); got != 64 {
		t.Errorf("nodes = %d, want 64", got)
	}
	// d-cube has d*2^(d-1) links.
	if got := top.Links(); got != 6*32 {
		t.Errorf("links = %d, want 192", got)
	}
	for u := 0; u < top.Nodes(); u++ {
		if len(top.adj[NodeID(u)]) != 6 {
			t.Fatalf("node %d degree = %d, want 6", u, len(top.adj[NodeID(u)]))
		}
	}
	if err := top.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGHC444Counts(t *testing.T) {
	top := mustGHC(t, 4, 4, 4)
	if got := top.Nodes(); got != 64 {
		t.Errorf("nodes = %d, want 64", got)
	}
	// Per dimension each node has radix-1 = 3 neighbors; degree 9.
	for u := 0; u < top.Nodes(); u++ {
		if len(top.adj[NodeID(u)]) != 9 {
			t.Fatalf("node %d degree = %d, want 9", u, len(top.adj[NodeID(u)]))
		}
	}
	// links = nodes*degree/2.
	if got := top.Links(); got != 64*9/2 {
		t.Errorf("links = %d, want %d", got, 64*9/2)
	}
	if err := top.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTorus88Counts(t *testing.T) {
	top := mustTorus(t, 8, 8)
	if top.Nodes() != 64 {
		t.Fatalf("nodes = %d, want 64", top.Nodes())
	}
	for u := 0; u < top.Nodes(); u++ {
		if len(top.adj[NodeID(u)]) != 4 {
			t.Fatalf("node %d degree = %d, want 4", u, len(top.adj[NodeID(u)]))
		}
	}
	if top.Links() != 128 {
		t.Errorf("links = %d, want 128", top.Links())
	}
}

func TestTorus444Counts(t *testing.T) {
	top := mustTorus(t, 4, 4, 4)
	if top.Nodes() != 64 {
		t.Fatalf("nodes = %d, want 64", top.Nodes())
	}
	for u := 0; u < top.Nodes(); u++ {
		if len(top.adj[NodeID(u)]) != 6 {
			t.Fatalf("node %d degree = %d, want 6", u, len(top.adj[NodeID(u)]))
		}
	}
	if top.Links() != 192 {
		t.Errorf("links = %d, want 192", top.Links())
	}
}

func TestRadix2TorusCollapsesDoubleEdge(t *testing.T) {
	top := mustTorus(t, 2, 2)
	// 2x2 torus is a 4-cycle... but with radix 2 the +1 and -1 neighbors
	// coincide, so it is actually a 2-cube: 4 nodes, 4 links, degree 2.
	if top.Nodes() != 4 || top.Links() != 4 {
		t.Errorf("2x2 torus: nodes=%d links=%d, want 4 and 4", top.Nodes(), top.Links())
	}
	for u := 0; u < 4; u++ {
		if len(top.adj[NodeID(u)]) != 2 {
			t.Errorf("degree(%d) = %d, want 2", u, len(top.adj[NodeID(u)]))
		}
	}
}

func TestMeshCounts(t *testing.T) {
	top, err := NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if top.Nodes() != 9 {
		t.Fatalf("nodes = %d", top.Nodes())
	}
	// 3x3 mesh has 12 links.
	if top.Links() != 12 {
		t.Errorf("links = %d, want 12", top.Links())
	}
	// Corner degree 2, edge 3, center 4.
	if len(top.adj[top.FromDigits([]int{0, 0})]) != 2 {
		t.Errorf("corner degree != 2")
	}
	if len(top.adj[top.FromDigits([]int{1, 1})]) != 4 {
		t.Errorf("center degree != 4")
	}
}

func TestDigitsRoundTrip(t *testing.T) {
	top := mustGHC(t, 3, 4, 5)
	for u := 0; u < top.Nodes(); u++ {
		d := top.Digits(NodeID(u))
		if got := top.FromDigits(d); got != NodeID(u) {
			t.Fatalf("round trip %d -> %v -> %d", u, d, got)
		}
	}
}

func TestInvalidConstructions(t *testing.T) {
	if _, err := NewGHC(); err == nil {
		t.Error("NewGHC() should fail")
	}
	if _, err := NewGHC(1, 4); err == nil {
		t.Error("NewGHC(1,4) should fail")
	}
	if _, err := NewTorus(0); err == nil {
		t.Error("NewTorus(0) should fail")
	}
	if _, err := NewHypercube(0); err == nil {
		t.Error("NewHypercube(0) should fail")
	}
}

// TestBuildCountsLinksUpFront: the link table is sized exactly before a
// link exists, and a radix list whose links a LinkID cannot name is
// refused from that count alone, without building anything.
func TestBuildCountsLinksUpFront(t *testing.T) {
	for _, tc := range []struct {
		kind    Kind
		radices []int
	}{
		{KindGHC, []int{2, 2, 2, 2}}, {KindGHC, []int{4, 3, 5}}, {KindGHC, []int{7}},
		{KindTorus, []int{8, 8}}, {KindTorus, []int{2, 5, 3}}, {KindTorus, []int{2, 2}},
		{KindMesh, []int{3, 3}}, {KindMesh, []int{2, 4, 5}},
	} {
		top, err := build(tc.kind, tc.radices)
		if err != nil {
			t.Fatal(err)
		}
		if cap(top.links) != len(top.links) {
			t.Errorf("%v: counted %d links, built %d", top, cap(top.links), len(top.links))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, radices := range [][]int{{1 << 20}, {1 << 16, 1 << 4}, {1 << 17, 2, 2, 2}, {1024, 1024}} {
		if _, err := NewGHC(radices...); err == nil || !strings.Contains(err.Error(), "links") {
			t.Errorf("NewGHC(%v) = %v, want a refusal naming the link count", radices, err)
		}
	}
	// Past maxLinks, far below what a LinkID can name: a 1024×1024 torus
	// or mesh has some 2.1 million links.
	for _, build := range []func(...int) (*Topology, error){NewTorus, NewMesh} {
		if top, err := build(1024, 1024); err == nil || !strings.Contains(err.Error(), "links") {
			t.Errorf("%v: %v, want a refusal naming the link count", top, err)
		}
	}
	if _, err := NewHypercube(1 << 40); err == nil {
		t.Error("NewHypercube(1<<40) built")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing oversized topologies allocated %d bytes", grew)
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		top  *Topology
		want int
	}{
		{mustGHC(t, 2, 2, 2, 2, 2, 2), 6},
		{mustGHC(t, 4, 4, 4), 3},
		{mustTorus(t, 8, 8), 8},
		{mustTorus(t, 4, 4, 4), 6},
	}
	for _, c := range cases {
		if got := c.top.Diameter(); got != c.want {
			t.Errorf("%v diameter = %d, want %d", c.top, got, c.want)
		}
	}
}

func TestDistanceMatchesBFS(t *testing.T) {
	tops := []*Topology{
		mustGHC(t, 4, 4),
		mustTorus(t, 5, 3),
	}
	if m, err := NewMesh(4, 3); err == nil {
		tops = append(tops, m)
	}
	for _, top := range tops {
		for src := 0; src < top.Nodes(); src++ {
			dist := bfsDistances(top, NodeID(src))
			for v := 0; v < top.Nodes(); v++ {
				if got := top.Distance(NodeID(src), NodeID(v)); got != dist[v] {
					t.Fatalf("%v: Distance(%d,%d) = %d, BFS says %d", top, src, v, got, dist[v])
				}
			}
		}
	}
}

func bfsDistances(t *Topology, src NodeID) []int {
	dist := make([]int, t.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestLSDToMSDIsShortest(t *testing.T) {
	tops := []*Topology{
		mustGHC(t, 4, 4, 4),
		mustTorus(t, 8, 8),
		mustTorus(t, 4, 4, 4),
	}
	for _, top := range tops {
		for src := 0; src < top.Nodes(); src += 7 {
			for dst := 0; dst < top.Nodes(); dst += 5 {
				p := top.LSDToMSD(NodeID(src), NodeID(dst))
				if err := p.Validate(top); err != nil {
					t.Fatalf("%v LSDToMSD(%d,%d): %v", top, src, dst, err)
				}
				if p.Hops() != top.Distance(NodeID(src), NodeID(dst)) {
					t.Fatalf("%v LSDToMSD(%d,%d) hops=%d want %d", top, src, dst, p.Hops(), top.Distance(NodeID(src), NodeID(dst)))
				}
				if p.Nodes[0] != NodeID(src) || p.Nodes[p.Hops()] != NodeID(dst) {
					t.Fatalf("endpoint mismatch")
				}
			}
		}
	}
}

// lsdByDigits is the LSD-to-MSD route walked over digit slices, the
// reference AppendLSDLinks' arithmetic walk, and LSDToMSD built on it,
// are held to.
func lsdByDigits(top *Topology, src, dst NodeID) Path {
	cur, want := top.Digits(src), top.Digits(dst)
	nodes := []NodeID{src}
	for dim := range cur {
		for cur[dim] != want[dim] {
			cur[dim] = dimStep(top, dim, cur[dim], want[dim])
			nodes = append(nodes, top.FromDigits(cur))
		}
	}
	return Path{Nodes: nodes}
}

// dimStep returns the next digit value moving from a toward b along
// dimension dim by one hop: straight to b in a GHC, the shorter way
// round a ring (up on a tie), toward b along a line.
func dimStep(top *Topology, dim, a, b int) int {
	m := top.radices[dim]
	switch top.kind {
	case KindGHC:
		return b
	case KindTorus:
		if (b-a+m)%m <= (a-b+m)%m {
			return (a + 1) % m
		}
		return (a - 1 + m) % m
	default: // mesh
		if b > a {
			return a + 1
		}
		return a - 1
	}
}

// TestLSDToMSDMatchesDigitWalk holds LSDToMSD to the digit-slice walk on
// every node pair of five small machines, one of each kind and a torus
// with an odd radix, and to one allocation a call: the path.
func TestLSDToMSDMatchesDigitWalk(t *testing.T) {
	mesh, err := NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range []*Topology{mustGHC(t, 2, 2, 2, 2), mustGHC(t, 3, 3), mustTorus(t, 4, 4), mustTorus(t, 5, 3), mesh} {
		for src := NodeID(0); int(src) < top.Nodes(); src++ {
			for dst := NodeID(0); int(dst) < top.Nodes(); dst++ {
				got, want := top.LSDToMSD(src, dst), lsdByDigits(top, src, dst)
				if !slices.Equal(got.Nodes, want.Nodes) {
					t.Fatalf("%v LSDToMSD(%d, %d) = %v, digit walk %v", top, src, dst, got, want)
				}
			}
		}
		src, dst := NodeID(0), NodeID(top.Nodes()-1)
		if n := testing.AllocsPerRun(10, func() { top.LSDToMSD(src, dst) }); n != 1 {
			t.Fatalf("%v LSDToMSD(%d, %d) allocates %v times, want 1", top, src, dst, n)
		}
	}
}

func TestLSDToMSDDeterministic(t *testing.T) {
	top := mustTorus(t, 8, 8)
	a := top.LSDToMSD(3, 60)
	b := top.LSDToMSD(3, 60)
	if !slices.Equal(a.Nodes, b.Nodes) {
		t.Errorf("LSDToMSD not deterministic: %v vs %v", a, b)
	}
}

func TestShortestPathsEnumeration(t *testing.T) {
	top := mustGHC(t, 2, 2, 2)
	// In a 3-cube, nodes 0 and 7 differ in 3 digits: 3! = 6 shortest paths.
	paths := top.ShortestPaths(0, 7, 0)
	if len(paths) != 6 {
		t.Fatalf("got %d paths, want 6", len(paths))
	}
	seen := map[string]bool{}
	for _, p := range paths {
		if err := p.Validate(top); err != nil {
			t.Fatalf("invalid path %v: %v", p, err)
		}
		if p.Hops() != 3 {
			t.Fatalf("path %v hops=%d, want 3", p, p.Hops())
		}
		if seen[p.String()] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[p.String()] = true
	}
}

func TestShortestPathsMaxCap(t *testing.T) {
	top := mustGHC(t, 4, 4, 4)
	paths := top.ShortestPaths(0, top.FromDigits([]int{3, 3, 3}), 4)
	if len(paths) != 4 {
		t.Errorf("cap ignored: got %d paths", len(paths))
	}
}

func TestShortestPathsTorusCount(t *testing.T) {
	top := mustTorus(t, 8, 8)
	// From (0,0) to (2,1): 3 hops, C(3,1)=3 interleavings.
	src := top.FromDigits([]int{0, 0})
	dst := top.FromDigits([]int{2, 1})
	paths := top.ShortestPaths(src, dst, 0)
	if len(paths) != 3 {
		t.Errorf("got %d paths, want 3", len(paths))
	}
}

func TestShortestPathsSameNode(t *testing.T) {
	top := mustGHC(t, 2, 2)
	paths := top.ShortestPaths(1, 1, 0)
	if len(paths) != 1 || paths[0].Hops() != 0 {
		t.Errorf("self path wrong: %v", paths)
	}
}

func TestPathLinksResolve(t *testing.T) {
	top := mustTorus(t, 4, 4)
	p := top.LSDToMSD(0, top.FromDigits([]int{2, 2}))
	links, err := p.Links(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != p.Hops() {
		t.Errorf("links=%d hops=%d", len(links), p.Hops())
	}
	bad := Path{Nodes: []NodeID{0, 5}}
	if _, err := bad.Links(top); err == nil {
		t.Error("expected error for non-adjacent step")
	}
}

// smallInstances is one small machine or more of every kind, covering
// mixed radices, a 2-ring beside longer rings, and even rings (whose
// half-way ties the LSD walk breaks upward).
func smallInstances(t *testing.T) []*Topology {
	t.Helper()
	cube, err := NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewMesh(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []*Topology{cube, mustGHC(t, 3, 4, 2), mustTorus(t, 2, 5, 4), mustTorus(t, 6, 3), mustTorus(t, 2, 2), mesh}
}

func TestAppendLSDLinksMatchesPath(t *testing.T) {
	for _, top := range smallInstances(t) {
		prefix := []LinkID{-3, -4}
		for src := 0; src < top.Nodes(); src++ {
			for dst := 0; dst < top.Nodes(); dst++ {
				want, err := lsdByDigits(top, NodeID(src), NodeID(dst)).Links(top)
				if err != nil {
					t.Fatal(err)
				}
				got := top.AppendLSDLinks(prefix, NodeID(src), NodeID(dst))
				if len(got) < 2 || got[0] != -3 || got[1] != -4 {
					t.Fatalf("%v %d->%d: prefix of a non-empty buf lost: %v", top, src, dst, got)
				}
				if got = got[2:]; len(got) != len(want) {
					t.Fatalf("%v %d->%d: %d links %v, path has %d %v", top, src, dst, len(got), got, len(want), want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v %d->%d: links %v, path resolves to %v", top, src, dst, got, want)
					}
				}
			}
		}
		if got := top.AppendLSDLinks(nil, 1, 1); len(got) != 0 {
			t.Errorf("%v: src == dst appended %v", top, got)
		}
	}
	top := mustTorus(t, 8, 8)
	buf := make([]LinkID, 0, top.Diameter())
	if n := testing.AllocsPerRun(100, func() { buf = top.AppendLSDLinks(buf[:0], 3, 60) }); n != 0 {
		t.Errorf("AppendLSDLinks into a large enough buf allocates %v times", n)
	}
}

// LinkBetween reads the per-node link index; the link table itself is
// the oracle for every ordered node pair, adjacent or not.
func TestLinkBetweenMatchesLinkTable(t *testing.T) {
	for _, top := range smallInstances(t) {
		want := map[[2]NodeID]LinkID{}
		for i := 0; i < top.Links(); i++ {
			l := top.Link(LinkID(i))
			want[[2]NodeID{l.A, l.B}] = l.ID
			want[[2]NodeID{l.B, l.A}] = l.ID
		}
		for u := -1; u <= top.Nodes(); u++ {
			for v := -1; v <= top.Nodes(); v++ {
				id, ok := top.LinkBetween(NodeID(u), NodeID(v))
				wid, wok := want[[2]NodeID{NodeID(u), NodeID(v)}]
				if ok != wok || (ok && id != wid) {
					t.Fatalf("%v LinkBetween(%d,%d) = %d,%v, link table says %d,%v", top, u, v, id, ok, wid, wok)
				}
			}
		}
	}
}

func TestPathValidateRejectsCycle(t *testing.T) {
	top := mustTorus(t, 4, 4)
	p := Path{Nodes: []NodeID{0, 1, 0}}
	if err := p.Validate(top); err == nil {
		t.Error("expected cycle rejection")
	}
}

// Property: for random node pairs on a GHC(4,4), every enumerated
// shortest path has the exact shortest distance and valid adjacency.
func TestQuickShortestPathsProperty(t *testing.T) {
	top := mustGHC(t, 4, 4)
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % top.Nodes())
		dst := NodeID(int(b) % top.Nodes())
		want := top.Distance(src, dst)
		paths := top.ShortestPaths(src, dst, 16)
		if len(paths) == 0 {
			return false
		}
		for _, p := range paths {
			if p.Hops() != want || p.Validate(top) != nil {
				return false
			}
			if p.Nodes[0] != src || p.Nodes[p.Hops()] != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Distance is symmetric and satisfies the triangle inequality
// through any neighbor.
func TestQuickDistanceProperty(t *testing.T) {
	top := mustTorus(t, 5, 4)
	f := func(a, b uint8) bool {
		u := NodeID(int(a) % top.Nodes())
		v := NodeID(int(b) % top.Nodes())
		if top.Distance(u, v) != top.Distance(v, u) {
			return false
		}
		for _, w := range top.adj[u] {
			if top.Distance(w, v) < top.Distance(u, v)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStringRepresentations(t *testing.T) {
	top := mustGHC(t, 4, 4, 4)
	if got := top.String(); got != "ghc(4,4,4)" {
		t.Errorf("String = %q", got)
	}
	tor := mustTorus(t, 8, 8)
	if got := tor.String(); got != "torus(8,8)" {
		t.Errorf("String = %q", got)
	}
	p := Path{Nodes: []NodeID{0, 1, 3}}
	if got := p.String(); got != "0->1->3" {
		t.Errorf("Path.String = %q", got)
	}
}
