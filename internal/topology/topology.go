// Package topology models the interconnection networks evaluated in the
// paper: generalized hypercubes (GHCs), k-ary n-cube tori, meshes, and
// binary hypercubes. Nodes carry mixed-radix addresses; links are
// bidirectional and half-duplex, matching the paper's hardware model.
//
// The package also provides the two path selectors the paper compares:
// the deterministic LSD-to-MSD (dimension-order) route used by wormhole
// routing, and enumeration of all equivalent shortest paths, which
// scheduled routing's AssignPaths heuristic draws from.
package topology

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// NodeID identifies a node; valid IDs are 0..Nodes()-1 and correspond to
// the mixed-radix encoding of the node's address, least-significant digit
// first.
type NodeID int

// LinkID identifies an undirected, half-duplex link; valid IDs are
// 0..Links()-1. 32 bits: every switching command of an Ω holds two.
type LinkID int32

// Kind names the topology family.
type Kind int

const (
	// KindGHC is a generalized hypercube: along every dimension the
	// nodes sharing the remaining digits form a complete graph.
	KindGHC Kind = iota
	// KindTorus is a k-ary n-cube: along every dimension the nodes
	// sharing the remaining digits form a ring.
	KindTorus
	// KindMesh is a torus without the wraparound edges.
	KindMesh
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case KindGHC:
		return "ghc"
	case KindTorus:
		return "torus"
	case KindMesh:
		return "mesh"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Link is an undirected half-duplex channel between two adjacent nodes.
// A < B always holds.
type Link struct {
	ID LinkID
	A  NodeID
	B  NodeID
}

// Topology is an immutable interconnection network. All methods are
// safe for concurrent use.
type Topology struct {
	kind    Kind
	radices []int
	strides []int // strides[d] is the node-ID weight of digit d
	nodes   int
	adj     [][]NodeID
	links   []Link

	// hop is the dense link index: hop[u*hopRow+hopOff[d]+k] is the
	// link leaving node u along dimension d — in a GHC toward digit
	// value k, on a ring or line toward the next digit up (k = 0) or
	// down (k = 1) — or -1 where there is none (u's own digit, a mesh
	// edge, and the down slot of a 2-ring, whose one link sits in the
	// up slot of both ends).
	hop    []LinkID
	hopRow int
	hopOff []int

	// routes memoizes the fault-free path enumerations per (src, dst,
	// max), so repeated sweeps over one topology stop re-walking the
	// shortest-path DAG; those around a fault live on the FaultSet.
	// Entries are shared: callers must not mutate what they are handed.
	// Nothing is evicted: the key space is nodes² × the MaxPaths values
	// in use, which the wire bounds (schedroute.MaxPathsLimit).
	routes sync.Map // routeKey -> *routes
}

// routeKey identifies one memoized enumeration, on a Topology's memo or
// on a FaultSet's (which may serve several topologies).
type routeKey struct {
	t        *Topology
	src, dst NodeID
	max      int
}

// RouteMemoLen counts the fault-free enumerations t holds: what a leak
// check or a dump of a long-lived Topology reads.
func (t *Topology) RouteMemoLen() (n int) {
	t.routes.Range(func(_, _ any) bool { n++; return true })
	return n
}

// routes is one memoized enumeration: the paths and, row for row, their
// link sequences as windows of one slab, shared and immutable alike.
type routes struct {
	paths []Path
	links [][]LinkID
}

func (t *Topology) resolve(paths []Path) *routes {
	hops := paths[0].Hops() // an enumeration is never empty, its paths equally long
	slab := make([]LinkID, len(paths)*hops)
	r := &routes{paths: paths, links: make([][]LinkID, len(paths))}
	for i, p := range paths {
		r.links[i] = slab[i*hops : (i+1)*hops : (i+1)*hops]
		for h := range r.links[i] {
			r.links[i][h], _ = t.LinkBetween(p.Nodes[h], p.Nodes[h+1]) // enumerated along adj
		}
	}
	return r
}

// NewGHC builds a generalized hypercube GHC(m_1, ..., m_r) with
// m_1*...*m_r nodes. Every radix must be at least 2. A binary hypercube
// of dimension d is NewGHC with d radices of 2.
func NewGHC(radices ...int) (*Topology, error) {
	return build(KindGHC, radices)
}

// NewTorus builds a k-ary n-cube torus with the given per-dimension
// radices (each at least 2). Radix-2 dimensions collapse the ring's
// double edge into a single link.
func NewTorus(radices ...int) (*Topology, error) {
	return build(KindTorus, radices)
}

// NewMesh builds a mesh (torus without wraparound) with the given
// per-dimension radices.
func NewMesh(radices ...int) (*Topology, error) {
	return build(KindMesh, radices)
}

// NewHypercube builds a binary d-cube.
func NewHypercube(d int) (*Topology, error) {
	if d < 1 {
		return nil, fmt.Errorf("topology: hypercube dimension %d < 1", d)
	}
	r := make([]int, d)
	for i := range r {
		r[i] = 2
	}
	return build(KindGHC, r)
}

func build(kind Kind, radices []int) (*Topology, error) {
	if len(radices) == 0 {
		return nil, fmt.Errorf("topology: no radices given")
	}
	n := 1
	for i, m := range radices {
		if m < 2 {
			return nil, fmt.Errorf("topology: radix %d of dimension %d is below 2", m, i)
		}
		if n > 1<<20/m {
			return nil, fmt.Errorf("topology: too many nodes")
		}
		n *= m
	}
	// Count the links before building any: a LinkID must be able to name
	// every one, and the count sizes the link table exactly.
	var links int64
	for _, m := range radices {
		m := int64(m)
		per := m - 1 // a mesh line, or a 2-ring, whose double edge is one link
		if kind == KindGHC {
			per = m * (m - 1) / 2
		} else if kind == KindTorus && m > 2 {
			per = m
		}
		links += int64(n) / m * per
	}
	if links > math.MaxInt32 {
		return nil, fmt.Errorf("topology: %d links, more than the %d a LinkID can name", links, math.MaxInt32)
	}
	t := &Topology{
		kind:    kind,
		radices: append([]int(nil), radices...),
		strides: make([]int, len(radices)),
		nodes:   n,
		adj:     make([][]NodeID, n),
		links:   make([]Link, 0, links),
		hopOff:  make([]int, len(radices)),
	}
	stride := 1
	for dim, m := range radices {
		t.strides[dim] = stride
		stride *= m
		t.hopOff[dim] = t.hopRow
		if kind == KindGHC {
			t.hopRow += m
		} else {
			t.hopRow += 2
		}
	}
	t.hop = make([]LinkID, n*t.hopRow)
	for i := range t.hop {
		t.hop[i] = -1
	}
	for u := 0; u < n; u++ {
		for dim, m := range radices {
			a := u / t.strides[dim] % m
			switch kind {
			case KindGHC:
				// Complete graph per dimension.
				for b := 0; b < m; b++ {
					if b != a {
						t.addEdge(NodeID(u), dim, a, b)
					}
				}
			case KindTorus:
				t.addEdge(NodeID(u), dim, a, (a+1)%m)
				t.addEdge(NodeID(u), dim, a, (a+m-1)%m)
			case KindMesh:
				if a+1 < m {
					t.addEdge(NodeID(u), dim, a, a+1)
				}
				if a-1 >= 0 {
					t.addEdge(NodeID(u), dim, a, a-1)
				}
			}
		}
	}
	for u := range t.adj {
		sort.Slice(t.adj[u], func(i, j int) bool { return t.adj[u][i] < t.adj[u][j] })
	}
	return t, nil
}

// addEdge records the link from u, whose digit along dim is a, to the
// node whose digit there is b. Every link is seen from both ends; the
// lower-numbered end, visited first, creates it and fills both ends'
// index slots.
func (t *Topology) addEdge(u NodeID, dim, a, b int) {
	v := u + NodeID((b-a)*t.strides[dim])
	if v < u {
		return
	}
	s := t.hopSlot(u, dim, a, b)
	if t.hop[s] >= 0 {
		return // the double edge of a 2-ring
	}
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, A: u, B: v})
	t.hop[s] = id
	t.hop[t.hopSlot(v, dim, b, a)] = id
	t.adj[u] = append(t.adj[u], v)
	t.adj[v] = append(t.adj[v], u)
}

// hopSlot returns the index in t.hop of the link that takes node u from
// digit a to digit b along dim, or -1 when one hop cannot.
func (t *Topology) hopSlot(u NodeID, dim, a, b int) int {
	base := int(u)*t.hopRow + t.hopOff[dim]
	if t.kind == KindGHC {
		return base + b
	}
	wrap := t.kind == KindTorus
	switch m := t.radices[dim]; {
	case b == a+1, wrap && a == m-1 && b == 0:
		return base
	case b == a-1, wrap && a == 0 && b == m-1:
		return base + 1
	}
	return -1
}

// Kind returns the topology family.
func (t *Topology) Kind() Kind { return t.kind }

// Radices returns a copy of the per-dimension radices.
func (t *Topology) Radices() []int { return append([]int(nil), t.radices...) }

// Nodes returns the node count.
func (t *Topology) Nodes() int { return t.nodes }

// Links returns the link count.
func (t *Topology) Links() int { return len(t.links) }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Neighbors returns the nodes adjacent to u (shared slice; do not mutate).
func (t *Topology) Neighbors(u NodeID) []NodeID { return t.adj[u] }

// LinkBetween returns the link joining u and v, or false when they are
// not adjacent.
func (t *Topology) LinkBetween(u, v NodeID) (LinkID, bool) {
	if u > v {
		u, v = v, u
	}
	if u < 0 || int(v) >= t.nodes || u == v {
		return 0, false
	}
	// Neighbours differ in one digit, by some k below that dimension's
	// radix, so their IDs differ by k strides of it: the largest stride
	// not above the difference.
	diff := int(v - u)
	dim := len(t.strides) - 1
	for t.strides[dim] > diff {
		dim--
	}
	stride, m := t.strides[dim], t.radices[dim]
	k, a := diff/stride, int(u)/stride%m
	if k*stride != diff || a+k >= m {
		return 0, false
	}
	s := t.hopSlot(u, dim, a, a+k)
	if s < 0 {
		return 0, false
	}
	return t.hop[s], true
}

// Digits decodes a node ID into its mixed-radix address, least
// significant digit first.
func (t *Topology) Digits(u NodeID) []int {
	d := make([]int, len(t.radices))
	x := int(u)
	for i, m := range t.radices {
		d[i] = x % m
		x /= m
	}
	return d
}

// FromDigits encodes a mixed-radix address (LSD first) into a node ID.
func (t *Topology) FromDigits(d []int) NodeID {
	id, mul := 0, 1
	for i, m := range t.radices {
		id += d[i] * mul
		mul *= m
	}
	return NodeID(id)
}

// Distance returns the hop count of a shortest path from u to v.
func (t *Topology) Distance(u, v NodeID) int {
	x, y := int(u), int(v)
	dist := 0
	for i, m := range t.radices {
		dist += t.dimDistance(i, x%m, y%m)
		x /= m
		y /= m
	}
	return dist
}

// dimDistance is the per-dimension hop count between digit values a and b.
func (t *Topology) dimDistance(dim, a, b int) int {
	if a == b {
		return 0
	}
	m := t.radices[dim]
	switch t.kind {
	case KindGHC:
		return 1
	case KindTorus:
		d := a - b
		if d < 0 {
			d = -d
		}
		if m-d < d {
			return m - d
		}
		return d
	default: // mesh
		d := a - b
		if d < 0 {
			d = -d
		}
		return d
	}
}

// Diameter returns the maximum shortest-path distance over all node
// pairs, computed from the address structure in O(dims * max radix).
func (t *Topology) Diameter() int {
	diam := 0
	for dim, m := range t.radices {
		worst := 0
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				if d := t.dimDistance(dim, a, b); d > worst {
					worst = d
				}
			}
		}
		diam += worst
	}
	return diam
}

// String describes the topology, e.g. "ghc(4,4,4)" or "torus(8,8)".
func (t *Topology) String() string {
	parts := make([]string, len(t.radices))
	for i, m := range t.radices {
		parts[i] = fmt.Sprintf("%d", m)
	}
	return fmt.Sprintf("%s(%s)", t.kind, strings.Join(parts, ","))
}

// Validate checks internal consistency: the tests run it on every
// topology family they build.
func (t *Topology) Validate() error {
	if t.nodes != len(t.adj) {
		return fmt.Errorf("topology: adjacency size %d != nodes %d", len(t.adj), t.nodes)
	}
	for u, ns := range t.adj {
		seen := make(map[NodeID]bool, len(ns))
		for _, v := range ns {
			if v == NodeID(u) {
				return fmt.Errorf("topology: self-loop at node %d", u)
			}
			if seen[v] {
				return fmt.Errorf("topology: duplicate edge %d-%d", u, v)
			}
			seen[v] = true
			if _, ok := t.LinkBetween(NodeID(u), v); !ok {
				return fmt.Errorf("topology: edge %d-%d has no link record", u, v)
			}
		}
	}
	for _, l := range t.links {
		if l.A >= l.B {
			return fmt.Errorf("topology: link %d endpoints out of order", l.ID)
		}
	}
	return nil
}
