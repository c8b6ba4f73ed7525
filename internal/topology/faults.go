package topology

import (
	"fmt"
	"strings"
	"sync"
)

// FaultSet records the failed links and nodes of a degraded machine.
// Like LinkSet it is bitset-backed, so membership tests on the routing
// hot paths stay one shift-and-mask. The zero value is not usable; call
// NewFaultSet. A nil *FaultSet everywhere means "no faults".
//
// FaultSet is not safe for concurrent mutation, but a set that is no
// longer being mutated may be shared by any number of concurrent
// readers (the survivability sweep does exactly that).
type FaultSet struct {
	links LinkSet
	nodes LinkSet // reused bitset machinery over NodeID values

	// routes memoizes Topology.SurvivingRoutes around this population.
	// Enumerations are a function of (topology, what is broken), so the
	// set owns them: a mutation starts the memo over, Clone leaves it
	// behind, and it is collected with the set.
	routes sync.Map // routeKey -> *routes, or nil for no route
}

// NewFaultSet returns an empty fault set for topologies up to the given
// size; both hints may be zero (the bitsets grow on demand).
func NewFaultSet(nlinks, nnodes int) *FaultSet {
	return &FaultSet{links: NewLinkSet(nlinks), nodes: NewLinkSet(nnodes)}
}

// FailLink marks l failed.
func (f *FaultSet) FailLink(l LinkID) {
	f.routes = sync.Map{}
	f.links.Add(l)
}

// FailNode marks n failed; every link incident on n is implicitly
// unusable (a dead CP can switch nothing), which LinkUsable reflects.
func (f *FaultSet) FailNode(n NodeID) {
	f.routes = sync.Map{}
	f.nodes.Add(LinkID(n))
}

// RepairLink returns l to service.
func (f *FaultSet) RepairLink(l LinkID) {
	f.routes = sync.Map{}
	f.links.Remove(l)
}

// RepairNode returns n to service.
func (f *FaultSet) RepairNode(n NodeID) {
	f.routes = sync.Map{}
	f.nodes.Remove(LinkID(n))
}

// LinkFailed reports whether l itself is marked failed (node-induced
// unusability is LinkUsable's job).
func (f *FaultSet) LinkFailed(l LinkID) bool {
	return f != nil && f.links.Has(l)
}

// NodeFailed reports whether n is failed.
func (f *FaultSet) NodeFailed(n NodeID) bool {
	return f != nil && f.nodes.Has(LinkID(n))
}

// LinkUsable reports whether l can carry traffic on t: the link is not
// failed and neither endpoint CP is dead.
func (f *FaultSet) LinkUsable(t *Topology, l LinkID) bool {
	if f == nil {
		return true
	}
	if f.links.Has(l) {
		return false
	}
	lk := t.Link(l)
	return !f.nodes.Has(LinkID(lk.A)) && !f.nodes.Has(LinkID(lk.B))
}

// Empty reports whether no element is failed.
func (f *FaultSet) Empty() bool {
	return f == nil || (f.links.Count() == 0 && f.nodes.Count() == 0)
}

// FailedLinks returns the explicitly failed links in ascending order.
func (f *FaultSet) FailedLinks() []LinkID {
	if f == nil {
		return nil
	}
	return f.links.Links()
}

// FailedNodes returns the failed nodes in ascending order.
func (f *FaultSet) FailedNodes() []NodeID {
	if f == nil {
		return nil
	}
	ls := f.nodes.Links()
	out := make([]NodeID, len(ls))
	for i, l := range ls {
		out[i] = NodeID(l)
	}
	return out
}

// Clone returns an independent copy, its route memo empty.
func (f *FaultSet) Clone() *FaultSet {
	if f == nil {
		return nil
	}
	cp := NewFaultSet(0, 0)
	cp.links.AddLinks(f.links.Links())
	for _, n := range f.nodes.Links() {
		cp.nodes.Add(n)
	}
	return cp
}

// String renders the fault population, e.g. "faults{links:3,17 nodes:5}".
func (f *FaultSet) String() string {
	if f.Empty() {
		return "faults{}"
	}
	var parts []string
	if ls := f.FailedLinks(); len(ls) > 0 {
		ss := make([]string, len(ls))
		for i, l := range ls {
			ss[i] = fmt.Sprintf("%d", l)
		}
		parts = append(parts, "links:"+strings.Join(ss, ","))
	}
	if ns := f.FailedNodes(); len(ns) > 0 {
		ss := make([]string, len(ns))
		for i, n := range ns {
			ss[i] = fmt.Sprintf("%d", n)
		}
		parts = append(parts, "nodes:"+strings.Join(ss, ","))
	}
	return "faults{" + strings.Join(parts, " ") + "}"
}

// Blocks returns a description of the first failed element the path
// crosses, walking source to destination, and whether one exists. Node
// faults are reported before the link that reaches them.
func (f *FaultSet) Blocks(t *Topology, p Path) (string, bool) {
	if f == nil {
		return "", false
	}
	for i, n := range p.Nodes {
		if f.NodeFailed(n) {
			return fmt.Sprintf("node %d failed", n), true
		}
		if i > 0 {
			if l, ok := t.LinkBetween(p.Nodes[i-1], n); ok && f.links.Has(l) {
				return fmt.Sprintf("link %d (%d-%d) failed", l, p.Nodes[i-1], n), true
			}
		}
	}
	return "", false
}

// NoRouteError reports that no usable path joins a node pair on the
// degraded topology.
type NoRouteError struct {
	Src, Dst NodeID
	Faults   string
}

func (e *NoRouteError) Error() string {
	return fmt.Sprintf("topology: no surviving route %d -> %d under %s", e.Src, e.Dst, e.Faults)
}

// SurvivingPaths enumerates up to max shortest paths from src to dst on
// the residual topology (failed links and nodes removed), in
// lexicographic node order. Because distances are recomputed on the
// residual graph, the enumeration naturally produces non-minimal
// detours when no fault-free minimal path survives: every returned path
// has the minimal number of hops that the degraded machine still
// admits. max <= 0 means no bound.
//
// Results are memoized per (src, dst, max) — fault-free ones on the
// Topology, the rest on fs until its next mutation — and shared: treat
// the returned paths as immutable. A *NoRouteError is returned when src
// or dst is dead or the residual graph disconnects them.
func (t *Topology) SurvivingPaths(src, dst NodeID, max int, fs *FaultSet) ([]Path, error) {
	paths, _, err := t.SurvivingRoutes(src, dst, max, fs)
	return paths, err
}

// SurvivingRoutes is SurvivingPaths plus, row for row, each path's link
// sequence (what Path.Links resolves), memoized with the paths and as
// immutable.
func (t *Topology) SurvivingRoutes(src, dst NodeID, max int, fs *FaultSet) ([]Path, [][]LinkID, error) {
	memo := &t.routes
	if fs.Empty() {
		fs = nil // every empty set is the fault-free machine, under one key
	} else {
		memo = &fs.routes
	}
	key := routeKey{t, src, dst, max}
	if cached, ok := memo.Load(key); ok {
		if cached == nil {
			return nil, nil, &NoRouteError{Src: src, Dst: dst, Faults: fs.String()}
		}
		r := cached.(*routes)
		return r.paths, r.links, nil
	}
	out, err := t.survivingPaths(src, dst, max, fs)
	if err != nil {
		memo.Store(key, nil)
		return nil, nil, err
	}
	r := t.resolve(out)
	memo.Store(key, r)
	return r.paths, r.links, nil
}

func (t *Topology) survivingPaths(src, dst NodeID, max int, fs *FaultSet) ([]Path, error) {
	if fs == nil {
		return t.shortestPaths(src, dst, max), nil // the addresses give the distances: no BFS
	}
	if fs.NodeFailed(src) || fs.NodeFailed(dst) {
		return nil, &NoRouteError{Src: src, Dst: dst, Faults: fs.String()}
	}
	if src == dst {
		return []Path{{Nodes: []NodeID{src}}}, nil
	}
	// Reverse BFS from dst over the residual graph: dist[u] is the
	// surviving hop count from u to dst, the DAG the enumeration walks.
	dist := make([]int, t.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []NodeID{dst}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.adj[u] {
			if dist[v] >= 0 || fs.NodeFailed(v) {
				continue
			}
			l, _ := t.LinkBetween(u, v)
			if !fs.LinkUsable(t, l) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	if dist[src] < 0 {
		return nil, &NoRouteError{Src: src, Dst: dst, Faults: fs.String()}
	}
	var out []Path
	prefix := []NodeID{src}
	var rec func(u NodeID)
	rec = func(u NodeID) {
		if max > 0 && len(out) >= max {
			return
		}
		if u == dst {
			out = append(out, Path{Nodes: append([]NodeID(nil), prefix...)})
			return
		}
		for _, v := range t.adj[u] {
			if dist[v] != dist[u]-1 {
				continue
			}
			l, _ := t.LinkBetween(u, v)
			if !fs.LinkUsable(t, l) {
				continue
			}
			prefix = append(prefix, v)
			rec(v)
			prefix = prefix[:len(prefix)-1]
			if max > 0 && len(out) >= max {
				return
			}
		}
	}
	rec(src)
	return out, nil
}

// RouteAround is the deterministic fault-aware route: the LSD-to-MSD
// path when it survives, otherwise the lexicographically first
// surviving shortest path of the residual topology (possibly a
// non-minimal detour relative to the fault-free machine).
func (t *Topology) RouteAround(src, dst NodeID, fs *FaultSet) (Path, error) {
	p := t.LSDToMSD(src, dst)
	if _, blocked := fs.Blocks(t, p); !blocked {
		return p, nil
	}
	paths, err := t.SurvivingPaths(src, dst, 1, fs)
	if err != nil {
		return Path{}, err
	}
	return paths[0], nil
}

// ParseLinkSpec resolves a "u-v" node-pair spec to the joining link,
// for CLI fault injection flags like -fail-link 0-1.
func (t *Topology) ParseLinkSpec(spec string) (LinkID, error) {
	us, vs, ok := strings.Cut(spec, "-")
	if !ok {
		return 0, fmt.Errorf("topology: link spec %q: want u-v", spec)
	}
	var u, v int
	if _, err := fmt.Sscanf(strings.TrimSpace(us), "%d", &u); err != nil {
		return 0, fmt.Errorf("topology: link spec %q: %w", spec, err)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(vs), "%d", &v); err != nil {
		return 0, fmt.Errorf("topology: link spec %q: %w", spec, err)
	}
	if u < 0 || u >= t.Nodes() || v < 0 || v >= t.Nodes() {
		return 0, fmt.Errorf("topology: link spec %q: node out of range [0,%d)", spec, t.Nodes())
	}
	l, ok := t.LinkBetween(NodeID(u), NodeID(v))
	if !ok {
		return 0, fmt.Errorf("topology: link spec %q: nodes %d and %d are not adjacent", spec, u, v)
	}
	return l, nil
}
