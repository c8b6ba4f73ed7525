package topology

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"schedroute/internal/memo"
)

// FaultSet records the failed links and nodes of a degraded machine as
// two ascending lists; a fault population is a handful of elements, so
// a membership test is a binary search of a few entries. The zero value
// is an empty set, and a nil *FaultSet everywhere means "no faults".
//
// FaultSet is not safe for concurrent mutation, but a set that is no
// longer being mutated may be shared by any number of concurrent
// readers (the survivability sweep does exactly that).
type FaultSet struct {
	links []LinkID // ascending
	nodes []NodeID // ascending

	// routes memoizes Topology.SurvivingRoutes around this population.
	// Enumerations are a function of (topology, what is broken), so the
	// set owns them: a mutation starts the memo over, Clone leaves it
	// behind, and it is collected with the set. Made wherever a
	// population is set, never by a reader; an empty set never reads it.
	routes memo.Cache[routeKey, *routes]
}

// NewFaultSet returns an empty fault set.
func NewFaultSet() *FaultSet { return new(FaultSet) }

// FailLink marks l failed.
func (f *FaultSet) FailLink(l LinkID) {
	f.routes = newRouteMemo()
	f.links = insertSorted(f.links, l)
}

// FailNode marks n failed; every link incident on n is implicitly
// unusable (a dead CP can switch nothing), which LinkUsable reflects.
func (f *FaultSet) FailNode(n NodeID) {
	f.routes = newRouteMemo()
	f.nodes = insertSorted(f.nodes, n)
}

// RepairLink returns l to service.
func (f *FaultSet) RepairLink(l LinkID) {
	f.routes = newRouteMemo()
	f.links = removeSorted(f.links, l)
}

// RepairNode returns n to service.
func (f *FaultSet) RepairNode(n NodeID) {
	f.routes = newRouteMemo()
	f.nodes = removeSorted(f.nodes, n)
}

// has, insertSorted and removeSorted keep an ascending list a set.
func has[E cmp.Ordered](s []E, e E) bool {
	_, ok := slices.BinarySearch(s, e)
	return ok
}

func insertSorted[E cmp.Ordered](s []E, e E) []E {
	if i, ok := slices.BinarySearch(s, e); !ok {
		s = slices.Insert(s, i, e)
	}
	return s
}

func removeSorted[E cmp.Ordered](s []E, e E) []E {
	if i, ok := slices.BinarySearch(s, e); ok {
		s = slices.Delete(s, i, i+1)
	}
	return s
}

// LinkFailed reports whether l itself is marked failed (node-induced
// unusability is LinkUsable's job).
func (f *FaultSet) LinkFailed(l LinkID) bool {
	return f != nil && has(f.links, l)
}

// NodeFailed reports whether n is failed.
func (f *FaultSet) NodeFailed(n NodeID) bool {
	return f != nil && has(f.nodes, n)
}

// LinkUsable reports whether l can carry traffic on t: the link is not
// failed and neither endpoint CP is dead.
func (f *FaultSet) LinkUsable(t *Topology, l LinkID) bool {
	if f.Empty() {
		return true
	}
	lk := t.Link(l)
	return !f.LinkFailed(l) && !f.NodeFailed(lk.A) && !f.NodeFailed(lk.B)
}

// Empty reports whether no element is failed.
func (f *FaultSet) Empty() bool {
	return f == nil || len(f.links)+len(f.nodes) == 0
}

// FailedLinks returns the explicitly failed links in ascending order.
func (f *FaultSet) FailedLinks() []LinkID {
	if f == nil {
		return nil
	}
	return slices.Clone(f.links)
}

// FailedNodes returns the failed nodes in ascending order.
func (f *FaultSet) FailedNodes() []NodeID {
	if f == nil {
		return nil
	}
	return slices.Clone(f.nodes)
}

// Clone returns an independent copy, its route memo empty.
func (f *FaultSet) Clone() *FaultSet {
	if f == nil {
		return nil
	}
	return &FaultSet{links: slices.Clone(f.links), nodes: slices.Clone(f.nodes), routes: newRouteMemo()}
}

func newRouteMemo() memo.Cache[routeKey, *routes] { return memo.New[routeKey, *routes](routeMemoCap) }

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

// Survives reports whether the route from src over links — every node
// after src ends one of the links — crosses no failed node or link.
func (f *FaultSet) Survives(t *Topology, src NodeID, links []LinkID) bool {
	if f.NodeFailed(src) {
		return false
	}
	for _, l := range links {
		if !f.LinkUsable(t, l) {
			return false
		}
	}
	return true
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
	m := &t.routes
	if !fs.Empty() { // every empty set is the fault-free machine, on t's memo
		m = &fs.routes
	}
	r, _, err := m.Get(routeKey{t, src, dst, max}, func() (*routes, error) {
		paths, err := t.walk(src, dst, max, fs)
		if err != nil {
			return nil, err
		}
		return t.resolve(paths), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return r.paths, r.links, nil
}

// walk enumerates up to max shortest src -> dst paths in lexicographic
// node order over the DAG of nodes one hop nearer dst. Fault-free (fs
// empty), the addresses give each node's distance (Distance); otherwise
// a reverse BFS over the residual graph does, and links fs makes
// unusable are skipped.
func (t *Topology) walk(src, dst NodeID, max int, fs *FaultSet) ([]Path, error) {
	if fs.NodeFailed(src) || fs.NodeFailed(dst) {
		return nil, &NoRouteError{Src: src, Dst: dst, Faults: fs.String()}
	}
	if src == dst {
		return []Path{{Nodes: []NodeID{src}}}, nil
	}
	faulted := !fs.Empty()
	dist := func(u NodeID) int { return t.Distance(u, dst) }
	if faulted {
		d := t.residualDistances(dst, fs)
		if d[src] < 0 {
			return nil, &NoRouteError{Src: src, Dst: dst, Faults: fs.String()}
		}
		dist = func(u NodeID) int { return d[u] }
	}
	var out []Path
	prefix := []NodeID{src}
	var rec func(u NodeID)
	rec = func(u NodeID) {
		if max > 0 && len(out) >= max {
			return
		}
		if u == dst {
			out = append(out, Path{Nodes: slices.Clip(slices.Clone(prefix))})
			return
		}
		remain := dist(u)
		for _, v := range t.adj[u] {
			if dist(v) != remain-1 {
				continue
			}
			if faulted {
				if l, _ := t.LinkBetween(u, v); !fs.LinkUsable(t, l) {
					continue
				}
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
	return slices.Clip(out), nil
}

// residualDistances is a reverse BFS from dst over the residual graph:
// entry u is the surviving hop count from u to dst, -1 when none.
func (t *Topology) residualDistances(dst NodeID, fs *FaultSet) []int {
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
			if l, _ := t.LinkBetween(u, v); !fs.LinkUsable(t, l) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	return dist
}

// RouteAround is the deterministic fault-aware route: the LSD-to-MSD
// path when it survives, otherwise the lexicographically first
// surviving shortest path of the residual topology (possibly a
// non-minimal detour relative to the fault-free machine).
func (t *Topology) RouteAround(src, dst NodeID, fs *FaultSet) (Path, error) {
	if fs.Survives(t, src, t.AppendLSDLinks(nil, src, dst)) {
		return t.LSDToMSD(src, dst), nil
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
