package schedule

import (
	"fmt"
	"slices"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// PathAssignment fixes one path per non-local message (the matrix B of
// Section 5.1, stored as per-message link sets).
type PathAssignment struct {
	// Paths[i] is the node path of message i; empty for local messages.
	Paths []topology.Path
	// Links[i] is the resolved link sequence of message i.
	Links [][]topology.LinkID
}

// Clone deep-copies the assignment (the heuristic mutates candidates).
func (pa *PathAssignment) Clone() *PathAssignment {
	cp := &PathAssignment{
		Paths: append([]topology.Path(nil), pa.Paths...),
		Links: make([][]topology.LinkID, len(pa.Links)),
	}
	copy(cp.Links, pa.Links)
	return cp
}

// copyFrom sets pa to src in pa's own arrays, which grow as needed.
func (pa *PathAssignment) copyFrom(src *PathAssignment) {
	pa.Paths = append(pa.Paths[:0], src.Paths...)
	pa.Links = append(pa.Links[:0], src.Links...)
}

// SetPath replaces message i's path.
func (pa *PathAssignment) SetPath(i tfg.MessageID, p topology.Path, links []topology.LinkID) {
	pa.Paths[i] = p
	pa.Links[i] = links
}

// sameLinks reports whether o, an assignment of the same messages,
// routes every one over the same links as pa.
func (pa *PathAssignment) sameLinks(o *PathAssignment) bool {
	if pa == o {
		return true
	}
	for i, links := range pa.Links {
		if !slices.Equal(links, o.Links[i]) {
			return false
		}
	}
	return true
}

// LSDAssignment routes every non-local message along its deterministic
// LSD-to-MSD path — the paper's baseline path selection.
func LSDAssignment(g *tfg.Graph, top *topology.Topology, as *alloc.Assignment, ws []Window) (*PathAssignment, error) {
	return FaultRouteAssignment(g, top, as, ws, nil)
}

// FaultRouteAssignment is the fault-aware deterministic baseline: every
// non-local message takes its LSD-to-MSD path when that path survives
// the fault set, and otherwise the lexicographically first surviving
// shortest path (topology.RouteAround). With a nil or empty fault set
// it is exactly LSDAssignment. A *topology.NoRouteError is returned
// when the residual topology disconnects a message's endpoints.
//
// The LSD rows are capped windows of one link slab and one node slab,
// sized by Distance, the nodes read off the links; a message whose LSD
// route a fault blocks takes the route memo's first surviving row
// instead, shared and immutable.
func FaultRouteAssignment(g *tfg.Graph, top *topology.Topology, as *alloc.Assignment, ws []Window, fs *topology.FaultSet) (*PathAssignment, error) {
	pa := &PathAssignment{
		Paths: make([]topology.Path, g.NumMessages()),
		Links: make([][]topology.LinkID, g.NumMessages()),
	}
	hops, routed := 0, 0
	for id := range g.NumMessages() {
		if m := g.Message(tfg.MessageID(id)); !ws[m.ID].Local {
			hops += top.Distance(as.Node(m.Src), as.Node(m.Dst))
			routed++
		}
	}
	nodes := make([]topology.NodeID, 0, hops+routed)
	links := make([]topology.LinkID, 0, hops)
	for id := range g.NumMessages() {
		m := g.Message(tfg.MessageID(id))
		if ws[m.ID].Local {
			continue
		}
		src, dst := as.Node(m.Src), as.Node(m.Dst)
		lf := len(links)
		links = top.AppendLSDLinks(links, src, dst)
		if fs.Survives(top, src, links[lf:]) {
			nf := len(nodes)
			nodes = top.AppendNodes(nodes, src, links[lf:])
			pa.Paths[m.ID].Nodes, pa.Links[m.ID] = nodes[nf:len(nodes):len(nodes)], links[lf:len(links):len(links)]
			continue
		}
		links = links[:lf]
		paths, ls, err := top.SurvivingRoutes(src, dst, 1, fs)
		if err != nil {
			return nil, fmt.Errorf("schedule: message %d: %w", m.ID, err)
		}
		pa.Paths[m.ID], pa.Links[m.ID] = paths[0], ls[0]
	}
	return pa, nil
}

// Candidates holds, per message, the equivalent shortest paths the
// AssignPaths heuristic may choose among.
type Candidates struct {
	// PathsOf[i] lists message i's alternative paths and LinksOf[i],
	// row for row, their link sequences: the route memo's own rows
	// (topology.SurvivingRoutes), shared and immutable.
	PathsOf [][]topology.Path
	LinksOf [][][]topology.LinkID
}

// BuildCandidates enumerates up to maxPaths equivalent shortest paths
// per non-local message.
func BuildCandidates(g *tfg.Graph, top *topology.Topology, as *alloc.Assignment, ws []Window, maxPaths int) (*Candidates, error) {
	return BuildCandidatesFault(g, top, as, ws, maxPaths, nil)
}

// BuildCandidatesFault enumerates up to maxPaths surviving shortest
// paths per non-local message on the residual topology; with a nil or
// empty fault set it is exactly BuildCandidates.
func BuildCandidatesFault(g *tfg.Graph, top *topology.Topology, as *alloc.Assignment, ws []Window, maxPaths int, fs *topology.FaultSet) (*Candidates, error) {
	if maxPaths < 1 {
		return nil, errkind.BadInput("schedule: maxPaths %d < 1", maxPaths)
	}
	c := &Candidates{
		PathsOf: make([][]topology.Path, g.NumMessages()),
		LinksOf: make([][][]topology.LinkID, g.NumMessages()),
	}
	for id := range g.NumMessages() {
		m := g.Message(tfg.MessageID(id))
		if ws[m.ID].Local {
			continue
		}
		paths, links, err := top.SurvivingRoutes(as.Node(m.Src), as.Node(m.Dst), maxPaths, fs)
		if err != nil {
			return nil, fmt.Errorf("schedule: message %d: %w", m.ID, err)
		}
		c.PathsOf[m.ID], c.LinksOf[m.ID] = paths, links
	}
	return c, nil
}

// Utilization aggregates the Section 5.1 measures for one assignment:
// per-link utilization U_j, per-spot no-slack counts U_jk, and the peak
// U that AssignPaths minimizes.
type Utilization struct {
	// LinkU[j] is U_j (0 for unused links).
	LinkU []float64
	// Peak is max(max_j U_j, max_{j,k} U_jk).
	Peak float64
	// PeakLink is the link attaining the peak.
	PeakLink topology.LinkID
	// PeakInterval is the interval of the peak spot, or -1 when the peak
	// comes from a link utilization rather than a hot-spot.
	PeakInterval int
}

// ComputeUtilization evaluates an assignment against the activity
// structure and message windows: the Utilization of a pooled arena's
// LoadState built for it, as reserveOf reads one, so a warm call
// allocates the LinkU slice and the Utilization and nothing else.
func ComputeUtilization(top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity) *Utilization {
	a := arenaPool.Get().(*solveArena)
	defer arenaPool.Put(a)
	return a.loadState(top, pa, ws, act, nil).Utilization()
}

// peakLowerBound is a node-degree lower bound on the peak of every
// assignment that gives each message its path in lsd or one of its
// candidates. Take an interval, a node and the n no-slack messages
// active in that interval that start at the node (or end there). Each
// leaves (enters) the node over the first (last) link of a path it may
// be given, so some link in the union of those links carries at least
// ⌈n / |union|⌉ of them in the interval, and that link's hot-spot count,
// which Options.LinkCap does not scale, is at least as much.
func peakLowerBound(lsd *PathAssignment, cands *Candidates, ws []Window, act *Activity) float64 {
	type end struct {
		node topology.NodeID
		last bool // the messages ending at node, over their paths' last links
	}
	bound := 0
	for k := 0; k < act.Intervals.K(); k++ {
		count := map[end]int{}
		links := map[end]map[topology.LinkID]bool{}
		for i, w := range ws {
			if w.Local || !w.NoSlack() || !act.Active[i][k] || len(lsd.Links[i]) == 0 {
				continue
			}
			paths := append([][]topology.LinkID{lsd.Links[i]}, cands.LinksOf[i]...)
			nodes := lsd.Paths[i].Nodes
			for _, e := range []end{{nodes[0], false}, {nodes[len(nodes)-1], true}} {
				count[e]++
				if links[e] == nil {
					links[e] = map[topology.LinkID]bool{}
				}
				for _, p := range paths {
					l := p[0]
					if e.last {
						l = p[len(p)-1]
					}
					links[e][l] = true
				}
			}
		}
		for e, n := range count {
			bound = max(bound, (n+len(links[e])-1)/len(links[e]))
		}
	}
	return float64(bound)
}
