package topology

import (
	"fmt"
	"strings"
)

// Path is a node sequence from source to destination along adjacent
// nodes. A path visiting a single node (source == destination) carries
// no links.
type Path struct {
	Nodes []NodeID
}

// Hops returns the number of links traversed.
func (p Path) Hops() int { return len(p.Nodes) - 1 }

// Links resolves the path's node sequence to link IDs on t.
func (p Path) Links(t *Topology) ([]LinkID, error) {
	out := make([]LinkID, 0, p.Hops())
	for i := 0; i+1 < len(p.Nodes); i++ {
		id, ok := t.LinkBetween(p.Nodes[i], p.Nodes[i+1])
		if !ok {
			return nil, fmt.Errorf("topology: path step %d: nodes %d and %d are not adjacent", i, p.Nodes[i], p.Nodes[i+1])
		}
		out = append(out, id)
	}
	return out, nil
}

// String renders the path as "0->5->7".
func (p Path) String() string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, "->")
}

// Validate checks that the path's consecutive nodes are adjacent on t
// and that no node repeats.
func (p Path) Validate(t *Topology) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("topology: empty path")
	}
	seen := make(map[NodeID]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if n < 0 || int(n) >= t.Nodes() {
			return fmt.Errorf("topology: path node %d out of range", n)
		}
		if seen[n] {
			return fmt.Errorf("topology: path revisits node %d", n)
		}
		seen[n] = true
		if i > 0 {
			if _, ok := t.LinkBetween(p.Nodes[i-1], n); !ok {
				return fmt.Errorf("topology: path nodes %d and %d not adjacent", p.Nodes[i-1], n)
			}
		}
	}
	return nil
}

// LSDToMSD returns the deterministic dimension-order path from src to
// dst: the source address is corrected one dimension at a time starting
// from the least significant digit, exactly the deadlock-free route the
// paper attributes to wormhole routing. In a GHC each correction is a
// single hop; in a torus or mesh the digit walks along the ring (shortest
// direction, positive on ties). The nodes are AppendNodes' over
// AppendLSDLinks' links, which a route of up to 64 hops keeps on the
// stack, so the path is all it allocates.
func (t *Topology) LSDToMSD(src, dst NodeID) Path {
	var buf [64]LinkID
	links := t.AppendLSDLinks(buf[:0], src, dst)
	return Path{Nodes: t.AppendNodes(make([]NodeID, 0, len(links)+1), src, links)}
}

// AppendNodes appends the nodes of the route from src over links, src
// first, to buf and returns the extended slice: each link leads from
// the node before it to its other end. Nothing is allocated unless buf
// has to grow.
func (t *Topology) AppendNodes(buf []NodeID, src NodeID, links []LinkID) []NodeID {
	buf = append(buf, src)
	for _, l := range links {
		if lk := t.links[l]; lk.A == src {
			src = lk.B
		} else {
			src = lk.A
		}
		buf = append(buf, src)
	}
	return buf
}

// AppendLSDLinks appends the links of the LSD-to-MSD route from src to
// dst to buf and returns the extended slice. The digits are peeled
// arithmetically and each hop is one read of the link index, so nothing
// is allocated unless buf has to grow.
func (t *Topology) AppendLSDLinks(buf []LinkID, src, dst NodeID) []LinkID {
	cur := int(src)
	x, y := int(src), int(dst)
	for dim := 0; x != y; dim++ {
		m := t.radices[dim]
		a, b := x%m, y%m
		x, y = x/m, y/m
		if a == b {
			continue
		}
		stride, off := t.strides[dim], t.hopOff[dim]
		if t.kind == KindGHC {
			buf = append(buf, t.hop[cur*t.hopRow+off+b])
			cur += (b - a) * stride
			continue
		}
		// A ring is walked the shorter way round, up on a tie (no hop
		// along the way reverses the choice), a line toward b; the up
		// link is slot 0 of the index, the down link slot 1.
		up := b > a
		if t.kind == KindTorus {
			up = (b-a+m)%m <= (a-b+m)%m
		}
		slot, step := 0, 1
		if !up {
			slot, step = 1, -1
		}
		for a != b {
			buf = append(buf, t.hop[cur*t.hopRow+off+slot])
			a, cur = a+step, cur+step*stride
			if a == m {
				a, cur = 0, cur-m*stride
			} else if a < 0 {
				a, cur = m-1, cur+m*stride
			}
		}
	}
	return buf
}

// ShortestPaths enumerates equivalent shortest paths from src to dst in
// lexicographic node order, stopping after max paths (max <= 0 means no
// bound). The enumeration walks the shortest-path DAG implied by the
// address structure, so every returned path has exactly Distance(src,
// dst) hops. Results are memoized per (src, dst, max) and shared across
// callers — treat the returned paths as immutable.
func (t *Topology) ShortestPaths(src, dst NodeID, max int) []Path {
	paths, _, _ := t.SurvivingRoutes(src, dst, max, nil) // fault-free: never a NoRouteError
	return paths
}
