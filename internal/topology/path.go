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

// Source returns the first node of the path.
func (p Path) Source() NodeID { return p.Nodes[0] }

// Dest returns the last node of the path.
func (p Path) Dest() NodeID { return p.Nodes[len(p.Nodes)-1] }

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

// Equal reports whether both paths visit the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	return true
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

// ValidateFault checks the path against both the topology (Validate)
// and a fault set: a path crossing a failed link or node fails with an
// error naming the first failed element encountered walking source to
// destination. A nil fault set degenerates to Validate.
func (p Path) ValidateFault(t *Topology, fs *FaultSet) error {
	if err := p.Validate(t); err != nil {
		return err
	}
	if desc, blocked := fs.Blocks(t, p); blocked {
		return fmt.Errorf("topology: path %s crosses %s", p, desc)
	}
	return nil
}

// LSDToMSD returns the deterministic dimension-order path from src to
// dst: the source address is corrected one dimension at a time starting
// from the least significant digit, exactly the deadlock-free route the
// paper attributes to wormhole routing. In a GHC each correction is a
// single hop; in a torus or mesh the digit walks along the ring (shortest
// direction, positive on ties). The node list is AppendLSDNodes' into a
// slice sized from Distance, so the path is all it allocates.
func (t *Topology) LSDToMSD(src, dst NodeID) Path {
	return Path{Nodes: t.AppendLSDNodes(make([]NodeID, 0, t.Distance(src, dst)+1), src, dst)}
}

// AppendLSDNodes appends the nodes of the LSD-to-MSD route from src to
// dst, src first, to buf and returns the extended slice. The digits are
// peeled arithmetically, as in AppendLSDLinks, so nothing is allocated
// unless buf has to grow.
func (t *Topology) AppendLSDNodes(buf []NodeID, src, dst NodeID) []NodeID {
	buf = append(buf, src)
	cur, x, y := int(src), int(src), int(dst)
	for dim := 0; x != y; dim++ {
		m := t.radices[dim]
		a, b := x%m, y%m
		x, y = x/m, y/m
		for a != b {
			next := t.dimStep(dim, a, b)
			cur += (next - a) * t.strides[dim]
			a = next
			buf = append(buf, NodeID(cur))
		}
	}
	return buf
}

// AppendLSDLinks appends the links of the LSD-to-MSD route from src to
// dst — what LSDToMSD(src, dst).Links(t) resolves to — to buf and
// returns the extended slice. The digits are peeled arithmetically and
// each hop is one read of the link index, so nothing is allocated
// unless buf has to grow.
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
		// A ring is walked the shorter way round (dimStep's choice,
		// which no hop along the way reverses), a line toward b; the
		// up link is slot 0 of the index, the down link slot 1.
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

// dimStep returns the next digit value moving from a toward b along
// dimension dim by one hop.
func (t *Topology) dimStep(dim, a, b int) int {
	m := t.radices[dim]
	switch t.kind {
	case KindGHC:
		return b
	case KindTorus:
		fwd := (b - a + m) % m
		bwd := (a - b + m) % m
		if fwd <= bwd {
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
