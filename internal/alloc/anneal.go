package alloc

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// AnnealOptions tunes the simulated-annealing allocator.
type AnnealOptions struct {
	// Seed makes the search deterministic.
	Seed int64
	// Steps is the number of proposed moves (default 20000).
	Steps int
}

// startTemp and endTemp bound the geometric cooling schedule, in units
// of normalized cost.
const (
	startTemp = 1.0
	endTemp   = 0.001
)

// Anneal searches placements by simulated annealing, minimizing a
// contention proxy for scheduled routing: the sum of squared per-link
// byte loads under LSD-to-MSD routing. Squaring penalizes hot links —
// precisely what drives peak utilization, the quantity that decides
// whether a communication schedule exists. Moves swap two tasks or
// relocate a task to a free node; placements stay exclusive.
func Anneal(g *tfg.Graph, top *topology.Topology, opt AnnealOptions) (*Assignment, error) {
	return AnnealContext(context.Background(), g, top, opt)
}

// AnnealContext is Anneal under a context, polled every 1024 moves: a
// cancelled search returns ctx's error and no placement.
func AnnealContext(ctx context.Context, g *tfg.Graph, top *topology.Topology, opt AnnealOptions) (*Assignment, error) {
	best, _, err := anneal(ctx, g, top, opt)
	return best, err
}

// anneal also returns the link loads it ran on, those of the placement
// the walk ended at, for the tests to hold against a fresh build.
func anneal(ctx context.Context, g *tfg.Graph, top *topology.Topology, opt AnnealOptions) (*Assignment, *linkLoads, error) {
	if g.NumTasks() > top.Nodes() {
		return nil, nil, fmt.Errorf("alloc: %d tasks exceed %d nodes", g.NumTasks(), top.Nodes())
	}
	if opt.Steps == 0 {
		opt.Steps = 20000
	}
	if opt.Steps < 1 {
		return nil, nil, fmt.Errorf("alloc: non-positive step count %d", opt.Steps)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	cur, err := randomWith(rng, g, top, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	// The start drew from rng; the walk draws what a fresh source gives.
	rng.Seed(opt.Seed)

	nodeTask := make([]int, top.Nodes()) // node -> task+1, 0 = free
	for t, n := range cur.NodeOf {
		nodeTask[n] = t + 1
	}

	loads := newLinkLoads(g, top, cur.NodeOf)
	curCost := loads.cost()
	norm := curCost // normalizes temperatures to the initial cost scale
	if norm == 0 {
		return cur, loads, nil
	}
	best := &Assignment{NodeOf: append([]topology.NodeID(nil), cur.NodeOf...)}
	bestCost := curCost
	cooling := math.Pow(endTemp/startTemp, 1/float64(opt.Steps))
	temp := startTemp

	for step := 0; step < opt.Steps; step++ {
		if step%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		t1 := rng.Intn(g.NumTasks())
		n1 := cur.NodeOf[t1]
		n2 := topology.NodeID(rng.Intn(top.Nodes()))
		if n1 == n2 {
			temp *= cooling
			continue
		}
		occupant := nodeTask[n2] - 1
		// Apply: move t1 to n2, and the occupant (if any) to n1.
		cur.NodeOf[t1] = n2
		nodeTask[n2] = t1 + 1
		if occupant >= 0 {
			cur.NodeOf[occupant] = n1
			nodeTask[n1] = occupant + 1
		} else {
			nodeTask[n1] = 0
		}
		loads.reroute(t1, occupant)
		newCost := loads.cost()
		accept := newCost <= curCost
		if !accept {
			delta := (newCost - curCost) / norm
			accept = rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			loads.keep()
			curCost = newCost
			if curCost < bestCost {
				bestCost = curCost
				copy(best.NodeOf, cur.NodeOf)
			}
		} else {
			// Revert.
			cur.NodeOf[t1] = n1
			nodeTask[n1] = t1 + 1
			if occupant >= 0 {
				cur.NodeOf[occupant] = n2
				nodeTask[n2] = occupant + 1
			} else {
				nodeTask[n2] = 0
			}
			loads.undo()
		}
		temp *= cooling
	}
	return best, loads, nil
}

// LinkLoadCost exposes the annealer's objective for a given placement,
// so callers can compare allocator quality.
func LinkLoadCost(g *tfg.Graph, top *topology.Topology, a *Assignment) float64 {
	return newLinkLoads(g, top, a.NodeOf).cost()
}

// linkLoads is the annealer's objective, kept up to date move by move:
// the bytes every link carries when each message follows the LSD-to-MSD
// route between its tasks' nodes, and the sum of their squares. Loads
// are exact integers (the float64 sums they stand for are the same
// numbers below 2⁵³ bytes a link), so taking a route out and putting it
// back leaves no trace, and a move costs only the routes it changes.
type linkLoads struct {
	g      *tfg.Graph
	top    *topology.Topology
	nodeOf []topology.NodeID // the caller's placement, read at every reroute
	load   []int64           // per link
	sumSq  uint128           // Σ load², exact
	route  [][]topology.LinkID

	// The proposed move: the messages it touches, their new routes back
	// to back in next (each up to its end), and the stamp that stops a
	// message between the two moved tasks being touched twice.
	touched []touchedMessage
	next    []topology.LinkID
	stamp   []int
	moves   int
}

type touchedMessage struct {
	id  tfg.MessageID
	end int
}

// newLinkLoads routes every message of g under the placement nodeOf.
func newLinkLoads(g *tfg.Graph, top *topology.Topology, nodeOf []topology.NodeID) *linkLoads {
	hops, degree := top.Diameter(), 0
	for t := 0; t < g.NumTasks(); t++ {
		if d := len(g.Outgoing(tfg.TaskID(t))) + len(g.Incoming(tfg.TaskID(t))); d > degree {
			degree = d
		}
	}
	s := &linkLoads{
		g: g, top: top, nodeOf: nodeOf,
		load:  make([]int64, top.Links()),
		route: make([][]topology.LinkID, g.NumMessages()),
		// A move touches the messages of at most two tasks.
		touched: make([]touchedMessage, 0, 2*degree),
		next:    make([]topology.LinkID, 0, 2*degree*hops),
		stamp:   make([]int, g.NumMessages()),
	}
	slab := make([]topology.LinkID, g.NumMessages()*hops)
	for i := range s.route {
		m := g.Message(tfg.MessageID(i))
		s.route[i] = top.AppendLSDLinks(slab[i*hops:i*hops:(i+1)*hops], nodeOf[m.Src], nodeOf[m.Dst])
		s.add(s.route[i], m.Bytes)
	}
	return s
}

// cost returns Σ load² summed in link order in float64. While the exact
// sum is below 2⁵³ every square and every partial sum of that loop is an
// integer float64 holds exactly, so the loop would return exactly the
// integer already kept.
func (s *linkLoads) cost() float64 {
	if s.sumSq.hi == 0 && s.sumSq.lo < 1<<53 {
		return float64(s.sumSq.lo)
	}
	sum := 0.0
	for _, v := range s.load {
		sum += float64(v) * float64(v)
	}
	return sum
}

// add puts bytes more (fewer, when negative) on every link of a route.
func (s *linkLoads) add(links []topology.LinkID, bytes int64) {
	for _, l := range links {
		s.sumSq.subSquare(uint64(s.load[l]))
		s.load[l] += bytes
		s.sumSq.addSquare(uint64(s.load[l]))
	}
}

// reroute proposes a move: every message into or out of the moved
// tasks (b < 0: only a moved) leaves its current route and loads the
// one between its tasks' new nodes. keep or undo must follow.
func (s *linkLoads) reroute(a, b int) {
	s.moves++
	s.touched, s.next = s.touched[:0], s.next[:0]
	for _, t := range [2]int{a, b} {
		if t < 0 {
			continue
		}
		for _, ids := range [2][]tfg.MessageID{s.g.Outgoing(tfg.TaskID(t)), s.g.Incoming(tfg.TaskID(t))} {
			for _, id := range ids {
				if s.stamp[id] == s.moves {
					continue
				}
				s.stamp[id] = s.moves
				m := s.g.Message(id)
				from := len(s.next)
				s.next = s.top.AppendLSDLinks(s.next, s.nodeOf[m.Src], s.nodeOf[m.Dst])
				s.add(s.route[id], -m.Bytes)
				s.add(s.next[from:], m.Bytes)
				s.touched = append(s.touched, touchedMessage{id, len(s.next)})
			}
		}
	}
}

// keep makes the proposed routes the current ones.
func (s *linkLoads) keep() {
	from := 0
	for _, t := range s.touched {
		s.route[t.id] = append(s.route[t.id][:0], s.next[from:t.end]...)
		from = t.end
	}
}

// undo takes the proposed routes back out and reloads the current ones.
func (s *linkLoads) undo() {
	from := 0
	for _, t := range s.touched {
		bytes := s.g.Message(t.id).Bytes
		s.add(s.next[from:t.end], -bytes)
		s.add(s.route[t.id], bytes)
		from = t.end
	}
}

// uint128 holds a sum of squares of 64-bit loads without rounding.
type uint128 struct{ hi, lo uint64 }

func (x *uint128) addSquare(v uint64) {
	hi, lo := bits.Mul64(v, v)
	var carry uint64
	x.lo, carry = bits.Add64(x.lo, lo, 0)
	x.hi, _ = bits.Add64(x.hi, hi, carry)
}

func (x *uint128) subSquare(v uint64) {
	hi, lo := bits.Mul64(v, v)
	var borrow uint64
	x.lo, borrow = bits.Sub64(x.lo, lo, 0)
	x.hi, _ = bits.Sub64(x.hi, hi, borrow)
}
