// Package alloc places TFG tasks onto multicomputer nodes. The paper
// treats allocation as an input fixed before routing ("locations of the
// sources and destinations of messages ... are fixed by task
// allocation"); this package provides deterministic allocators so that
// the wormhole baseline and scheduled routing are compared on identical
// placements.
package alloc

import (
	"fmt"
	"math/rand"

	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// Assignment maps every task to the node hosting it.
type Assignment struct {
	// NodeOf[t] is the node executing task t.
	NodeOf []topology.NodeID
}

// Node returns the node hosting task t.
func (a *Assignment) Node(t tfg.TaskID) topology.NodeID { return a.NodeOf[t] }

// Validate checks the assignment covers every task with an in-range
// node. When exclusive is true it additionally requires at most one task
// per node, the regime the paper's scheduled-routing time bounds assume
// (one application processor per task).
func (a *Assignment) Validate(g *tfg.Graph, top *topology.Topology, exclusive bool) error {
	if len(a.NodeOf) != g.NumTasks() {
		return fmt.Errorf("alloc: assignment covers %d tasks, graph has %d", len(a.NodeOf), g.NumTasks())
	}
	used := make(map[topology.NodeID]tfg.TaskID)
	for t, n := range a.NodeOf {
		if n < 0 || int(n) >= top.Nodes() {
			return fmt.Errorf("alloc: task %d assigned to node %d outside topology of %d nodes", t, n, top.Nodes())
		}
		if prev, ok := used[n]; ok && exclusive {
			return fmt.Errorf("alloc: tasks %d and %d share node %d under exclusive placement", prev, t, n)
		}
		used[n] = tfg.TaskID(t)
	}
	return nil
}

// RoundRobin assigns tasks to nodes 0,1,2,... in topological order. It
// fails when the graph has more tasks than the topology has nodes.
func RoundRobin(g *tfg.Graph, top *topology.Topology) (*Assignment, error) {
	if g.NumTasks() > top.Nodes() {
		return nil, fmt.Errorf("alloc: %d tasks exceed %d nodes", g.NumTasks(), top.Nodes())
	}
	a := &Assignment{NodeOf: make([]topology.NodeID, g.NumTasks())}
	for i, t := range g.TopoOrder() {
		a.NodeOf[t] = topology.NodeID(i)
	}
	return a, nil
}

// Random assigns tasks to distinct nodes uniformly at random,
// deterministically for a given seed.
func Random(g *tfg.Graph, top *topology.Topology, seed int64) (*Assignment, error) {
	if g.NumTasks() > top.Nodes() {
		return nil, fmt.Errorf("alloc: %d tasks exceed %d nodes", g.NumTasks(), top.Nodes())
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(top.Nodes())
	a := &Assignment{NodeOf: make([]topology.NodeID, g.NumTasks())}
	for t := 0; t < g.NumTasks(); t++ {
		a.NodeOf[t] = topology.NodeID(perm[t])
	}
	return a, nil
}

// Greedy places tasks in topological order, each on the free node that
// minimizes the summed distance to its already-placed predecessors
// (ties broken by node ID; the first task goes to node 0). This is the
// default allocator of the reproduction's experiments: it keeps
// communicating tasks close, the setting in which wormhole routing's
// link sharing — and hence output inconsistency — actually arises.
func Greedy(g *tfg.Graph, top *topology.Topology) (*Assignment, error) {
	if g.NumTasks() > top.Nodes() {
		return nil, fmt.Errorf("alloc: %d tasks exceed %d nodes", g.NumTasks(), top.Nodes())
	}
	a := &Assignment{NodeOf: make([]topology.NodeID, g.NumTasks())}
	placed := make([]bool, g.NumTasks())
	usedNode := make([]bool, top.Nodes())
	for _, t := range g.TopoOrder() {
		bestNode, bestCost := topology.NodeID(-1), int(^uint(0)>>1)
		for n := 0; n < top.Nodes(); n++ {
			if usedNode[n] {
				continue
			}
			cost := 0
			for _, mid := range g.Incoming(t) {
				src := g.Message(mid).Src
				if placed[src] {
					cost += top.Distance(a.NodeOf[src], topology.NodeID(n))
				}
			}
			if cost < bestCost {
				bestCost, bestNode = cost, topology.NodeID(n)
			}
		}
		a.NodeOf[t] = bestNode
		placed[t] = true
		usedNode[bestNode] = true
	}
	return a, nil
}
