// Package tfg implements the task-flow graph model of Section 2 of the
// paper: a directed acyclic graph whose vertices are tasks (sequential
// operation counts) and whose edges are messages (byte counts). A TFG is
// invoked periodically; pipelining succeeds when the interval between
// successive outputs equals the invocation period for every pair of
// successive invocations (Eq. 1), and fails with output inconsistency
// otherwise.
package tfg

import (
	"fmt"
	"math"
)

// TaskID indexes a task within a Graph.
type TaskID int

// MessageID indexes a message within a Graph.
type MessageID int

// Task is one vertex of the TFG: a sequential block of Ops operations.
type Task struct {
	ID   TaskID
	Name string
	// Ops is C_i, the number of operations executed by the task.
	Ops int64
}

// Message is one edge of the TFG: Bytes bytes sent from Src to Dst at the
// end of Src's execution. Identical payloads to different destinations
// are distinct messages, as in the paper's model.
type Message struct {
	ID    MessageID
	Name  string
	Src   TaskID
	Dst   TaskID
	Bytes int64
}

// Graph is an immutable validated task-flow graph.
type Graph struct {
	name     string
	tasks    []Task
	messages []Message
	out      [][]MessageID // outgoing message IDs per task
	in       [][]MessageID // incoming message IDs per task
	topo     []TaskID      // topological order
}

// Builder accumulates tasks and messages and validates them into a Graph.
type Builder struct {
	name     string
	tasks    []Task
	messages []Message
	err      error
}

// NewBuilder starts a TFG under the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddTask appends a task and returns its ID.
func (b *Builder) AddTask(name string, ops int64) TaskID {
	if ops <= 0 && b.err == nil {
		b.err = fmt.Errorf("tfg: task %q has non-positive ops %d", name, ops)
	}
	id := TaskID(len(b.tasks))
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Ops: ops})
	return id
}

// AddMessage appends a message from src to dst and returns its ID.
func (b *Builder) AddMessage(name string, src, dst TaskID, bytes int64) MessageID {
	if b.err == nil {
		switch {
		case bytes <= 0:
			b.err = fmt.Errorf("tfg: message %q has non-positive size %d", name, bytes)
		case src == dst:
			b.err = fmt.Errorf("tfg: message %q is a self-loop on task %d", name, src)
		case int(src) >= len(b.tasks) || src < 0:
			b.err = fmt.Errorf("tfg: message %q references unknown source task %d", name, src)
		case int(dst) >= len(b.tasks) || dst < 0:
			b.err = fmt.Errorf("tfg: message %q references unknown destination task %d", name, dst)
		}
	}
	id := MessageID(len(b.messages))
	b.messages = append(b.messages, Message{ID: id, Name: name, Src: src, Dst: dst, Bytes: bytes})
	return id
}

// Build validates the accumulated structure (non-empty, acyclic) and
// returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("tfg: graph %q has no tasks", b.name)
	}
	g := &Graph{
		name:     b.name,
		tasks:    append([]Task(nil), b.tasks...),
		messages: append([]Message(nil), b.messages...),
		out:      make([][]MessageID, len(b.tasks)),
		in:       make([][]MessageID, len(b.tasks)),
	}
	for _, m := range g.messages {
		g.out[m.Src] = append(g.out[m.Src], m.ID)
		g.in[m.Dst] = append(g.in[m.Dst], m.ID)
	}
	topo, err := g.topoSort()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	return g, nil
}

func (g *Graph) topoSort() ([]TaskID, error) {
	indeg := make([]int, len(g.tasks))
	for _, m := range g.messages {
		indeg[m.Dst]++
	}
	var queue []TaskID
	for i := range g.tasks {
		if indeg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	var order []TaskID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, mid := range g.out[u] {
			d := g.messages[mid].Dst
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("tfg: graph %q contains a cycle", g.name)
	}
	return order, nil
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// NumTasks returns the task count N_t.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumMessages returns the message count N_m.
func (g *Graph) NumMessages() int { return len(g.messages) }

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Message returns the message with the given ID.
func (g *Graph) Message(id MessageID) Message { return g.messages[id] }

// Tasks returns all tasks (copy).
func (g *Graph) Tasks() []Task { return append([]Task(nil), g.tasks...) }

// Messages returns all messages (copy).
func (g *Graph) Messages() []Message { return append([]Message(nil), g.messages...) }

// Outgoing returns the IDs of messages leaving task t (shared slice).
func (g *Graph) Outgoing(t TaskID) []MessageID { return g.out[t] }

// Incoming returns the IDs of messages entering task t (shared slice).
func (g *Graph) Incoming(t TaskID) []MessageID { return g.in[t] }

// InputTasks returns the tasks with no predecessors; they start on each
// external input arrival.
func (g *Graph) InputTasks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.in[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// OutputTasks returns the tasks with no successors; the invocation
// completes when all of them complete.
func (g *Graph) OutputTasks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.out[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TopoOrder returns a topological order of the tasks (copy).
func (g *Graph) TopoOrder() []TaskID { return append([]TaskID(nil), g.topo...) }

// Precedes reports whether a path of messages leads from a to b (strict:
// Precedes(x,x) is false).
func (g *Graph) Precedes(a, b TaskID) bool {
	if a == b {
		return false
	}
	seen := make([]bool, len(g.tasks))
	stack := []TaskID{a}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, mid := range g.out[u] {
			d := g.messages[mid].Dst
			if d == b {
				return true
			}
			if !seen[d] {
				seen[d] = true
				stack = append(stack, d)
			}
		}
	}
	return false
}

// Timing binds a Graph to concrete execution and transmission times.
type Timing struct {
	// ExecTime[t] is the execution time of task t in microseconds.
	ExecTime []float64
	// XmitTime[m] is the transmission time of message m in microseconds
	// at the bound link bandwidth.
	XmitTime []float64
}

// NewTiming derives per-task and per-message times from processing
// speeds and link bandwidth. speed is ops/µs applied to every task;
// bandwidth is bytes/µs on every link.
func NewTiming(g *Graph, speed, bandwidth float64) (*Timing, error) {
	if speed <= 0 {
		return nil, fmt.Errorf("tfg: non-positive processing speed %g", speed)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("tfg: non-positive bandwidth %g", bandwidth)
	}
	tm := &Timing{
		ExecTime: make([]float64, g.NumTasks()),
		XmitTime: make([]float64, g.NumMessages()),
	}
	for i, t := range g.tasks {
		tm.ExecTime[i] = float64(t.Ops) / speed
	}
	for i, m := range g.messages {
		tm.XmitTime[i] = float64(m.Bytes) / bandwidth
	}
	return tm, nil
}

// NewUniformTiming gives every task execution time exec and derives
// message times from bandwidth. This matches the paper's Section 6
// simplification that all tasks take the same time (the throughput is
// set by the longest task; shorter tasks merely underutilize their APs).
func NewUniformTiming(g *Graph, exec, bandwidth float64) (*Timing, error) {
	if exec <= 0 {
		return nil, fmt.Errorf("tfg: non-positive exec time %g", exec)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("tfg: non-positive bandwidth %g", bandwidth)
	}
	tm := &Timing{
		ExecTime: make([]float64, g.NumTasks()),
		XmitTime: make([]float64, g.NumMessages()),
	}
	for i := range tm.ExecTime {
		tm.ExecTime[i] = exec
	}
	for i, m := range g.messages {
		tm.XmitTime[i] = float64(m.Bytes) / bandwidth
	}
	return tm, nil
}

// TauC returns τ_c, the processing time of the longest task.
func (tm *Timing) TauC() float64 {
	max := 0.0
	for _, e := range tm.ExecTime {
		if e > max {
			max = e
		}
	}
	return max
}

// TauM returns τ_m, the transmission time of the longest message (0 when
// the graph has no messages).
func (tm *Timing) TauM() float64 {
	max := 0.0
	for _, x := range tm.XmitTime {
		if x > max {
			max = x
		}
	}
	return max
}

// CriticalPath returns Λ, the maximum over input→output chains of the
// summed task execution and message transmission times, together with
// one realizing chain of task IDs.
func (g *Graph) CriticalPath(tm *Timing) (float64, []TaskID) {
	best := make([]float64, len(g.tasks))
	from := make([]TaskID, len(g.tasks))
	for i := range from {
		from[i] = -1
	}
	for _, u := range g.topo {
		best[u] += tm.ExecTime[u]
		for _, mid := range g.out[u] {
			m := g.messages[mid]
			cand := best[u] + tm.XmitTime[mid]
			if cand > best[m.Dst] {
				best[m.Dst] = cand
				from[m.Dst] = u
			}
		}
	}
	length, end := math.Inf(-1), TaskID(-1)
	for i := range g.tasks {
		if len(g.out[i]) == 0 && best[i] > length {
			length, end = best[i], TaskID(i)
		}
	}
	var chain []TaskID
	for t := end; t != -1; t = from[t] {
		chain = append(chain, t)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return length, chain
}

// PipelinedStart computes, for pipelining with message windows of length
// window (the paper uses window = τ_c, "each message transmission as
// long as the longest task"), the absolute start time of each task:
// input tasks start at 0; every other task starts when the windows of
// all its incoming messages close.
func (g *Graph) PipelinedStart(tm *Timing, window float64) []float64 {
	start := make([]float64, len(g.tasks))
	for _, u := range g.topo {
		for _, mid := range g.out[u] {
			m := g.messages[mid]
			cand := start[u] + tm.ExecTime[u] + window
			if cand > start[m.Dst] {
				start[m.Dst] = cand
			}
		}
	}
	return start
}

// LatencyOf computes the invocation latency implied by explicit static
// start times: the maximum over output tasks of start+exec.
func (g *Graph) LatencyOf(tm *Timing, start []float64) float64 {
	max := 0.0
	for i := range g.tasks {
		if len(g.out[i]) == 0 {
			if f := start[i] + tm.ExecTime[i]; f > max {
				max = f
			}
		}
	}
	return max
}

// PipelinedStartShared computes static task start times when several
// tasks may share an application processor — the "node scheduling" step
// of the paper's mapping chain. Tasks are placed in topological order
// at the earliest time that satisfies both their precedence (inputs'
// windows closed, as in PipelinedStart) and their AP's availability:
// because the TFG executes once per period, a node's tasks must occupy
// disjoint sub-intervals of the frame circle [0, tauIn). nodeOf maps
// each task to its AP; an error is returned when some AP's total
// execution demand exceeds the period (no static schedule can exist).
func (g *Graph) PipelinedStartShared(tm *Timing, window float64, nodeOf []int, tauIn float64) ([]float64, error) {
	if len(nodeOf) != len(g.tasks) {
		return nil, fmt.Errorf("tfg: nodeOf covers %d tasks, graph has %d", len(nodeOf), len(g.tasks))
	}
	if tauIn <= 0 {
		return nil, fmt.Errorf("tfg: non-positive period %g", tauIn)
	}
	demand := map[int]float64{}
	for i := range g.tasks {
		demand[nodeOf[i]] += tm.ExecTime[i]
	}
	// In task order, so the node an error names does not depend on map
	// iteration.
	for _, node := range nodeOf {
		if d := demand[node]; d > tauIn+1e-9 {
			return nil, fmt.Errorf("tfg: node %d needs %g µs of processing per %g µs period", node, d, tauIn)
		}
	}

	type span struct{ a, e float64 } // frame-relative [a, a+e)
	occupied := map[int][]span{}
	fmodp := func(x float64) float64 {
		r := math.Mod(x, tauIn)
		if r < 0 {
			r += tauIn
		}
		return r
	}
	start := make([]float64, len(g.tasks))
	for _, t := range g.topo {
		ready := 0.0
		for _, mid := range g.in[t] {
			src := g.messages[mid].Src
			if c := start[src] + tm.ExecTime[src] + window; c > ready {
				ready = c
			}
		}
		exec := tm.ExecTime[t]
		node := nodeOf[t]
		s := ready
		for iter := 0; iter <= len(occupied[node])+1; iter++ {
			conflictEnd, conflict := 0.0, false
			for _, sp := range occupied[node] {
				// Distance from the span start to the candidate on the
				// circle.
				d := fmodp(s - sp.a)
				if d < sp.e-1e-9 {
					// Candidate begins inside the span.
					conflict = true
					if adv := sp.e - d; adv > conflictEnd {
						conflictEnd = adv
					}
				} else if tauIn-d < exec-1e-9 {
					// Candidate wraps into the span.
					conflict = true
					if adv := tauIn - d + sp.e; adv > conflictEnd {
						conflictEnd = adv
					}
				}
			}
			if !conflict {
				break
			}
			s += conflictEnd
		}
		// Final verification that a slot was found.
		for _, sp := range occupied[node] {
			d := fmodp(s - sp.a)
			if d < sp.e-1e-9 || tauIn-d < exec-1e-9 {
				return nil, fmt.Errorf("tfg: no AP slot for task %d on node %d within period %g", t, node, tauIn)
			}
		}
		start[t] = s
		occupied[node] = append(occupied[node], span{a: fmodp(s), e: exec})
	}
	return start, nil
}
