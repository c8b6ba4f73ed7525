package schedule

import (
	"fmt"
	"slices"

	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// Port is a crossbar endpoint at a communication processor: one of the
// node's link channels, or the application-processor buffer.
type Port struct {
	// AP is true for the application-processor buffer port.
	AP bool
	// Link is the link channel when AP is false.
	Link topology.LinkID
}

// String renders the port.
func (p Port) String() string {
	if p.AP {
		return "AP"
	}
	return fmt.Sprintf("L%d", p.Link)
}

// Command is one entry of a node switching schedule ω_i: during
// [Start, End) of every frame, connect In to Out to carry Msg.
type Command struct {
	Start float64
	End   float64
	Msg   tfg.MessageID
	In    Port
	Out   Port
}

// NodeSchedule is ω_i: the commands one CP executes each frame,
// sorted by start time.
type NodeSchedule struct {
	Node     topology.NodeID
	Commands []Command
}

// Omega is the complete communication schedule Ω = {ω_i} plus the data
// needed to validate and execute it.
type Omega struct {
	TauIn   float64
	Nodes   []NodeSchedule
	Slices  []Slice
	Windows []Window
	// Latency is the windowed pipeline latency Λ_w: every invocation
	// completes exactly this long after it starts.
	Latency float64
	// Starts are the static task start times the windows were derived
	// from (invocation 0, absolute); nil means the default exclusive
	// PipelinedStart layout.
	Starts []float64
}

// BuildOmega turns interval-schedule slices into per-node switching
// schedules: for each slice and each message, the source CP connects its
// AP output buffer to the first link, intermediate CPs connect incoming
// to outgoing links, and the destination CP connects the last link to
// its AP input buffer.
func BuildOmega(sls []Slice, pa *PathAssignment, ws []Window, nodes int, tauIn, latency float64) *Omega {
	om := &Omega{
		TauIn:   tauIn,
		Nodes:   make([]NodeSchedule, nodes),
		Slices:  sls,
		Windows: ws,
		Latency: latency,
	}
	// Count commands per node first so every node's command list is an
	// exact-size window of one shared backing array.
	counts := make([]int32, nodes)
	total := 0
	for _, sl := range sls {
		for _, msg := range sl.Msgs {
			if len(pa.Links[msg]) == 0 {
				continue
			}
			for _, node := range pa.Paths[msg].Nodes {
				counts[node]++
				total++
			}
		}
	}
	backing := make([]Command, total)
	off := 0
	for n := range om.Nodes {
		om.Nodes[n].Node = topology.NodeID(n)
		if counts[n] == 0 {
			continue // keep Commands nil, matching decode round-trips
		}
		end := off + int(counts[n])
		om.Nodes[n].Commands = backing[off:off:end]
		off = end
	}
	add := func(n topology.NodeID, c Command) {
		om.Nodes[n].Commands = append(om.Nodes[n].Commands, c)
	}
	for _, sl := range sls {
		for mi, msg := range sl.Msgs {
			end := sl.Until[mi]
			path := pa.Paths[msg]
			links := pa.Links[msg]
			if len(links) == 0 {
				continue
			}
			for h, node := range path.Nodes {
				var in, out Port
				switch {
				case h == 0:
					in = Port{AP: true}
					out = Port{Link: links[0]}
				case h == len(path.Nodes)-1:
					in = Port{Link: links[h-1]}
					out = Port{AP: true}
				default:
					in = Port{Link: links[h-1]}
					out = Port{Link: links[h]}
				}
				add(node, Command{Start: sl.Start, End: end, Msg: msg, In: in, Out: out})
			}
		}
	}
	for n := range om.Nodes {
		sortCommands(om.Nodes[n].Commands)
	}
	return om
}

// sortCommands orders one node's commands by (Start, Msg). No node sees
// the same (Start, Msg) twice — a path visits a node once and distinct
// slices start at distinct times — so the key is a strict total order
// and any correct sort yields the same permutation. Slices arrive in
// frame order, which leaves a node's list non-decreasing in Start with
// only the runs of equal Start (one slice's messages) out of order, so
// one pass sorts those runs; a list that is not in frame order gets the
// full sort.
func sortCommands(cmds []Command) {
	lo := 0
	for i := 1; i <= len(cmds); i++ {
		if i < len(cmds) && cmds[i].Start < cmds[i-1].Start {
			slices.SortFunc(cmds, cmpCommand)
			return
		}
		if i == len(cmds) || cmds[i].Start != cmds[lo].Start {
			slices.SortFunc(cmds[lo:i], cmpCommand)
			lo = i
		}
	}
}

// cmpCommand orders commands by (Start, Msg) without the per-node
// interface and closure allocations of sort.Slice.
func cmpCommand(a, b Command) int {
	switch {
	case a.Start < b.Start:
		return -1
	case a.Start > b.Start:
		return 1
	case a.Msg < b.Msg:
		return -1
	case a.Msg > b.Msg:
		return 1
	}
	return 0
}

// Validate checks the three safety properties scheduled routing promises:
// every link carries at most one message at a time (contention-free and
// half-duplex safe), every transmission happens inside its message's
// window, and every message receives exactly its transmission time each
// frame.
func (om *Omega) Validate(top *topology.Topology) error {
	nw := len(om.Windows)
	got := make([]float64, nw)

	linksets := om.Linksets()

	spanCnt := make([]int32, top.Links())
	for _, sl := range om.Slices {
		for mi, msg := range sl.Msgs {
			w := om.Windows[msg]
			start, end := sl.Start, sl.Until[mi]
			if end < start-timeEps {
				return fmt.Errorf("schedule: slice for message %d ends before it starts", msg)
			}
			if !w.Contains(start, om.TauIn) {
				return fmt.Errorf("schedule: message %d transmits at frame %g outside window", msg, start)
			}
			off := w.frameOffset(start, om.TauIn) + (end - start)
			if w.Length < om.TauIn-timeEps && off > w.Length+1e-6 {
				return fmt.Errorf("schedule: message %d transmission runs %g past its window", msg, off-w.Length)
			}
			got[msg] += end - start
			for _, l := range linksets[msg] {
				spanCnt[l]++
			}
		}
	}
	for i, w := range om.Windows {
		if w.Local {
			continue
		}
		if diff := got[i] - w.Xmit; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("schedule: message %d transmitted %g, needs %g", i, got[i], w.Xmit)
		}
	}

	// Per-link span lists as exact-size windows of one flat array;
	// spans never wrap (slices live inside single intervals).
	spanOff := make([]int32, top.Links()+1)
	for l := 0; l < top.Links(); l++ {
		spanOff[l+1] = spanOff[l] + spanCnt[l]
	}
	spans := make([]valSpan, spanOff[top.Links()])
	cursor := spanCnt
	for l := range cursor {
		cursor[l] = spanOff[l]
	}
	for _, sl := range om.Slices {
		for mi, msg := range sl.Msgs {
			for _, l := range linksets[msg] {
				spans[cursor[l]] = valSpan{sl.Start, sl.Until[mi], msg}
				cursor[l]++
			}
		}
	}
	for l := 0; l < top.Links(); l++ {
		ls := spans[spanOff[l]:spanOff[l+1]]
		slices.SortFunc(ls, func(a, b valSpan) int {
			switch {
			case a.start < b.start:
				return -1
			case a.start > b.start:
				return 1
			}
			return 0
		})
		for i := 1; i < len(ls); i++ {
			if ls[i].start < ls[i-1].end-1e-6 {
				return fmt.Errorf("schedule: link %d carries messages %d and %d simultaneously", l, ls[i-1].msg, ls[i].msg)
			}
		}
	}
	return nil
}

type valSpan struct {
	start, end float64
	msg        tfg.MessageID
}

// Linksets returns, for every message, the links its commands connect,
// in ascending link order; row m has no entries when message m is local
// or unscheduled. The sets are derived from the node schedules, so
// validation and replay check the emitted Ω, not the intermediate
// structures. All rows are filled together — a counting pass and a
// filling pass over the commands — and share a single backing array.
func (om *Omega) Linksets() [][]topology.LinkID {
	// Link-port counts bound each message's row; off grows should a
	// command name a message past the windows.
	off := make([]int32, len(om.Windows)+1)
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			if short := int(c.Msg) + 2 - len(off); short > 0 {
				off = append(off, make([]int32, short)...)
			}
			if !c.In.AP {
				off[c.Msg+1]++
			}
			if !c.Out.AP {
				off[c.Msg+1]++
			}
		}
	}
	n := len(off) - 1
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	flat := make([]topology.LinkID, off[n])
	sets := make([][]topology.LinkID, n)
	for i := range sets {
		sets[i] = flat[off[i]:off[i]:off[i+1]]
	}
	// A link shows up at both of its endpoints and once more per slice;
	// rows stay path-length short, so a scan dedups them.
	add := func(msg tfg.MessageID, p Port) {
		if !p.AP && !slices.Contains(sets[msg], p.Link) {
			sets[msg] = append(sets[msg], p.Link)
		}
	}
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			add(c.Msg, c.In)
			add(c.Msg, c.Out)
		}
	}
	for _, set := range sets {
		slices.Sort(set)
	}
	return sets
}

// Linkset returns message msg's row of Linksets; callers that need more
// than one message should take the table instead.
func (om *Omega) Linkset(msg tfg.MessageID) []topology.LinkID {
	sets := om.Linksets()
	if int(msg) >= len(sets) {
		return nil
	}
	return slices.Clone(sets[msg])
}

// CommandsAt returns node n's switching schedule.
func (om *Omega) CommandsAt(n topology.NodeID) []Command {
	return om.Nodes[n].Commands
}

// NumCommands returns the total command count across all CPs, a proxy
// for the schedule's hardware footprint.
func (om *Omega) NumCommands() int {
	total := 0
	for _, ns := range om.Nodes {
		total += len(ns.Commands)
	}
	return total
}
