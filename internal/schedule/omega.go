package schedule

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

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

// String renders the port: "AP", or "L" and the link id.
func (p Port) String() string {
	var buf [12]byte
	return string(appendPort(buf[:0], p))
}

// MarshalText writes the port as Ω's JSON carries it, the form String
// renders.
func (p Port) MarshalText() ([]byte, error) {
	// "L", a sign and LinkID's ten digits at most: one allocation.
	return appendPort(make([]byte, 0, 12), p), nil
}

// appendPort appends the port's text form, "AP" or "L<id>", to b. The
// artifact encoder writes every port through it in place.
func appendPort(b []byte, p Port) []byte {
	if p.AP {
		return append(b, "AP"...)
	}
	return strconv.AppendInt(append(b, 'L'), int64(p.Link), 10)
}

// UnmarshalText reads back what MarshalText writes.
func (p *Port) UnmarshalText(b []byte) error {
	if string(b) == "AP" {
		*p = Port{AP: true}
		return nil
	}
	rest, ok := strings.CutPrefix(string(b), "L")
	// Bit size 32 is the range check: an id past LinkID's width is
	// refused here instead of wrapping onto a link the topology has.
	l, err := strconv.ParseInt(rest, 10, 32)
	if !ok || err != nil || l < 0 {
		return fmt.Errorf("bad port %q", b)
	}
	*p = Port{Link: topology.LinkID(l)}
	return nil
}

// Command is one entry of a node switching schedule ω_i: during
// [Start, End) of every frame, connect In to Out to carry Msg. A command
// covers one run of its message's transmission: one slice, or several
// consecutive slices the message carries back to back.
type Command struct {
	Start float64       `json:"start"`
	End   float64       `json:"end"`
	Msg   tfg.MessageID `json:"msg"`
	In    Port          `json:"in"`
	Out   Port          `json:"out"`
}

// NodeSchedule is ω_i: the commands one CP executes each frame,
// sorted by start time.
type NodeSchedule struct {
	Node     topology.NodeID `json:"node"`
	Commands []Command       `json:"commands,omitempty"`
}

// Omega is the complete communication schedule Ω = {ω_i} plus the data
// needed to validate and execute it. Its json tags, and those of the
// types it holds, are the artifact's schema (omega_json.go); the fields
// are in the artifact's key order. The encoder, appendOmega, writes
// each field by hand: a field added to any of these types needs a line
// there too, or TestMarshalOmegaMatchesReference fails.
type Omega struct {
	TauIn float64 `json:"tau_in"`
	// Latency is the windowed pipeline latency Λ_w: every invocation
	// completes exactly this long after it starts.
	Latency float64 `json:"latency"`
	// Starts are the static task start times the windows were derived
	// from (invocation 0, absolute); nil means the default exclusive
	// PipelinedStart layout.
	Starts  []float64      `json:"starts,omitempty"`
	Windows []Window       `json:"windows"`
	Slices  []Slice        `json:"slices"`
	Nodes   []NodeSchedule `json:"nodes"`
}

// BuildOmega turns interval-schedule slices into per-node switching
// schedules: for each run of a message's transmission, the source CP
// connects its AP output buffer to the first link, intermediate CPs
// connect incoming to outgoing links, and the destination CP connects
// the last link to its AP input buffer. A path is fixed, so a slice
// that starts exactly where the message's previous slice ended repeats
// every hop's (In, Out, Msg): it extends those commands rather than
// adding new ones, and every command is a maximal run. Every node's
// list is sorted by (Start, Msg).
//
// Every command is written once. A forward pass over the frame marks
// which (slice, member) entries start a run and counts the commands per
// node, so each node's list is an exact-size window of one slab. A
// reverse pass carries each run's final End back to its start and
// writes the run's commands there. It visits slices in reverse frame
// order and each one's members in descending id, the (Start, Msg)
// order reversed, so writing from the back of each node's window
// leaves every list sorted.
func BuildOmega(sls []Slice, pa *PathAssignment, ws []Window, nodes int, tauIn, latency float64) *Omega {
	return buildOmega(new(omegaScratch), sls, pa, ws, nodes, tauIn, latency)
}

// omegaScratch is buildOmega's working storage, everything it does not
// return; a Solve takes it from its arena.
type omegaScratch struct {
	end       []float64
	starts    []uint64
	cursor    []int32
	open      []bool
	present   []uint64
	pos, next []int32
}

// buildOmega is BuildOmega with its working arrays in sc.
func buildOmega(sc *omegaScratch, sls []Slice, pa *PathAssignment, ws []Window, nodes int, tauIn, latency float64) *Omega {
	om := &Omega{
		TauIn:   tauIn,
		Nodes:   make([]NodeSchedule, nodes),
		Slices:  sls,
		Windows: ws,
		Latency: latency,
	}
	frame := inFrameOrder(sls)
	nm := len(pa.Links)
	// end[m] is, forward, where message m's latest span ends (NaN before
	// its first), so sl.Start == end[m] says the slice continues a run;
	// reverse, the End of the run being carried back (valid while
	// open[m]).
	sc.end = zeroed(sc.end, nm)
	end := sc.end
	for m := range end {
		end[m] = math.NaN()
	}
	entries, widest := 0, 0
	for _, sl := range frame {
		entries += len(sl.Msgs)
		widest = max(widest, len(sl.Msgs))
	}
	// starts has a bit per (slice, member) entry, the slices' members
	// laid end to end in frame order, set when the entry starts a run.
	sc.starts = zeroed(sc.starts, (entries+63)/64)
	sc.cursor = zeroed(sc.cursor, nodes)
	starts, cursor := sc.starts, sc.cursor
	e := 0
	for _, sl := range frame {
		for mi, msg := range sl.Msgs {
			if len(pa.Links[msg]) > 0 {
				if sl.Start != end[msg] {
					starts[(e+mi)/64] |= 1 << (uint(e+mi) % 64)
					for _, node := range pa.Paths[msg].Nodes {
						cursor[node]++
					}
				}
				end[msg] = sl.Until[mi]
			}
		}
		e += len(sl.Msgs)
	}
	total := int32(0)
	for n, c := range cursor {
		total += c
		cursor[n] = total // the end of node n's window
	}
	backing := make([]Command, total)

	sc.open = zeroed(sc.open, nm)
	open := sc.open
	// A slice's members by id: bit m of present and pos[m] the last
	// position m holds in the slice, next[mi] the one before mi (-1 for
	// none), should a slice name a message twice.
	sc.present = zeroed(sc.present, (nm+63)/64)
	sc.pos, sc.next = zeroed(sc.pos, nm), zeroed(sc.next, widest)
	present, pos, next := sc.present, sc.pos, sc.next
	for s := len(frame) - 1; s >= 0; s-- {
		sl := frame[s]
		e -= len(sl.Msgs)
		lo, hi := len(present), -1
		for mi, msg := range sl.Msgs {
			if len(pa.Links[msg]) == 0 {
				continue
			}
			w, bit := int(msg)/64, uint64(1)<<(uint(msg)%64)
			next[mi] = -1
			if present[w]&bit != 0 {
				next[mi] = pos[msg]
			}
			present[w] |= bit
			pos[msg] = int32(mi)
			lo, hi = min(lo, w), max(hi, w)
		}
		for w := hi; w >= lo; w-- {
			for word := present[w]; word != 0; {
				b := 63 - bits.LeadingZeros64(word)
				word &^= 1 << uint(b)
				msg := tfg.MessageID(w*64 + b)
				for mi := pos[msg]; mi >= 0; mi = next[mi] {
					if !open[msg] {
						end[msg], open[msg] = sl.Until[mi], true
					}
					if starts[(e+int(mi))/64]&(1<<(uint(e+int(mi))%64)) == 0 {
						continue
					}
					links, path := pa.Links[msg], pa.Paths[msg].Nodes
					for h := len(path) - 1; h >= 0; h-- {
						in, out := Port{AP: true}, Port{AP: true}
						if h > 0 && h <= len(links) {
							in = Port{Link: links[h-1]}
						}
						if h < len(links) {
							out = Port{Link: links[h]}
						}
						cursor[path[h]]--
						backing[cursor[path[h]]] = Command{Start: sl.Start, End: end[msg], Msg: msg, In: in, Out: out}
					}
					open[msg] = false
				}
			}
			present[w] = 0
		}
	}
	for n := range om.Nodes {
		om.Nodes[n].Node = topology.NodeID(n)
		lo, hi := cursor[n], total
		if n+1 < nodes {
			hi = cursor[n+1]
		}
		if hi > lo { // else keep Commands nil, matching decode round-trips
			om.Nodes[n].Commands = backing[lo:hi:hi]
		}
	}
	return om
}

// inFrameOrder returns the slices sorted by Start: sls itself when it
// already is, as every emitted Ω's slices are, else a sorted copy.
func inFrameOrder(sls []Slice) []Slice {
	byStart := func(a, b Slice) int { return cmp.Compare(a.Start, b.Start) }
	if slices.IsSortedFunc(sls, byStart) {
		return sls
	}
	sls = slices.Clone(sls)
	slices.SortStableFunc(sls, byStart)
	return sls
}

// Validate checks the three safety properties scheduled routing promises:
// every link carries at most one message at a time (contention-free and
// half-duplex safe), every transmission happens inside its message's
// window, and every message receives exactly its transmission time each
// frame, by its slices and by its source commands alike, with every hop
// switched when its source is. An Ω naming a node, message or link the
// topology and windows do not have is refused before any id is used as
// an index.
func (om *Omega) Validate(top *topology.Topology) error {
	sc := validatePool.Get().(*validateScratch)
	defer validatePool.Put(sc)
	nw, nl := len(om.Windows), top.Links()
	// The linkset table bounds every message and link id a command names.
	linksets, sent, negative, skewed := sc.linksets(om)
	switch {
	case negative < 0:
		return fmt.Errorf("schedule: a command switches unknown message %d", negative)
	case len(linksets) > nw:
		return fmt.Errorf("schedule: a command switches unknown message %d", len(linksets)-1)
	}
	for m, set := range linksets {
		for _, l := range set {
			if l < 0 || int(l) >= nl {
				return fmt.Errorf("schedule: message %d uses unknown link %d", m, l)
			}
		}
	}
	for _, ns := range om.Nodes {
		if ns.Node < 0 || int(ns.Node) >= top.Nodes() {
			return fmt.Errorf("schedule: schedule for unknown node %d", ns.Node)
		}
	}
	if skewed >= 0 {
		return fmt.Errorf("schedule: message %d's hop commands run at other times than its source commands", skewed)
	}
	got := zeroed(sc.got, nw)
	sc.got = got
	for _, sl := range om.Slices {
		for mi, msg := range sl.Msgs {
			if msg < 0 || int(msg) >= nw {
				return fmt.Errorf("schedule: slice carries unknown message %d", msg)
			}
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
		}
	}
	for i, w := range om.Windows {
		if w.Local {
			continue
		}
		if diff := got[i] - w.Xmit; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("schedule: message %d transmitted %g, needs %g", i, got[i], w.Xmit)
		}
		if diff := sent[i] - w.Xmit; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("schedule: message %d's source commands run %g, needs %g", i, sent[i], w.Xmit)
		}
	}

	// Contention: sweep the slices in Start order, keeping per link the
	// latest end seen so far and the message that holds it. A span that
	// starts before that end overlaps it; spans never wrap (slices live
	// inside single intervals).
	last := zeroed(sc.last, nl)
	sc.last = last
	for l := range last {
		last[l].end = math.Inf(-1)
	}
	for _, sl := range inFrameOrder(om.Slices) {
		for mi, msg := range sl.Msgs {
			for _, l := range linksets[msg] {
				if sl.Start < last[l].end-1e-6 {
					return fmt.Errorf("schedule: link %d carries messages %d and %d simultaneously", l, last[l].msg, msg)
				}
				if sl.Until[mi] > last[l].end {
					last[l].end, last[l].msg = sl.Until[mi], msg
				}
			}
		}
	}
	return nil
}

// Linksets returns, for every message, the links its commands connect,
// in ascending link order; row m has no entries when message m is local
// or unscheduled. The sets are derived from the node schedules, so
// validation and replay check the emitted Ω, not the intermediate
// structures. All rows are filled together — a counting pass and a
// filling pass over the commands — and share a single backing array.
func (om *Omega) Linksets() [][]topology.LinkID {
	sets, _, _, _ := new(validateScratch).linksets(om)
	return sets
}

// validateScratch is Validate's working storage: the linkset table
// linksets builds and the per-message and per-link arrays of the checks
// after it. Validate takes one from validatePool, so a warm call
// allocates nothing; Linksets fills a new one, whose rows its callers
// keep.
type validateScratch struct {
	cnt  []linksetCount
	sent []float64
	flat []topology.LinkID
	sets [][]topology.LinkID
	got  []float64 // per message, the time its slices transmit
	last []linkEnd // per link, the contention sweep's latest end
}

// linksetCount is one message's command tally in linksets.
type linksetCount struct {
	ports, sources int32
	skew           float64
}

// linkEnd is the latest end the contention sweep has seen on a link
// and the message that holds it.
type linkEnd struct {
	end float64
	msg tfg.MessageID
}

var validatePool = sync.Pool{New: func() any { return new(validateScratch) }}

// linksets is Linksets, in sc's arrays, plus, per message, the time its
// source commands run; a negative message id some command carries (0
// when none does): such a command has no row and is left out; and the
// first message whose hop commands run at other times than its source
// commands (-1 when none does).
func (sc *validateScratch) linksets(om *Omega) (sets [][]topology.LinkID, sent []float64, negative, skewed tfg.MessageID) {
	// Every run of a message repeats its commands — one of them at the
	// source, In on the AP — and names each link at both of its ends, so
	// link ports / (2 · source commands) is the message's hop count in
	// any Ω the pipeline emits. In any other it is a capacity hint: a row
	// that outgrows it moves off the backing array. cnt and sent grow
	// should a command name a message past the windows.
	//
	// Every command of a run spans the same [Start, End), so a message's
	// hop commands sum, over Start + End, to its hop count times its
	// source commands' sum; skew is the difference, built up across the
	// two passes (-sources here, × hops, + hops below).
	cnt := zeroed(sc.cnt, len(om.Windows))
	sent = zeroed(sc.sent, len(om.Windows))
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			if c.Msg < 0 {
				negative = c.Msg
				continue
			}
			if short := int(c.Msg) + 1 - len(cnt); short > 0 {
				cnt = append(cnt, make([]linksetCount, short)...)
				sent = append(sent, make([]float64, short)...)
			}
			k := &cnt[c.Msg]
			if c.In.AP {
				k.sources++
				k.skew -= c.Start + c.End
				sent[c.Msg] += c.End - c.Start
			} else {
				k.ports++
			}
			if !c.Out.AP {
				k.ports++
			}
		}
	}
	total := 0
	for m, k := range cnt {
		cnt[m].ports = k.ports / (2 * max(k.sources, 1))
		cnt[m].skew *= float64(cnt[m].ports)
		total += int(cnt[m].ports)
	}
	flat := zeroed(sc.flat, total)
	sets = zeroed(sc.sets, len(cnt))
	sc.cnt, sc.sent, sc.flat, sc.sets = cnt, sent, flat, sets
	off := 0
	for m, k := range cnt {
		sets[m] = flat[off : off : off+int(k.ports)]
		off += int(k.ports)
	}
	// A link shows up at both of its endpoints and once more per run;
	// rows stay path-length short, so a scan dedups them.
	add := func(msg tfg.MessageID, p Port) {
		if msg >= 0 && !p.AP && !slices.Contains(sets[msg], p.Link) {
			sets[msg] = append(sets[msg], p.Link)
		}
	}
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			add(c.Msg, c.In)
			add(c.Msg, c.Out)
			if c.Msg >= 0 && !c.In.AP {
				cnt[c.Msg].skew += c.Start + c.End
			}
		}
	}
	skewed = -1
	for m, set := range sets {
		slices.Sort(set)
		if skewed < 0 && math.Abs(cnt[m].skew) > 1e-6 {
			skewed = tfg.MessageID(m)
		}
	}
	return sets, sent, negative, skewed
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
