package schedule

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// ringOmega builds a tiny hand-made Ω on an 8-node ring: one message
// from node 0 to node 2 via node 1, transmitted in [0, 8) of a 20 µs
// frame.
func ringOmega(t testing.TB) (*Omega, *topology.Topology, *PathAssignment) {
	t.Helper()
	top, err := topology.NewTorus(8)
	if err != nil {
		t.Fatal(err)
	}
	p := top.LSDToMSD(0, 2)
	links, err := p.Links(top)
	if err != nil {
		t.Fatal(err)
	}
	pa := &PathAssignment{
		Paths: []topology.Path{p},
		Links: [][]topology.LinkID{links},
	}
	ws := []Window{{Release: 0, Length: 10, AbsRelease: 0, Xmit: 8}}
	slices := []Slice{{Interval: 0, Start: 0, End: 8, Msgs: []tfg.MessageID{0}, Until: []float64{8}}}
	om := BuildOmega(slices, pa, ws, top.Nodes(), 20, 30)
	return om, top, pa
}

func TestBuildOmegaCommandShape(t *testing.T) {
	om, top, pa := ringOmega(t)
	if err := om.Validate(top); err != nil {
		t.Fatal(err)
	}
	// Source node 0: AP -> first link.
	src := om.CommandsAt(0)
	if len(src) != 1 || !src[0].In.AP || src[0].Out.AP {
		t.Errorf("source commands = %+v", src)
	}
	if src[0].Out.Link != pa.Links[0][0] {
		t.Errorf("source out link = %v", src[0].Out)
	}
	// Intermediate node 1: link -> link.
	mid := om.CommandsAt(1)
	if len(mid) != 1 || mid[0].In.AP || mid[0].Out.AP {
		t.Errorf("intermediate commands = %+v", mid)
	}
	// Destination node 2: last link -> AP.
	dst := om.CommandsAt(2)
	if len(dst) != 1 || dst[0].In.AP || !dst[0].Out.AP {
		t.Errorf("destination commands = %+v", dst)
	}
	// Untouched node has no commands.
	if len(om.CommandsAt(5)) != 0 {
		t.Error("node 5 should be idle")
	}
	if om.NumCommands() != 3 {
		t.Errorf("NumCommands = %d, want 3", om.NumCommands())
	}
}

func TestOmegaValidateCatchesLinkCollision(t *testing.T) {
	om, top, _ := ringOmega(t)
	// Add a second message using the same links at an overlapping time.
	om.Windows = append(om.Windows, Window{Release: 0, Length: 10, AbsRelease: 0, Xmit: 4})
	bad := om.Slices[0]
	bad.Msgs = []tfg.MessageID{1}
	bad.Until = []float64{4}
	bad.End = 4
	om.Slices = append(om.Slices, bad)
	// Mirror the node commands so linksets resolve.
	for n := range om.Nodes {
		var extra []Command
		for _, c := range om.Nodes[n].Commands {
			c2 := c
			c2.Msg = 1
			c2.End = 4
			extra = append(extra, c2)
		}
		om.Nodes[n].Commands = append(om.Nodes[n].Commands, extra...)
	}
	if err := om.Validate(top); err == nil {
		t.Error("overlapping transmissions on one link must fail validation")
	}
}

func TestOmegaValidateCatchesWindowEscape(t *testing.T) {
	om, top, _ := ringOmega(t)
	om.Windows[0].Release = 15 // frame image [15, 25)→ wraps to [15,20]∪[0,5]
	om.Windows[0].Length = 10
	// The slice at [0,8) now runs 3 µs past the wrapped deadline at 5.
	if err := om.Validate(top); err == nil {
		t.Error("transmission past the window must fail validation")
	}
}

func TestOmegaValidateCatchesWrongTotal(t *testing.T) {
	om, top, _ := ringOmega(t)
	om.Windows[0].Xmit = 6 // slice transmits 8
	if err := om.Validate(top); err == nil {
		t.Error("over-transmission must fail validation")
	}
	om.Windows[0].Xmit = 9.5 // slice transmits only 8
	if err := om.Validate(top); err == nil {
		t.Error("under-transmission must fail validation")
	}
}

// validateReference is Validate as it stood before the per-link sweep:
// the same per-(slice, message) and per-command totals, then every span
// counted into a per-link table, each link's spans sorted by start and
// adjacent spans compared. Kept as the oracle the sweep is checked
// against.
func validateReference(om *Omega, top *topology.Topology) error {
	nw := len(om.Windows)
	got := make([]float64, nw)
	sent := make([]float64, nw)
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			if c.In.AP {
				sent[c.Msg] += c.End - c.Start
			}
		}
	}

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
		if math.Abs(sent[i]-w.Xmit) > 1e-6 {
			return fmt.Errorf("schedule: message %d's source commands run %g, needs %g", i, sent[i], w.Xmit)
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

// contentionWitnessed reports whether err, if it is a contention error,
// names a link both messages use and two of their spans that overlap on
// it: one starting inside the other by more than the tolerance.
func contentionWitnessed(om *Omega, err error) (contention, witnessed bool) {
	var l topology.LinkID
	var a, b tfg.MessageID
	if err == nil {
		return false, false
	}
	if n, _ := fmt.Sscanf(err.Error(), "schedule: link %d carries messages %d and %d simultaneously", &l, &a, &b); n != 3 {
		return false, false
	}
	sets := om.Linksets()
	if !slices.Contains(sets[a], l) || !slices.Contains(sets[b], l) {
		return true, false
	}
	for i, first := range om.Slices {
		for mi, m := range first.Msgs {
			if m != a {
				continue
			}
			for j, second := range om.Slices {
				for mj, m := range second.Msgs {
					if m == b && (i != j || mi != mj) && first.Start <= second.Start && second.Start < first.Until[mi]-1e-6 {
						return true, true
					}
				}
			}
		}
	}
	return true, false
}

// TestValidateSweepMatchesSpanSort corrupts feasible Ωs one random edit
// at a time and requires the sweep and the span-sort reference to agree
// on every verdict, and every contention error from either to name a
// real overlap. Half the trials re-balance each window's Xmit to what
// the corrupted slices carry, so the totals check passes and the
// contention check is the one that decides.
func TestValidateSweepMatchesSpanSort(t *testing.T) {
	tops := solverGoldenTopologies(t)
	rng := rand.New(rand.NewSource(18))
	contended := 0
	for _, name := range []string{"6cube", "torus88", "ghc444"} {
		top := tops[name]
		// The most loaded feasible point of the grid: the busier the
		// links, the more corruptions end in contention.
		var res *Result
		for k := 0; k <= 11 && (res == nil || !res.Feasible); k++ {
			var err error
			if res, err = Compute(dvbProblem(t, top, 128, gridTauIn(k)), Options{Seed: 1}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if !res.Feasible {
			t.Fatalf("%s: no feasible fixture", name)
		}
		for trial := 0; trial < 400; trial++ {
			om := *res.Omega
			om.Windows = slices.Clone(om.Windows)
			om.Slices = slices.Clone(om.Slices)
			for i := range om.Slices {
				om.Slices[i].Until = slices.Clone(om.Slices[i].Until)
			}
			om.Nodes = slices.Clone(om.Nodes)
			for n := range om.Nodes {
				om.Nodes[n].Commands = slices.Clone(om.Nodes[n].Commands)
			}
			sl := &om.Slices[rng.Intn(len(om.Slices))]
			edit := rng.Intn(6)
			switch edit {
			case 0: // shift a slice's Start
				sl.Start += (rng.Float64() - 0.5) * om.TauIn / 4
			case 1: // move a whole slice
				d := (rng.Float64() - 0.5) * om.TauIn / 4
				sl.Start += d
				for mi := range sl.Until {
					sl.Until[mi] += d
				}
			case 2: // stretch an Until
				sl.Until[rng.Intn(len(sl.Until))] += rng.Float64() * om.TauIn / 4
			case 3: // swap one command's link for another at its node
				for {
					n := topology.NodeID(rng.Intn(len(om.Nodes)))
					cmds := om.Nodes[n].Commands
					if len(cmds) == 0 {
						continue
					}
					c := &cmds[rng.Intn(len(cmds))]
					port := &c.In
					if port.AP {
						port = &c.Out
					}
					for {
						l := topology.LinkID(rng.Intn(top.Links()))
						if lk := top.Link(l); lk.A == n || lk.B == n {
							port.Link = l
							break
						}
					}
					break
				}
			case 4: // reverse the slice order
				slices.Reverse(om.Slices)
			case 5: // drop a slice
				i := rng.Intn(len(om.Slices))
				om.Slices = append(om.Slices[:i], om.Slices[i+1:]...)
			}
			if trial%2 == 0 {
				was := make([]float64, len(om.Windows))
				for m := range om.Windows {
					was[m], om.Windows[m].Xmit = om.Windows[m].Xmit, 0
				}
				for _, sl := range om.Slices {
					for mi, m := range sl.Msgs {
						om.Windows[m].Xmit += sl.Until[mi] - sl.Start
					}
				}
				// One run per message absorbs the change, its source
				// command and every hop's alike, so the command-time
				// checks pass as well.
				type run struct{ start, end float64 }
				absorb := map[tfg.MessageID]run{}
				for n := range om.Nodes {
					for _, cmd := range om.Nodes[n].Commands {
						if _, ok := absorb[cmd.Msg]; !ok && cmd.In.AP && om.Windows[cmd.Msg].Xmit != was[cmd.Msg] {
							absorb[cmd.Msg] = run{cmd.Start, cmd.End}
						}
					}
				}
				for n := range om.Nodes {
					for c := range om.Nodes[n].Commands {
						cmd := &om.Nodes[n].Commands[c]
						if r, ok := absorb[cmd.Msg]; ok && cmd.Start == r.start && cmd.End == r.end {
							cmd.End += om.Windows[cmd.Msg].Xmit - was[cmd.Msg]
						}
					}
				}
			}
			got, want := om.Validate(top), validateReference(&om, top)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s trial %d edit %d: sweep says %v, span sort says %v", name, trial, edit, got, want)
			}
			for _, err := range []error{got, want} {
				contention, witnessed := contentionWitnessed(&om, err)
				if contention && !witnessed {
					t.Fatalf("%s trial %d edit %d: no such overlap: %v", name, trial, edit, err)
				}
				if contention {
					contended++
				}
			}
		}
	}
	if contended < 400 {
		t.Fatalf("only %d contention verdicts: the corruptions no longer reach the contention check", contended)
	}
}

// TestCommandStaysNarrow pins the record sizes: an Ω on a 1000-node
// machine holds several hundred thousand commands, so a field that
// re-widens them costs megabytes per solve.
func TestCommandStaysNarrow(t *testing.T) {
	if got := unsafe.Sizeof(Command{}); got != 40 {
		t.Errorf("Command is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Port{}); got != 8 {
		t.Errorf("Port is %d bytes, want 8", got)
	}
}

// linksetReference is Linksets' row for one message as first written:
// one scan of every command per message, the links collected in a set
// and read back in ascending order.
func linksetReference(om *Omega, msg tfg.MessageID) []topology.LinkID {
	seen := map[topology.LinkID]bool{}
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			if c.Msg != msg {
				continue
			}
			for _, p := range []Port{c.In, c.Out} {
				if !p.AP {
					seen[p.Link] = true
				}
			}
		}
	}
	links := make([]topology.LinkID, 0, len(seen))
	for l := range seen {
		links = append(links, l)
	}
	slices.Sort(links)
	return links
}

// TestOmegaLinksetsMatchesPerMessageScan checks the one-pass table
// against the per-message scan on the standard configurations at their
// lowest load (the two B=64 tori are infeasible at every load and emit
// no Ω) and on a faulted one, local messages included; then on Ωs no
// pipeline emits, where the row sizes are estimates the rows outgrow.
func TestOmegaLinksetsMatchesPerMessageScan(t *testing.T) {
	// checkSets returns how many rows name a link.
	checkSets := func(name string, om *Omega, rows int) int {
		t.Helper()
		sets := om.Linksets()
		if len(sets) != rows {
			t.Fatalf("%s: %d linksets, want %d", name, len(sets), rows)
		}
		routed := 0
		for m := range sets {
			want := linksetReference(om, tfg.MessageID(m))
			if !slices.Equal(sets[m], want) {
				t.Fatalf("%s: Linksets()[%d] = %v, per-message scan %v", name, m, sets[m], want)
			}
			if len(want) > 0 {
				routed++
			}
		}
		return routed
	}
	checked := 0
	check := func(name string, p Problem) {
		t.Helper()
		res, err := Compute(p, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Feasible {
			return
		}
		checked++
		if checkSets(name, res.Omega, len(res.Windows)) == 0 {
			t.Fatalf("%s: no message crosses a link", name)
		}
	}
	for name, top := range solverGoldenTopologies(t) {
		for _, bw := range []float64{64, 128} {
			check(fmt.Sprintf("%s-b%g", name, bw), dvbProblem(t, top, bw, gridTauIn(11)))
		}
	}
	top := sixCube(t)
	p := dvbProblem(t, top, 64, gridTauIn(11))
	p.Faults = topology.NewFaultSet()
	p.Faults.FailLink(0)
	check("6cube-faulted", p)
	if checked != 7 {
		t.Fatalf("%d configurations emitted an Ω to check, want 7", checked)
	}

	om, _, pa := ringOmega(t)
	if sets := om.Linksets(); checkSets("ring", om, 1) != 1 || len(sets[0]) != len(pa.Links[0]) {
		t.Fatalf("ring: linksets %v, path links %v", sets, pa.Links[0])
	}
	// A decoded Ω may carry commands for a message it has no window for;
	// the table still covers it, and ends at the last message named.
	om.Windows = nil
	checkSets("ring without windows", om, 1)
	// Message 0's second slice runs over other links than its first (its
	// row holds four links where the estimate is two hops), message 3 has
	// commands but no source command, messages 1 and 2 have none at all.
	om.Nodes[4].Commands = []Command{
		{Start: 10, End: 12, Msg: 0, In: Port{AP: true}, Out: Port{Link: 5}},
		{Start: 10, End: 12, Msg: 3, In: Port{Link: 6}, Out: Port{Link: 7}},
	}
	om.Nodes[5].Commands = []Command{
		{Start: 10, End: 12, Msg: 0, In: Port{Link: 5}, Out: Port{Link: 4}},
		{Start: 10, End: 12, Msg: 3, In: Port{Link: 7}, Out: Port{Link: 1}},
	}
	om.Nodes[6].Commands = []Command{{Start: 10, End: 12, Msg: 0, In: Port{Link: 4}, Out: Port{AP: true}}}
	if checkSets("rows outgrow their estimate", om, 4) != 2 {
		t.Fatal("malformed Ω: want links on messages 0 and 3 only")
	}
}

// TestOmegaCommandsAreMaximalRuns holds every command to one maximal
// run of its message's transmission. For every (node, message) on the
// message's path, the node's commands for it, in order, are exactly the
// union of the message's slice spans: so they are disjoint, and no two
// abut. The cases are the standard configurations at their lowest load
// (the two B=64 tori emit no Ω), a layered graph on the 8x8 torus, and a
// sync margin, whose guard gaps leave nothing to merge.
func TestOmegaCommandsAreMaximalRuns(t *testing.T) {
	type span struct{ start, end float64 }
	checked, perSlice, emitted := 0, 0, 0
	check := func(name string, p Problem, opt Options) {
		t.Helper()
		res, err := Compute(p, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Feasible {
			return
		}
		checked++
		om, pa := res.Omega, res.Assignment
		// Each message's slice spans, unioned into maximal runs.
		runs := make([][]span, len(om.Windows))
		for _, sl := range om.Slices {
			for mi, m := range sl.Msgs {
				if len(pa.Links[m]) == 0 {
					continue
				}
				perSlice += len(pa.Links[m]) + 1
				r := runs[m]
				if n := len(r); n > 0 && sl.Start <= r[n-1].end {
					r[n-1].end = max(r[n-1].end, sl.Until[mi])
				} else {
					r = append(r, span{sl.Start, sl.Until[mi]})
				}
				runs[m] = r
			}
		}
		emitted += om.NumCommands()
		for _, ns := range om.Nodes {
			got := map[tfg.MessageID][]span{}
			for _, c := range ns.Commands {
				got[c.Msg] = append(got[c.Msg], span{c.Start, c.End})
			}
			for m, r := range runs {
				if len(r) == 0 || !slices.Contains(pa.Paths[m].Nodes, ns.Node) {
					continue
				}
				if !slices.Equal(got[tfg.MessageID(m)], r) {
					t.Fatalf("%s: node %d message %d: commands %v, slice runs %v", name, ns.Node, m, got[tfg.MessageID(m)], r)
				}
				delete(got, tfg.MessageID(m))
			}
			for m := range got {
				t.Fatalf("%s: node %d switches message %d, which is not on its path", name, ns.Node, m)
			}
		}
	}
	for name, top := range solverGoldenTopologies(t) {
		for _, bw := range []float64{64, 128} {
			check(fmt.Sprintf("%s-b%g", name, bw), dvbProblem(t, top, bw, gridTauIn(11)), Options{Seed: 1})
		}
	}
	if checked != 6 {
		t.Fatalf("%d standard configurations emitted an Ω, want 6", checked)
	}
	torus, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tfg.RandomLayered(7, []int{8, 16, 16, 16, 8}, 100, 100, 256, 3200, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 512)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.Random(g, torus, 7)
	if err != nil {
		t.Fatal(err)
	}
	check("layered-torus88", Problem{Graph: g, Timing: tm, Topology: torus, Assignment: as, TauIn: 100}, Options{Seed: 1})
	check("6cube-b128-margin", dvbProblem(t, sixCube(t), 128, gridTauIn(8)), Options{Seed: 1, SyncMargin: 2})
	if checked != 8 {
		t.Fatalf("%d cases emitted an Ω, want 8", checked)
	}
	if emitted >= perSlice {
		t.Fatalf("%d commands for %d (slice, hop) pairs: no run was merged", emitted, perSlice)
	}
}

// TestValidateRejectsMistimedCommands holds Validate to the commands'
// own times, not only to the slices': a source command cut short or run
// long no longer delivers the message's transmission time.
func TestValidateRejectsMistimedCommands(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 128, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil || !res.Feasible {
		t.Fatalf("setup: %v %v", err, res.FailStage)
	}
	if err := res.Omega.Validate(p.Topology); err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{-0.5, 0.5} {
		om := *res.Omega
		om.Nodes = slices.Clone(om.Nodes)
		edited := false
		for n := range om.Nodes {
			om.Nodes[n].Commands = slices.Clone(om.Nodes[n].Commands)
			for c := range om.Nodes[n].Commands {
				if cmd := &om.Nodes[n].Commands[c]; !edited && cmd.In.AP && cmd.End-cmd.Start > 1 {
					cmd.End += delta
					edited = true
				}
			}
		}
		if !edited {
			t.Fatal("no source command to edit")
		}
		if err := om.Validate(p.Topology); err == nil {
			t.Errorf("a source command %+g µs off its slices passed validation", delta)
		}
	}
}

// TestValidateRejectsShiftedCommand: every command of a run spans the
// same [Start, End), so a hop command, or a source command, moved in time
// with its length intact is refused, although every total still holds.
func TestValidateRejectsShiftedCommand(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 128, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil || !res.Feasible {
		t.Fatalf("setup: %v %v", err, res.FailStage)
	}
	for _, source := range []bool{false, true} {
		om := *res.Omega
		om.Nodes = slices.Clone(om.Nodes)
		edited := false
		for n := range om.Nodes {
			om.Nodes[n].Commands = slices.Clone(om.Nodes[n].Commands)
			for c := range om.Nodes[n].Commands {
				if cmd := &om.Nodes[n].Commands[c]; !edited && cmd.In.AP == source {
					cmd.Start += 0.5
					cmd.End += 0.5
					edited = true
				}
			}
		}
		if !edited {
			t.Fatal("no command to shift")
		}
		if err := om.Validate(p.Topology); err == nil {
			t.Errorf("a command shifted by 0.5 µs (source %t) passed validation", source)
		}
	}
}

func TestPortString(t *testing.T) {
	if (Port{AP: true}).String() != "AP" {
		t.Error("AP port string")
	}
	if (Port{Link: 7}).String() != "L7" {
		t.Error("link port string")
	}
}

func TestExecuteRingOmega(t *testing.T) {
	om, _, _ := ringOmega(t)
	// Graph: two tasks, one message matching window 0.
	b := tfg.NewBuilder("ring")
	a := b.AddTask("a", 1)
	c := b.AddTask("c", 1)
	b.AddMessage("m", a, c, 512)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tm := &tfg.Timing{ExecTime: []float64{0.0001, 0.0001}, XmitTime: []float64{8}}
	// AbsRelease 0 matches task a finishing ~0; window length 10.
	exec, err := Execute(om, g, tm, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.OutputCompletions) != 3 {
		t.Fatalf("completions = %v", exec.OutputCompletions)
	}
	if math.Abs(exec.Deliveries[0]-8) > 1e-9 {
		t.Errorf("delivery = %g, want 8", exec.Deliveries[0])
	}
}

func TestExecuteRejectsShortTransmission(t *testing.T) {
	om, _, _ := ringOmega(t)
	om.Windows[0].Xmit = 9 // slices only carry 8
	b := tfg.NewBuilder("ring")
	a := b.AddTask("a", 1)
	c := b.AddTask("c", 1)
	b.AddMessage("m", a, c, 512)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tm := &tfg.Timing{ExecTime: []float64{0.0001, 0.0001}, XmitTime: []float64{9}}
	if _, err := Execute(om, g, tm, 10, 1); err == nil {
		t.Error("undelivered transmission must fail execution")
	}
}

func TestExecuteRejectsZeroInvocations(t *testing.T) {
	om, _, _ := ringOmega(t)
	if _, err := Execute(om, nil, nil, 10, 0); err == nil {
		t.Error("zero invocations must fail")
	}
}

// buildOmegaReference is BuildOmega as it stood before the two-pass
// emitter: one counting pass, then a write pass over each slice's
// members sorted by id that stores every run's commands at its start
// and rewrites their End for every slice continuing the run. Kept as
// the oracle BuildOmega is checked against.
func buildOmegaReference(sls []Slice, pa *PathAssignment, ws []Window, nodes int, tauIn, latency float64) *Omega {
	om := &Omega{
		TauIn:   tauIn,
		Nodes:   make([]NodeSchedule, nodes),
		Slices:  sls,
		Windows: ws,
		Latency: latency,
	}
	frame := inFrameOrder(sls)
	// lastEnd[m] is where message m's latest span ends (NaN before its
	// first), so sl.Start == lastEnd[m] says the slice continues a run.
	// hop[m] indexes the slab positions of the run's commands, one per
	// node on m's path.
	nm := len(pa.Links)
	lastEnd := make([]float64, nm)
	hop := make([]int32, nm+1)
	for m, links := range pa.Links {
		lastEnd[m] = math.NaN()
		hop[m+1] = hop[m]
		if len(links) > 0 {
			hop[m+1] += int32(len(links) + 1)
		}
	}
	// Count the commands per node first, deciding continuations as the
	// write pass will, so every node's list is an exact-size window of
	// one shared backing array written through a per-node cursor.
	cursor := make([]int32, nodes)
	widest := 0
	for _, sl := range frame {
		widest = max(widest, len(sl.Msgs))
		for mi, msg := range sl.Msgs {
			if len(pa.Links[msg]) == 0 {
				continue
			}
			if sl.Start != lastEnd[msg] {
				for _, node := range pa.Paths[msg].Nodes {
					cursor[node]++
				}
			}
			lastEnd[msg] = sl.Until[mi]
		}
	}
	total := int32(0)
	for n, c := range cursor {
		cursor[n] = total
		total += c
	}
	backing := make([]Command, total)
	at := make([]int32, hop[nm])
	for m := range lastEnd {
		lastEnd[m] = math.NaN()
	}
	// Slices in frame order, each one's messages in ascending ID: every
	// node's list comes out sorted by (Start, Msg). The sort key packs a
	// message over its position in the slice.
	byID := make([]uint64, 0, widest)
	for _, sl := range frame {
		byID = byID[:0]
		for mi, msg := range sl.Msgs {
			byID = append(byID, uint64(msg)<<32|uint64(mi))
		}
		slices.Sort(byID)
		for _, key := range byID {
			msg, mi := tfg.MessageID(key>>32), uint32(key)
			links := pa.Links[msg]
			if len(links) == 0 {
				continue
			}
			end, run := sl.Until[mi], at[hop[msg]:hop[msg+1]]
			continues := sl.Start == lastEnd[msg]
			lastEnd[msg] = end
			if continues {
				for _, c := range run {
					backing[c].End = end
				}
				continue
			}
			in := Port{AP: true}
			for h, node := range pa.Paths[msg].Nodes {
				out := Port{AP: true}
				if h < len(links) {
					out = Port{Link: links[h]}
				}
				backing[cursor[node]] = Command{Start: sl.Start, End: end, Msg: msg, In: in, Out: out}
				run[h] = cursor[node]
				cursor[node]++
				in = out
			}
		}
	}
	off := int32(0)
	for n, end := range cursor {
		om.Nodes[n].Node = topology.NodeID(n)
		if end > off { // else keep Commands nil, matching decode round-trips
			om.Nodes[n].Commands = backing[off:end:end]
		}
		off = end
	}
	return om
}

// TestBuildOmegaMatchesReference holds BuildOmega to the emitter it
// replaced, node by node and command by command: on seeded slice sets
// over the 8x8 torus, on every feasible Ω of the 8 standard
// configurations across the load grid, and on both compile_large
// machines.
func TestBuildOmegaMatchesReference(t *testing.T) {
	compared := 0
	check := func(name string, sls []Slice, pa *PathAssignment, ws []Window, nodes int) {
		t.Helper()
		got := BuildOmega(sls, pa, ws, nodes, 100, 300)
		want := buildOmegaReference(sls, pa, ws, nodes, 100, 300)
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%s: %d nodes, reference %d", name, len(got.Nodes), len(want.Nodes))
		}
		for n := range want.Nodes {
			g, w := got.Nodes[n], want.Nodes[n]
			if g.Node != w.Node || (g.Commands == nil) != (w.Commands == nil) || len(g.Commands) != len(w.Commands) {
				t.Fatalf("%s: node %d holds %d commands, reference node %d holds %d", name, n, len(g.Commands), w.Node, len(w.Commands))
			}
			for c := range w.Commands {
				if g.Commands[c] != w.Commands[c] {
					t.Fatalf("%s: node %d command %d is %+v, reference %+v", name, n, c, g.Commands[c], w.Commands[c])
				}
			}
		}
		compared++
	}

	// Seeded slice sets. A message is local (no links) when its ends
	// coincide. Each message's slices run back to back from a cursor, so
	// a continuation starts bitwise where the previous span ended; an
	// Until is trimmed below its slice's End now and then, which ends
	// the run; members are shuffled, a message is now and then named
	// twice in one slice, and the slices are shuffled before emission
	// (equal Starts keep their shuffled order in the frame).
	top, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		nm := 1 + rng.Intn(90)
		pa := &PathAssignment{Paths: make([]topology.Path, nm), Links: make([][]topology.LinkID, nm)}
		for m := range pa.Paths {
			src, dst := topology.NodeID(rng.Intn(top.Nodes())), topology.NodeID(rng.Intn(top.Nodes()))
			if src == dst {
				continue
			}
			pa.Paths[m] = top.LSDToMSD(src, dst)
			if pa.Links[m], err = pa.Paths[m].Links(top); err != nil {
				t.Fatal(err)
			}
		}
		var sls []Slice
		cursor := 0.0
		for s := rng.Intn(40); s >= 0; s-- {
			d := []float64{0.1, 0.3, 1.0 / 3, 2.5}[rng.Intn(4)]
			sl := Slice{Start: cursor, End: cursor + d}
			for _, m := range rng.Perm(nm)[:1+rng.Intn(min(nm, 12))] {
				until := sl.End
				if rng.Intn(5) == 0 {
					until = sl.Start + d/2
				}
				sl.Msgs = append(sl.Msgs, tfg.MessageID(m))
				sl.Until = append(sl.Until, until)
				if rng.Intn(20) == 0 {
					sl.Msgs = append(sl.Msgs, tfg.MessageID(m))
					sl.Until = append(sl.Until, sl.End)
				}
			}
			sls = append(sls, sl)
			if rng.Intn(4) != 0 {
				cursor = sl.End
			} else {
				cursor = sl.End + 0.25
			}
		}
		rng.Shuffle(len(sls), func(i, j int) { sls[i], sls[j] = sls[j], sls[i] })
		check(fmt.Sprintf("seeded %d", trial), sls, pa, make([]Window, nm), top.Nodes())
	}

	for name, top := range solverGoldenTopologies(t) {
		for _, bw := range []float64{64, 128} {
			solver := NewSolver(dvbProblem(t, top, bw, 0))
			for k := 0; k < 12; k++ {
				res, err := solver.Solve(context.Background(), gridTauIn(k), Options{Seed: 1})
				if err != nil {
					t.Fatalf("%s-b%g k=%d: %v", name, bw, k, err)
				}
				if res.Feasible {
					check(fmt.Sprintf("%s-b%g k=%d", name, bw, k), res.Slices, res.Assignment, res.Windows, top.Nodes())
				}
			}
		}
	}
	for _, c := range compileLarge(t) {
		check(c.name, c.res.Slices, c.res.Assignment, c.res.Windows, c.p.Topology.Nodes())
	}
	t.Logf("%d emissions match", compared)
}
