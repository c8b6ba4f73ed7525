package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// ringOmega builds a tiny hand-made Ω on an 8-node ring: one message
// from node 0 to node 2 via node 1, transmitted in [0, 8) of a 20 µs
// frame.
func ringOmega(t *testing.T) (*Omega, *topology.Topology, *PathAssignment) {
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

func TestOmegaLinkset(t *testing.T) {
	om, _, pa := ringOmega(t)
	ls := om.Linkset(0)
	if len(ls) != len(pa.Links[0]) {
		t.Fatalf("linkset = %v", ls)
	}
	// A decoded Ω may carry commands for a message it has no window for;
	// the table still covers it, and asking past the table is no links.
	om.Windows = nil
	if got := om.Linkset(0); !slices.Equal(got, ls) {
		t.Fatalf("linkset without windows = %v, want %v", got, ls)
	}
	if got := om.Linkset(99); len(got) != 0 {
		t.Fatalf("linkset of an unknown message = %v", got)
	}
}

// linksetReference is Linkset as first written: one scan of every
// command per message, the links collected in a set and read back in
// ascending order.
func linksetReference(om *Omega, msg tfg.MessageID) []topology.LinkID {
	var seen topology.LinkSet
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			if c.Msg != msg {
				continue
			}
			for _, p := range []Port{c.In, c.Out} {
				if !p.AP {
					seen.Add(p.Link)
				}
			}
		}
	}
	return seen.Links()
}

// TestOmegaLinksetsMatchesPerMessageScan checks the one-pass table
// against the per-message scan on the standard configurations at their
// lowest load (the two B=64 tori are infeasible at every load and emit
// no Ω) and on a faulted one, local messages included.
func TestOmegaLinksetsMatchesPerMessageScan(t *testing.T) {
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
		sets := res.Omega.Linksets()
		if len(sets) != len(res.Windows) {
			t.Fatalf("%s: %d linksets for %d messages", name, len(sets), len(res.Windows))
		}
		routed := 0
		for m := range sets {
			want := linksetReference(res.Omega, tfg.MessageID(m))
			if !slices.Equal(sets[m], want) {
				t.Fatalf("%s: Linksets()[%d] = %v, per-message scan %v", name, m, sets[m], want)
			}
			if got := res.Omega.Linkset(tfg.MessageID(m)); !slices.Equal(got, want) {
				t.Fatalf("%s: Linkset(%d) = %v, per-message scan %v", name, m, got, want)
			}
			if len(want) > 0 {
				routed++
			}
		}
		if routed == 0 {
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
	p.Faults = topology.NewFaultSet(top.Links(), top.Nodes())
	p.Faults.FailLink(0)
	check("6cube-faulted", p)
	if checked != 7 {
		t.Fatalf("%d configurations emitted an Ω to check, want 7", checked)
	}
}

// TestSortCommandsMatchesFullSort compares the run-wise sort BuildOmega
// uses with a full sort on random command lists: in frame order with
// long runs of equal Start (one slice's messages, shuffled), and with a
// start out of frame order, where it must fall back.
func TestSortCommandsMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var cmds []Command
		start := 0.0
		for run := rng.Intn(8); run >= 0; run-- {
			start += float64(1 + rng.Intn(3))
			for _, m := range rng.Perm(12)[:1+rng.Intn(6)] {
				cmds = append(cmds, Command{Start: start, End: start + 1, Msg: tfg.MessageID(m)})
			}
		}
		if trial%5 == 0 && len(cmds) > 1 {
			i, j := rng.Intn(len(cmds)), rng.Intn(len(cmds))
			cmds[i], cmds[j] = cmds[j], cmds[i]
		}
		want := slices.Clone(cmds)
		slices.SortFunc(want, cmpCommand)
		sortCommands(cmds)
		if !slices.Equal(cmds, want) {
			t.Fatalf("trial %d: run-wise sort %v, full sort %v", trial, cmds, want)
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
