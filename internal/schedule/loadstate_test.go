package schedule

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// checkLoadState asserts exact (bitwise, not within-epsilon) agreement
// between the incremental state and a full recompute.
func checkLoadState(t *testing.T, ls *LoadState, top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity, step string) {
	t.Helper()
	if err := loadStateDiff(ls, top, pa, ws, act); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// loadStateDiff is the first difference between the incremental state
// and pa: its Utilization against computeUtilizationReference under the
// state's own LinkCap, bit for bit, its PeakPosition against a scan of
// every link's score, and every link's member list against the messages
// pa routes over it. It also fails a member slab longer than twice the
// memberships.
func loadStateDiff(ls *LoadState, top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity) error {
	want := computeUtilizationReference(top, pa, ws, act, ls.linkCap)
	got := ls.Utilization()
	if !samePeakBits(got.Peak, want.Peak) || got.PeakLink != want.PeakLink || got.PeakInterval != want.PeakInterval {
		return fmt.Errorf("peak (%v, link %v, interval %v) != full recompute (%v, link %v, interval %v)",
			got.Peak, got.PeakLink, got.PeakInterval, want.Peak, want.PeakLink, want.PeakInterval)
	}
	if p, l, k := peakScan(ls); !samePeakBits(p, got.Peak) || l != got.PeakLink || k != got.PeakInterval {
		return fmt.Errorf("PeakPosition (%v, link %v, interval %v) != a scan of every link (%v, link %v, interval %v)",
			got.Peak, got.PeakLink, got.PeakInterval, p, l, k)
	}
	for j := range want.LinkU {
		if got.LinkU[j] != want.LinkU[j] {
			return fmt.Errorf("LinkU[%d] = %v, full recompute %v", j, got.LinkU[j], want.LinkU[j])
		}
	}
	members := make([][]int32, top.Links())
	nmem := 0
	for i, links := range pa.Links {
		if ws[i].Local {
			continue
		}
		for _, l := range links {
			members[l] = append(members[l], int32(i))
		}
		nmem += len(links)
	}
	for j, want := range members {
		if got := ls.members(j); !slices.Equal(got, want) {
			return fmt.Errorf("link %d's members %v, the assignment routes %v over it", j, got, want)
		}
	}
	if ls.nmem != nmem || len(ls.slab) > 2*nmem {
		return fmt.Errorf("member slab of %d for %d memberships (the state counts %d)", len(ls.slab), nmem, ls.nmem)
	}
	return nil
}

func samePeakBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// peakScan is PeakPosition as a scan of every link's score, strict
// improvement from 0 in link order, the peak cache left unread.
func peakScan(ls *LoadState) (float64, topology.LinkID, int) {
	peak, link, interval := 0.0, topology.LinkID(0), int32(-1)
	for j := 0; j < ls.nl; j++ {
		if ls.score[j] > peak {
			peak, link, interval = ls.score[j], topology.LinkID(j), ls.scoreK[j]
		}
	}
	return peak, link, int(interval)
}

// computeUtilizationReference is the dense Section 5.1 pass every
// LoadState answer is held to: per link, the transmission sum over the
// messages routed on it in message order, the active length over the
// intervals in which any is active, U_j = sum / active length, and the
// no-slack count U_jk of each interval; the peak is the strict first
// maximum over the links ascending, U_j before the link's hot-spots,
// intervals ascending. Under a per-link capacity vector (see
// Options.LinkCap) LinkU stays the raw fraction of each physical link's
// bandwidth while the peak takes U_j / linkCap[j]; nil is the whole
// machine.
func computeUtilizationReference(top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity, linkCap []float64) *Utilization {
	nl := top.Links()
	K := act.Intervals.K()
	xmitOnLink, activeLen := make([]float64, nl), make([]float64, nl)
	linkInterval := make([]bool, nl*K) // any message active on flat cell j*K+k
	spot := make([]int32, nl*K)        // no-slack count on flat cell j*K+k
	for i := range ws {
		if ws[i].Local || len(pa.Links[i]) == 0 {
			continue
		}
		noSlack := ws[i].NoSlack()
		row := act.Active[i]
		for _, l := range pa.Links[i] {
			xmitOnLink[l] += ws[i].Xmit
			base := int(l) * K
			for k := 0; k < K; k++ {
				if row[k] {
					linkInterval[base+k] = true
					if noSlack {
						spot[base+k]++
					}
				}
			}
		}
	}
	u := &Utilization{LinkU: make([]float64, nl), PeakInterval: -1}
	for j := 0; j < nl; j++ {
		base := j * K
		for k := 0; k < K; k++ {
			if linkInterval[base+k] {
				activeLen[j] += act.Intervals.Length(k)
			}
		}
		if activeLen[j] > 0 {
			u.LinkU[j] = xmitOnLink[j] / activeLen[j]
		}
		score := u.LinkU[j]
		if linkCap != nil && activeLen[j] > 0 {
			score /= linkCap[j]
		}
		if score > u.Peak {
			u.Peak = score
			u.PeakLink = topology.LinkID(j)
			u.PeakInterval = -1
		}
		for k := 0; k < K; k++ {
			if s := float64(spot[base+k]); s > u.Peak {
				u.Peak = s
				u.PeakLink = topology.LinkID(j)
				u.PeakInterval = k
			}
		}
	}
	return u
}

// loadStateFixture derives the DVB workload's windows, activity, LSD
// assignment and candidate paths on top (with link 0 failed when
// faulted) and lists the messages that have a choice of path.
func loadStateFixture(t *testing.T, top *topology.Topology, faulted bool) (*PathAssignment, []Window, *Activity, *Candidates, []tfg.MessageID) {
	t.Helper()
	p := dvbProblem(t, top, 64, gridTauIn(4))
	var fs *topology.FaultSet
	if faulted {
		fs = topology.NewFaultSet()
		fs.FailLink(0)
	}
	return routeFixture(t, p, fs)
}

// routeFixture derives p's windows, activity, fault-route assignment and
// up to 24 candidate paths a message under fs (nil for none) and lists
// the messages that have a choice of path.
func routeFixture(t *testing.T, p Problem, fs *topology.FaultSet) (*PathAssignment, []Window, *Activity, *Candidates, []tfg.MessageID) {
	t.Helper()
	top := p.Topology
	sameNode := func(m tfg.Message) bool {
		return p.Assignment.Node(m.Src) == p.Assignment.Node(m.Dst)
	}
	ws, err := ComputeWindowsFromStarts(p.Graph, p.Timing, p.TauIn, p.Timing.TauC(), p.Graph.PipelinedStart(p.Timing, p.Timing.TauC()), sameNode)
	if err != nil {
		t.Fatal(err)
	}
	set := BuildIntervals(ws, p.TauIn)
	act := BuildActivity(ws, set)
	pa, err := FaultRouteAssignment(p.Graph, top, p.Assignment, ws, fs)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := BuildCandidatesFault(p.Graph, top, p.Assignment, ws, 24, fs)
	if err != nil {
		t.Fatal(err)
	}
	var multi []tfg.MessageID
	for i, list := range cands.PathsOf {
		if len(list) >= 2 {
			multi = append(multi, tfg.MessageID(i))
		}
	}
	if len(multi) == 0 {
		t.Fatal("no multi-path messages in fixture")
	}
	return pa, ws, act, cands, multi
}

// TestLoadStateMatchesFullRecompute drives randomized reroute /
// eval / undo sequences over the DVB workload on the 6-cube and the
// 8x8 torus, perfect and with a failed link, asserting after every
// operation that the incremental accumulators equal
// computeUtilizationReference exactly and that PeakPosition, the head
// of the peak cache, equals a scan of every link. Two more walks reach
// the ends of the score range: on the torus with uneven link shares and
// none at all on one link, which scores +Inf while it carries traffic, and on DVB placed on one node of the 6-cube, where every
// message is local and the peak cache stays empty.
func TestLoadStateMatchesFullRecompute(t *testing.T) {
	topos := []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"6cube", func() (*topology.Topology, error) { return topology.NewHypercube(6) }},
		{"torus88", func() (*topology.Topology, error) { return topology.NewTorus(8, 8) }},
	}
	for _, tc := range topos {
		for _, faulted := range []bool{false, true} {
			name := tc.name
			if faulted {
				name += "-faulted"
			}
			t.Run(name, func(t *testing.T) {
				top, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				pa, ws, act, cands, multi := loadStateFixture(t, top, faulted)
				loadStateWalk(t, top, pa, ws, act, nil, cands, multi)
				checkLoadStateMemo(t, top, pa, ws, act, cands, multi, exactEval)
			})
		}
	}
	t.Run("torus88-zero-share", func(t *testing.T) {
		top, err := topology.NewTorus(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		pa, ws, act, cands, multi := loadStateFixture(t, top, false)
		rng := rand.New(rand.NewSource(5))
		linkCap := make([]float64, top.Links())
		for j := range linkCap {
			linkCap[j] = 0.25 + 0.75*rng.Float64()
		}
		// No share on a link that one multi-path message alone crosses:
		// the walk moves traffic on and off it.
		users := make([][]tfg.MessageID, top.Links())
		for i, links := range pa.Links {
			for _, l := range links {
				users[l] = append(users[l], tfg.MessageID(i))
			}
		}
		for l, u := range users {
			if len(u) == 1 && len(cands.PathsOf[u[0]]) > 1 {
				linkCap[l] = 0
				break
			}
		}
		inf, finite := loadStateWalk(t, top, pa, ws, act, linkCap, cands, multi)
		t.Logf("%d checked states at an infinite peak, %d at a finite one", inf, finite)
		if inf == 0 || finite == 0 {
			t.Fatal("the walk needs both")
		}
	})
	t.Run("6cube-all-local", func(t *testing.T) {
		p := dvbProblem(t, sixCube(t), 64, gridTauIn(4))
		p.Assignment = &alloc.Assignment{NodeOf: make([]topology.NodeID, p.Graph.NumTasks())}
		ws, err := ComputeWindowsFromStarts(p.Graph, p.Timing, p.TauIn, p.Timing.TauC(), p.Graph.PipelinedStart(p.Timing, p.Timing.TauC()), func(tfg.Message) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		act := BuildActivity(ws, BuildIntervals(ws, p.TauIn))
		pa, err := LSDAssignment(p.Graph, p.Topology, p.Assignment, ws)
		if err != nil {
			t.Fatal(err)
		}
		cands := &Candidates{PathsOf: make([][]topology.Path, len(ws)), LinksOf: make([][][]topology.LinkID, len(ws))}
		ls := NewLoadStateCap(p.Topology, pa, ws, act, nil)
		if len(ls.topk) != 0 || ls.Peak() != 0 {
			t.Fatalf("all-local: peak cache %v, peak %v; want an empty cache and 0", ls.topk, ls.Peak())
		}
		loadStateWalk(t, p.Topology, pa, ws, act, nil, cands, nil)
	})
}

// loadStateWalk is one seeded walk of TestLoadStateMatchesFullRecompute
// under linkCap: 200 random applies, apply-undo pairs and evals of the
// multi-path messages (none when multi is empty), each checked against
// a full recompute, then a Reset onto a scrambled assignment. It counts
// the checked states whose peak is infinite and those whose peak is
// finite.
func loadStateWalk(t *testing.T, top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity, linkCap []float64, cands *Candidates, multi []tfg.MessageID) (inf, finite int) {
	t.Helper()
	ls := NewLoadStateCap(top, pa, ws, act, linkCap)
	check := func(step string) {
		t.Helper()
		checkLoadState(t, ls, top, pa, ws, act, step)
		if math.IsInf(ls.Peak(), 1) {
			inf++
		} else {
			finite++
		}
	}
	check("initial")

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 200 && len(multi) > 0; step++ {
		mi := multi[rng.Intn(len(multi))]
		c := routesOf(cands, mi)[rng.Intn(len(cands.PathsOf[mi]))]
		old := pa.Links[mi]
		switch rng.Intn(3) {
		case 0: // apply and keep
			ls.ApplyReroute(mi, old, c.links)
			pa.SetPath(mi, c.path, c.links)
			check("apply")
		case 1: // apply then undo
			ls.ApplyReroute(mi, old, c.links)
			ls.Undo(mi, old, c.links)
			check("undo")
		default: // pure what-if: peak must equal a cloned full eval
			peak, link, interval := ls.EvalReroute(mi, old, c.links, math.Inf(1))
			trial := pa.Clone()
			trial.SetPath(mi, c.path, c.links)
			want := computeUtilizationReference(top, trial, ws, act, linkCap)
			if !samePeakBits(peak, want.Peak) || link != want.PeakLink || interval != want.PeakInterval {
				t.Fatalf("eval: (%v, %v, %v) != full trial recompute (%v, %v, %v)",
					peak, link, interval, want.Peak, want.PeakLink, want.PeakInterval)
			}
			check("eval")
		}
	}

	// Reset onto a scrambled assignment must equal a fresh build.
	randomize(pa, cands, rng)
	ls.Reset(pa)
	check("reset")
	return inf, finite
}

// checkLoadStateMemo is the memo property: under random interleavings of
// evals, applies, undos, resets and arena re-binds, every EvalReroute —
// whether it computes its tentative scores or finds them memoized —
// equals apply → PeakPosition → undo on a reference state that never
// evaluates (so never memoizes) bit for bit. A burst evaluates every
// candidate of a message twice, the current path included: repeats of
// one (message, candidate), candidates sharing link prefixes with each
// other and with the old path, and an empty difference. Halfway through,
// the generation and stamp counters jump to just below wrap-around.
// eval is how the walk asks for an eval's exact triple.
func checkLoadStateMemo(t *testing.T, top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity, cands *Candidates, multi []tfg.MessageID, eval evalFunc) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ws2, act2, cap2 := rebinding(top, ws, act, rng)
	type binding struct {
		ws      []Window
		act     *Activity
		linkCap []float64
	}
	bindings := []binding{{ws, act, nil}, {ws2, act2, cap2}}
	cur := 0

	var arena solveArena
	ls := arena.loadState(top, pa, ws, act, nil)
	ref := NewLoadStateCap(top, pa, ws, act, nil)
	const genJump, epochJump = math.MaxUint32 - 20, math.MaxInt32 - 100

	samePeak := func(step string) {
		t.Helper()
		gp, gl, gk := ls.PeakPosition()
		wp, wl, wk := ref.PeakPosition()
		if gp != wp || gl != wl || gk != wk {
			t.Fatalf("memo/%s: peak (%v, %v, %v) != reference (%v, %v, %v)", step, gp, gl, gk, wp, wl, wk)
		}
		if sp, sl, sk := peakScan(ls); sp != gp || sl != gl || sk != gk {
			t.Fatalf("memo/%s: peak (%v, %v, %v) != a scan of every link (%v, %v, %v)", step, gp, gl, gk, sp, sl, sk)
		}
	}
	for step := 0; step < 400; step++ {
		if step == 200 {
			// Jump to the brink of wrap-around with the memo and the
			// stamps full of low-numbered entries, the ones a wrapped
			// counter would meet again.
			ls.gen, ls.epoch = genJump, epochJump
		}
		mi := multi[rng.Intn(len(multi))]
		list := routesOf(cands, mi)
		old := pa.Links[mi]
		switch op := rng.Intn(10); {
		case op < 5:
			for pass := 0; pass < 2; pass++ {
				for ci, c := range list {
					gp, gl, gk := eval(ls, mi, old, c.links)
					ref.ApplyReroute(mi, old, c.links)
					wp, wl, wk := ref.PeakPosition()
					ref.Undo(mi, old, c.links)
					if gp != wp || gl != wl || gk != wk {
						t.Fatalf("memo/eval step %d msg %d cand %d pass %d: (%v, %v, %v) != apply-peek-undo (%v, %v, %v)",
							step, mi, ci, pass, gp, gl, gk, wp, wl, wk)
					}
				}
			}
		case op < 7:
			c := list[rng.Intn(len(list))]
			ls.ApplyReroute(mi, old, c.links)
			ref.ApplyReroute(mi, old, c.links)
			pa.SetPath(mi, c.path, c.links)
			samePeak("apply")
		case op < 8:
			c := list[rng.Intn(len(list))]
			ls.ApplyReroute(mi, old, c.links)
			ls.Undo(mi, old, c.links)
			samePeak("undo")
		case op < 9:
			randomize(pa, cands, rng)
			ls.Reset(pa)
			ref.Reset(pa)
			samePeak("reset")
		default:
			cur = 1 - cur
			b := bindings[cur]
			if got := arena.loadState(top, pa, b.ws, b.act, b.linkCap); got != ls {
				t.Fatal("memo/rebind: arena built a new LoadState for unchanged dimensions")
			}
			ref = NewLoadStateCap(top, pa, b.ws, b.act, b.linkCap)
			samePeak("rebind")
		}
	}
	b := bindings[cur]
	want := computeUtilizationReference(top, pa, b.ws, b.act, b.linkCap)
	got := ls.Utilization()
	if got.Peak != want.Peak || got.PeakLink != want.PeakLink || got.PeakInterval != want.PeakInterval {
		t.Fatalf("memo/final: peak (%v, %v, %v) != full recompute (%v, %v, %v)",
			got.Peak, got.PeakLink, got.PeakInterval, want.Peak, want.PeakLink, want.PeakInterval)
	}
	if ls.tentReused == 0 || ls.tentComputed == 0 {
		t.Fatalf("memo: %d tentative scores computed, %d reused; the property needs both", ls.tentComputed, ls.tentReused)
	}
	if ls.gen >= genJump || ls.epoch >= epochJump {
		t.Fatalf("memo: counters did not wrap (gen %d, epoch %d)", ls.gen, ls.epoch)
	}
}

// rebinding builds a second problem of the same dimensions for the arena
// re-bind: other transmission times and no-slack flags, activity rows
// rotated by one message, intervals twice as long, uneven link shares.
func rebinding(top *topology.Topology, ws []Window, act *Activity, rng *rand.Rand) ([]Window, *Activity, []float64) {
	ws2 := append([]Window(nil), ws...)
	for i := range ws2 {
		if i%3 == 0 {
			ws2[i].Xmit = ws2[i].Length
		} else {
			ws2[i].Xmit *= 0.75
		}
	}
	set2 := &IntervalSet{TauIn: 2 * act.Intervals.TauIn}
	for _, e := range act.Intervals.Endpoints {
		set2.Endpoints = append(set2.Endpoints, 2*e)
	}
	act2 := &Activity{Intervals: set2, Active: make([][]bool, len(ws))}
	for i := range ws {
		if !ws[i].Local {
			act2.Active[i] = act.Active[(i+1)%len(ws)]
		} else {
			act2.Active[i] = act.Active[i]
		}
	}
	cap2 := make([]float64, top.Links())
	for j := range cap2 {
		cap2[j] = 0.25 + 0.75*rng.Float64()
	}
	return ws2, act2, cap2
}

// TestLoadStateWrapDropsStaleEntries wraps the memo generation and the
// eval stamp counter at moments when stale entries carrying the very
// numbers the wrapped counters hand out next are still in place; an
// eval that trusted one would score against link loads that have since
// changed.
func TestLoadStateWrapDropsStaleEntries(t *testing.T) {
	top, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pa, ws, act, cands, multi := loadStateFixture(t, top, false)
	ls := NewLoadStateCap(top, pa, ws, act, nil)
	eval := func(step string, mi tfg.MessageID, c testRoute) {
		t.Helper()
		gp, gl, gk := ls.EvalReroute(mi, pa.Links[mi], c.links, math.Inf(1))
		ref := NewLoadStateCap(top, pa, ws, act, nil)
		ref.ApplyReroute(mi, pa.Links[mi], c.links)
		wp, wl, wk := ref.PeakPosition()
		if gp != wp || gl != wl || gk != wk {
			t.Fatalf("%s: msg %d onto %v: (%v, %v, %v) != applied (%v, %v, %v)", step, mi, c.links, gp, gl, gk, wp, wl, wk)
		}
	}
	evalAll := func(step string, mi tfg.MessageID) {
		t.Helper()
		for _, c := range routesOf(cands, mi) {
			eval(step, mi, c)
		}
	}

	// The hill-climb's first move: a message crossing the peak link.
	_, peakLink, peakK := ls.PeakPosition()
	mi := reroutable(cands, act, ls, assignPosition{peakLink, peakK}, nil)[0]
	evalAll("first generation", mi) // memo slots now carry generation 1

	// Move every other message, then wrap the generation back to 1:
	// mi's slots match again key for key but describe the old loads.
	rng := rand.New(rand.NewSource(3))
	for _, mj := range multi {
		if mj != mi {
			c := routesOf(cands, mj)[rng.Intn(len(cands.PathsOf[mj]))]
			pa.SetPath(mj, c.path, c.links)
		}
	}
	ls.gen = math.MaxUint32
	ls.Reset(pa)
	if ls.gen != 1 {
		t.Fatalf("generation %d after wrap, want 1", ls.gen)
	}
	evalAll("wrapped generation", mi)

	// Stamps: on a fresh state the first eval is number 3 and marks the
	// links it changes with it — the peak link among them, since mi
	// leaves it. Wrap, and the next eval is number 3 again; scoring a
	// message that stays clear of the peak link, it must not take that
	// link for one of its own.
	ls = NewLoadStateCap(top, pa, ws, act, nil)
	_, peakLink, peakK = ls.PeakPosition()
	mi = reroutable(cands, act, ls, assignPosition{peakLink, peakK}, nil)[0]
	away := -1
	for ci, c := range routesOf(cands, mi) {
		if !slices.Contains(c.links, peakLink) {
			away = ci
			break
		}
	}
	if away < 0 {
		t.Fatalf("every candidate of message %d crosses the peak link %d", mi, peakLink)
	}
	ls.EvalReroute(mi, pa.Links[mi], cands.LinksOf[mi][away], math.Inf(1))
	if ls.stamp[peakLink] != 3 {
		t.Fatalf("peak link stamped %d by the first eval, want 3", ls.stamp[peakLink])
	}
	ls.epoch = math.MaxInt32 - 1
search:
	for _, mj := range multi {
		if slices.Contains(pa.Links[mj], peakLink) {
			continue
		}
		for _, c := range routesOf(cands, mj) {
			if slices.Contains(c.links, peakLink) || slices.Equal(c.links, pa.Links[mj]) {
				continue
			}
			ref := NewLoadStateCap(top, pa, ws, act, nil)
			ref.ApplyReroute(mj, pa.Links[mj], c.links)
			if _, l, _ := ref.PeakPosition(); l == peakLink { // the stale link decides the answer
				eval("wrapped stamps", mj, c)
				break search
			}
		}
	}
	if ls.epoch >= math.MaxInt32-1 {
		t.Fatalf("stamp counter %d did not wrap", ls.epoch)
	}
}

// TestAssignPathsCrossCheck holds the incremental LoadState to a full
// computeUtilizationReference at the end of every restart of the hill-climb, on
// one worker and on two and four: for maxOuter = 1…6, every restart's
// final state must describe that restart's own assignment, member lists
// included, in a member slab at most twice the memberships. DVB on the
// 6-cube, and a layered TFG on the 8x8 torus: many messages per link
// and up to 24 equivalent paths each, the shape the tentative-score
// memo and the touched-link bookkeeping are built for.
func TestAssignPathsCrossCheck(t *testing.T) {
	top, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tfg.RandomLayered(7, []int{8, 16, 16, 16, 8}, 100, 100, 256, 3200, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 128)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.Random(g, top, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		p    Problem
	}{
		{"dvb/cube6", dvbProblem(t, sixCube(t), 64, gridTauIn(2))},
		{"layered/torus8x8", Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 150}},
	} {
		pa, ws, act, cands, _ := routeFixture(t, f.p, nil)
		lsd := computeUtilizationReference(f.p.Topology, pa, ws, act, nil).Peak
		for _, workers := range []int{1, 2, 4} {
			for maxOuter := 1; maxOuter <= 6; maxOuter++ {
				step := fmt.Sprintf("%s workers %d maxOuter %d", f.name, workers, maxOuter)
				var mu sync.Mutex
				climbed := map[int]bool{}
				var a solveArena
				rec := assignRecord{onClimb: func(restart int, ls *LoadState, pa *PathAssignment) {
					if err := loadStateDiff(ls, f.p.Topology, pa, ws, act); err != nil {
						t.Errorf("%s restart %d: %v", step, restart, err)
					}
					mu.Lock()
					climbed[restart] = true
					mu.Unlock()
				}}
				res, err := rec.assign(context.Background(), &a, pa, cands, f.p.Topology, ws, act, 1, maxOuter, 60, nil, workers)
				if err != nil {
					t.Fatal(err)
				}
				if t.Failed() {
					t.FailNow()
				}
				for k := 0; k < maxOuter; k++ {
					if !climbed[k] {
						t.Fatalf("%s: restart %d was not climbed", step, k)
					}
				}
				if res.spot.peak > lsd {
					t.Fatalf("%s: AssignPaths peak %v worse than LSD %v", step, res.spot.peak, lsd)
				}
				if maxOuter == 6 && res.evals < 100 {
					t.Fatalf("%s: only %d evaluations; the fixture no longer exercises the hill-climb", step, res.evals)
				}
			}
		}
	}
}

// TestPeakCacheMatchesRebuild walks seeded sequences of ApplyReroute,
// Undo, EvalReroute, Reset and arena re-binds, asserting after every
// step that the peak cache ApplyReroute repairs in place is the head of
// what a from-scratch rebuildTopK selects, link for link. Two fixtures
// keep it from passing vacuously. compile_lp's heaviest layered TFG on
// GHC(4,4,8) touches far more links than the cache holds, so its moves
// repair an incomplete cache; at six changed links a move it never
// falls to topkFloor (nor does the hill-climb on it). Antipodal messages
// on the 32x32 torus swap between routes that share no link, 64 changed
// links a move, so there a complete cache overflows and an incomplete
// one falls below topkFloor and is rebuilt.
func TestPeakCacheMatchesRebuild(t *testing.T) {
	t.Run("ghc448", func(t *testing.T) {
		f := ghc448Walks(t)
		var n peakCacheCounts
		for seed := int64(1); seed <= 3; seed++ {
			n.add(peakCacheWalk(t, seed, f, exactEval))
		}
		t.Logf("%+v", n)
		if n.repairs == 0 {
			t.Fatalf("%+v: the walks need in-place repairs of an incomplete cache", n)
		}
	})
	t.Run("torus32-antipodes", func(t *testing.T) {
		f := antipodeWalks(t)
		var n peakCacheCounts
		for seed := int64(1); seed <= 3; seed++ {
			n.add(peakCacheWalk(t, seed, f, exactEval))
		}
		t.Logf("%+v", n)
		if n.repairs == 0 || n.rebuilds == 0 || n.overflows == 0 || n.maxChanged < 64 {
			t.Fatalf("%+v: the walks need in-place repairs of an incomplete cache, rebuilds, overflows of a complete one and 64 changed links", n)
		}
	})
}

// walkFixture is where a seeded LoadState walk starts: an assignment,
// its problem and candidate paths, the messages with a choice of path,
// and how a Reset draws the next assignment.
type walkFixture struct {
	top    *topology.Topology
	pa     *PathAssignment
	ws     []Window
	act    *Activity
	cands  *Candidates
	multi  []tfg.MessageID
	reroll func(*PathAssignment, *rand.Rand)
}

// ghc448Walks is compile_lp's heaviest layered TFG on GHC(4,4,8),
// round-robin placed; a Reset draws a random assignment.
func ghc448Walks(t *testing.T) walkFixture {
	t.Helper()
	top, err := topology.NewGHC(4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tfg.RandomLayered(3, []int{16, 16, 16, 16, 16, 16, 16, 16}, 400, 1925, 192, 3200, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 128)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	pa, ws, act, cands, multi := routeFixture(t, Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 65}, nil)
	return walkFixture{top, pa, ws, act, cands, multi, func(pa *PathAssignment, rng *rand.Rand) {
		randomize(pa, cands, rng)
	}}
}

// antipodeWalks is antipodeFixture's 48 messages on the 32x32 torus. A
// Reset routes a random share of the messages — a few, some or all — so
// resets land on both sides of a full cache.
func antipodeWalks(t *testing.T) walkFixture {
	t.Helper()
	top, err := topology.NewTorus(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	pa, ws, act, cands, multi := antipodeFixture(t, top, 48, rand.New(rand.NewSource(1)))
	return walkFixture{top, pa, ws, act, cands, multi, func(pa *PathAssignment, rng *rand.Rand) {
		share := []float64{0.05, 0.3, 1}[rng.Intn(3)]
		for i := range cands.PathsOf {
			list := routesOf(cands, tfg.MessageID(i))
			c := list[0]
			if rng.Float64() < share {
				c = list[1+rng.Intn(2)]
			}
			pa.SetPath(tfg.MessageID(i), c.path, c.links)
		}
	}}
}

// evalFunc is how a walk asks for the exact triple of an eval.
type evalFunc func(ls *LoadState, mi tfg.MessageID, old, new []topology.LinkID) (float64, topology.LinkID, int)

func exactEval(ls *LoadState, mi tfg.MessageID, old, new []topology.LinkID) (float64, topology.LinkID, int) {
	return ls.EvalReroute(mi, old, new, math.Inf(1))
}

// TestEvalRerouteBound holds EvalReroute's limit to its contract on the
// memo walks over the DVB workload on the 8x8 torus, perfect and with a
// failed link, and on TestPeakCacheMatchesRebuild's walks over both its
// fixtures. Each eval of a walk is asked again under the limits a caller
// passes — the exact peak and the floats either side of it, the current
// peak ± timeEps, 0 and +Inf — and the bounded answer must be the exact
// triple whenever the exact peak is at most the limit, and above the
// limit otherwise. The walks themselves check the exact triple against
// apply-peek-undo.
func TestEvalRerouteBound(t *testing.T) {
	var early int
	eval := boundedEval(t, &early)
	for _, faulted := range []bool{false, true} {
		top, err := topology.NewTorus(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		pa, ws, act, cands, multi := loadStateFixture(t, top, faulted)
		checkLoadStateMemo(t, top, pa, ws, act, cands, multi, eval)
	}
	for _, f := range []walkFixture{ghc448Walks(t), antipodeWalks(t)} {
		for seed := int64(1); seed <= 3; seed++ {
			peakCacheWalk(t, seed, f, eval)
		}
	}
	if early == 0 {
		t.Fatal("no bounded eval stopped early; the walks no longer exercise the bound")
	}
	t.Logf("%d bounded evals stopped early", early)
}

// boundedEval returns an evalFunc that checks the bound on every eval
// and counts in *early the bounded answers that differ from the exact
// one. Each bounded eval follows an eval of the message's own path,
// which changes no link: an eval that read its marks before making them
// would find none, rather than the same move's from the eval before.
func boundedEval(t *testing.T, early *int) evalFunc {
	return func(ls *LoadState, mi tfg.MessageID, old, new []topology.LinkID) (float64, topology.LinkID, int) {
		t.Helper()
		wp, wl, wk := ls.EvalReroute(mi, old, new, math.Inf(1))
		cur := ls.Peak()
		for _, limit := range []float64{wp, math.Nextafter(wp, math.Inf(-1)), math.Nextafter(wp, math.Inf(1)), cur - timeEps, cur + timeEps, 0, math.Inf(1)} {
			ls.EvalReroute(mi, old, old, math.Inf(1))
			gp, gl, gk := ls.EvalReroute(mi, old, new, limit)
			switch {
			case wp <= limit && (gp != wp || gl != wl || gk != wk):
				t.Fatalf("msg %d onto %v, limit %v: (%v, %v, %v), exact (%v, %v, %v)", mi, new, limit, gp, gl, gk, wp, wl, wk)
			case wp > limit && !(gp > limit):
				t.Fatalf("msg %d onto %v, limit %v: peak %v, exact %v is above the limit", mi, new, limit, gp, wp)
			case gp != wp || gl != wl || gk != wk:
				*early++
			}
		}
		return wp, wl, wk
	}
}

// peakCacheCounts tallies what the ApplyReroute calls of a walk did to
// the peak cache — repaired an incomplete one in place, rebuilt it,
// overflowed a complete one — and the most links one call changed.
type peakCacheCounts struct{ repairs, rebuilds, overflows, maxChanged int }

func (n *peakCacheCounts) add(o peakCacheCounts) {
	n.repairs += o.repairs
	n.rebuilds += o.rebuilds
	n.overflows += o.overflows
	n.maxChanged = max(n.maxChanged, o.maxChanged)
}

// peakCacheWalk is one seeded walk of TestPeakCacheMatchesRebuild from
// a copy of f's assignment; eval is how it asks for an eval's exact
// triple.
func peakCacheWalk(t *testing.T, seed int64, f walkFixture, eval evalFunc) peakCacheCounts {
	t.Helper()
	top, pa, ws, act, cands, multi := f.top, f.pa.Clone(), f.ws, f.act, f.cands, f.multi
	rng := rand.New(rand.NewSource(seed))
	ws2, act2, cap2 := rebinding(top, ws, act, rng)
	type binding struct {
		ws      []Window
		act     *Activity
		linkCap []float64
	}
	bindings := []binding{{ws, act, nil}, {ws2, act2, cap2}}
	cur := 0
	var arena solveArena
	ls := arena.loadState(top, pa, ws, act, nil)

	var n peakCacheCounts
	step, op := 0, "initial"
	// check compares the cache with a rebuild and then puts it back, so
	// the walk goes on from what the repairs left, and PeakPosition, the
	// cache's head, with a scan of every link.
	check := func() {
		t.Helper()
		gp, gl, gk := ls.PeakPosition()
		if sp, sl, sk := peakScan(ls); !samePeakBits(gp, sp) || gl != sl || gk != sk {
			t.Fatalf("seed %d step %d %s: PeakPosition (%v, %v, %v) != a scan of every link (%v, %v, %v)", seed, step, op, gp, gl, gk, sp, sl, sk)
		}
		got, all := slices.Clone(ls.topk), ls.topkAll
		ls.rebuildTopK()
		touched := 0
		ls.touched.forEach(func(int) { touched++ })
		for i, j := range got {
			if i >= len(ls.topk) || j != ls.topk[i] {
				t.Fatalf("seed %d step %d %s: cache entry %d of %d is link %d, a rebuild's %d of %d is %v",
					seed, step, op, i, len(got), j, i, len(ls.topk), ls.topk[i:min(i+1, len(ls.topk))])
			}
		}
		switch {
		case all && len(got) != touched:
			t.Fatalf("seed %d step %d %s: cache holds %d links, claims all %d touched", seed, step, op, len(got), touched)
		case !all && (len(got) >= touched || len(got) < topkFloor):
			t.Fatalf("seed %d step %d %s: incomplete cache holds %d of %d touched links (floor %d)", seed, step, op, len(got), touched, topkFloor)
		}
		ls.topk, ls.topkAll = append(ls.topk[:0], got...), all
	}
	move := func(undo bool, mi tfg.MessageID, from, to []topology.LinkID) {
		t.Helper()
		all, rebuilds := ls.topkAll, ls.topkRebuilds
		if undo {
			ls.Undo(mi, from, to)
		} else {
			ls.ApplyReroute(mi, from, to)
		}
		switch {
		case ls.topkRebuilds > rebuilds:
			n.rebuilds++
		case !all:
			n.repairs++
		case !ls.topkAll:
			n.overflows++
		}
		n.maxChanged = max(n.maxChanged, len(ls.changed))
		check()
	}

	check()
	for step = 0; step < 300; step++ {
		// Half the moves take a message off the peak link, as the
		// hill-climb does: they push leading entries out of the cache.
		mi := multi[rng.Intn(len(multi))]
		if rng.Intn(2) == 0 {
			_, pl, pk := ls.PeakPosition()
			if on := reroutable(cands, bindings[cur].act, ls, assignPosition{pl, pk}, nil); len(on) > 0 {
				mi = on[rng.Intn(len(on))]
			}
		}
		list := routesOf(cands, mi)
		old := pa.Links[mi]
		c := list[rng.Intn(len(list))]
		switch r := rng.Intn(10); {
		case r < 4:
			op = "apply"
			move(false, mi, old, c.links)
			pa.SetPath(mi, c.path, c.links)
		case r < 5:
			op = "undo"
			move(false, mi, old, c.links)
			move(true, mi, old, c.links)
		case r < 8:
			op = "eval"
			for ci, c := range list {
				gp, gl, gk := eval(ls, mi, old, c.links)
				n.maxChanged = max(n.maxChanged, len(ls.changed))
				check()
				move(false, mi, old, c.links)
				wp, wl, wk := ls.PeakPosition()
				move(true, mi, old, c.links)
				if gp != wp || gl != wl || gk != wk {
					t.Fatalf("seed %d step %d eval msg %d cand %d: (%v, %v, %v) != apply-peek-undo (%v, %v, %v)",
						seed, step, mi, ci, gp, gl, gk, wp, wl, wk)
				}
			}
		case r < 9:
			op = "reset"
			f.reroll(pa, rng)
			ls.Reset(pa)
			check()
		default:
			op = "rebind"
			cur = 1 - cur
			b := bindings[cur]
			if got := arena.loadState(top, pa, b.ws, b.act, b.linkCap); got != ls {
				t.Fatalf("seed %d step %d: arena built a new LoadState for unchanged dimensions", seed, step)
			}
			check()
		}
	}
	return n
}

// antipodeFixture puts n messages on a 2-D torus, each from a random
// node to the node half way round both rings, with three candidates:
// unrouted, x then y, and y then x. The two routes share no link. The
// windows are random in a frame of 100; every fifth message has no
// slack.
func antipodeFixture(t *testing.T, top *topology.Topology, n int, rng *rand.Rand) (*PathAssignment, []Window, *Activity, *Candidates, []tfg.MessageID) {
	t.Helper()
	const tauIn = 100.0
	ws := make([]Window, n)
	pa := &PathAssignment{Paths: make([]topology.Path, n), Links: make([][]topology.LinkID, n)}
	cands := &Candidates{PathsOf: make([][]topology.Path, n), LinksOf: make([][][]topology.LinkID, n)}
	multi := make([]tfg.MessageID, n)
	radices := top.Radices()
	for i := range ws {
		length := 20 + 40*rng.Float64()
		xmit := length * (0.1 + 0.8*rng.Float64())
		if i%5 == 0 {
			xmit = length
		}
		release := tauIn * rng.Float64()
		ws[i] = Window{Release: release, AbsRelease: release, Length: length, Xmit: xmit}
		src := topology.NodeID(rng.Intn(top.Nodes()))
		d := top.Digits(src)
		for k := range d {
			d[k] = (d[k] + radices[k]/2) % radices[k]
		}
		dst := top.FromDigits(d)
		xy, yx := dimOrderRoute(t, top, src, dst, 0, 1), dimOrderRoute(t, top, src, dst, 1, 0)
		cands.PathsOf[i] = []topology.Path{{}, xy.path, yx.path}
		cands.LinksOf[i] = [][]topology.LinkID{nil, xy.links, yx.links}
		multi[i] = tfg.MessageID(i)
	}
	return pa, ws, BuildActivity(ws, BuildIntervals(ws, tauIn)), cands, multi
}

// dimOrderRoute walks from src to dst correcting one dimension after
// another in the given order, one step up its ring a hop.
func dimOrderRoute(t *testing.T, top *topology.Topology, src, dst topology.NodeID, dims ...int) testRoute {
	t.Helper()
	cur, want, radices := top.Digits(src), top.Digits(dst), top.Radices()
	p := topology.Path{Nodes: []topology.NodeID{src}}
	for _, d := range dims {
		for cur[d] != want[d] {
			cur[d] = (cur[d] + 1) % radices[d]
			p.Nodes = append(p.Nodes, top.FromDigits(cur))
		}
	}
	links, err := p.Links(top)
	if err != nil {
		t.Fatal(err)
	}
	return testRoute{path: p, links: links}
}

// testRoute is one candidate of a message: a path and, row for row, its
// links.
type testRoute struct {
	path  topology.Path
	links []topology.LinkID
}

// routesOf pairs message mi's candidate paths with their links.
func routesOf(c *Candidates, mi tfg.MessageID) []testRoute {
	out := make([]testRoute, len(c.PathsOf[mi]))
	for k, p := range c.PathsOf[mi] {
		out[k] = testRoute{p, c.LinksOf[mi][k]}
	}
	return out
}

// TestComputeUtilizationMatchesReference holds ComputeUtilization, a
// pooled LoadState's read, to the dense reference bit for bit — LinkU,
// the peak and its position — on the LSD baseline and the AssignPaths
// assignment of every compile_lp pool entry and standard-grid point.
func TestComputeUtilizationMatchesReference(t *testing.T) {
	pool, opt := compileLPPool(t)
	n := 0
	for _, e := range append(pool, standardGrid(t)...) {
		lsd, ws, act, cands, _ := routeFixture(t, e.p, nil)
		top := e.p.Topology
		climbed := AssignPaths(lsd, cands, top, ws, act, opt.Seed, 6, 60)
		for _, pa := range []*PathAssignment{lsd, climbed.Assignment} {
			sameUtilization(t, e.id, ComputeUtilization(top, pa, ws, act), computeUtilizationReference(top, pa, ws, act, nil))
			n++
		}
	}
	t.Logf("%d assignments", n)
}
