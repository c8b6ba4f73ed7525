package schedule

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// fakeAssignment builds a PathAssignment where message i uses exactly
// the given links (no real topology needed for the decomposition
// tests).
func fakeAssignment(linkSets [][]topology.LinkID) *PathAssignment {
	pa := &PathAssignment{
		Paths: make([]topology.Path, len(linkSets)),
		Links: linkSets,
	}
	return pa
}

// conflictFixture returns an arena whose scratch holds the link lists
// and the conflict rows of messages 0..len(links)-1, message i on
// links[i], and their demands dem.
func conflictFixture(links [][]topology.LinkID, dem ...float64) *solveArena {
	a := new(solveArena)
	msgs := make([]tfg.MessageID, len(links))
	for i := range msgs {
		msgs[i] = tfg.MessageID(i)
	}
	a.sched.loadLinks(msgs, fakeAssignment(links))
	a.sched.buildConflict(len(msgs))
	a.sched.dem = dem
	return a
}

// flatten lays a reference's sets out as a flat list and its offsets,
// the shape of resFlat/resOffs and misFlat/misOffs.
func flatten(sets [][]int) (flat, offs []int32) {
	offs = []int32{0}
	for _, set := range sets {
		for _, v := range set {
			flat = append(flat, int32(v))
		}
		offs = append(offs, int32(len(flat)))
	}
	return flat, offs
}

// setOf is set si of a flat list and its offsets.
func setOf(flat, offs []int32, si int) []int32 { return flat[offs[si]:offs[si+1]] }

func TestConflictMatrix(t *testing.T) {
	sc := &conflictFixture([][]topology.LinkID{
		{0, 1},
		{1, 2},
		{3},
	}).sched
	if !sc.conflict(3, 0, 1) || !sc.conflict(3, 1, 0) {
		t.Error("messages sharing link 1 must conflict")
	}
	if sc.conflict(3, 0, 2) || sc.conflict(3, 1, 2) {
		t.Error("disjoint messages must not conflict")
	}
	if sc.conflict(3, 0, 0) || sc.conflict(3, 1, 1) {
		t.Error("no self conflicts")
	}
}

// mapConflictMatrix is the original map[LinkID]bool implementation,
// kept as the reference the bitset version is property-checked against.
func mapConflictMatrix(msgs []tfg.MessageID, pa *PathAssignment) [][]bool {
	n := len(msgs)
	linkSets := make([]map[topology.LinkID]bool, n)
	for i, mi := range msgs {
		linkSets[i] = map[topology.LinkID]bool{}
		for _, l := range pa.Links[mi] {
			linkSets[i][l] = true
		}
	}
	c := make([][]bool, n)
	for i := range c {
		c[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for l := range linkSets[i] {
				if linkSets[j][l] {
					c[i][j], c[j][i] = true, true
					break
				}
			}
		}
	}
	return c
}

func TestConflictMatrixMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		linkSets := make([][]topology.LinkID, n)
		msgs := make([]tfg.MessageID, n)
		for i := 0; i < n; i++ {
			msgs[i] = tfg.MessageID(i)
			hops := rng.Intn(6)
			for h := 0; h < hops; h++ {
				// Span several bitset words to catch word-index bugs.
				linkSets[i] = append(linkSets[i], topology.LinkID(rng.Intn(160)))
			}
		}
		sc := &conflictFixture(linkSets).sched
		want := mapConflictMatrix(msgs, fakeAssignment(linkSets))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := sc.conflict(n, i, j); got != want[i][j] {
					t.Fatalf("trial %d: conflict[%d][%d] = %v, map reference says %v (links %v vs %v)",
						trial, i, j, got, want[i][j], linkSets[i], linkSets[j])
				}
			}
		}
	}
}

func TestErrIntervalInfeasibleFormat(t *testing.T) {
	err := &ErrIntervalInfeasible{Interval: 2, Need: 10.0 / 3.0, Have: 3.0000001}
	// %.6g fixed precision keeps need/have stably comparable across
	// parallel failure logs.
	want := "schedule: interval 2 needs 3.33333 but only has 3"
	if got := err.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

func TestGreedyDecomposeDisjointRunsTogether(t *testing.T) {
	sc := &conflictFixture([][]topology.LinkID{{0}, {1}, {2}}, 5, 5, 5).sched
	sc.greedyDecomposeInto(3)
	total := 0.0
	for _, d := range sc.resDur {
		total += d
	}
	if math.Abs(total-5) > 1e-9 {
		t.Errorf("disjoint messages should run fully parallel: total %g, want 5", total)
	}
	if !slices.Equal(sc.resOffs, []int32{0, 3}) {
		t.Errorf("sets %v at offsets %v, want one set of all 3", sc.resFlat, sc.resOffs)
	}
}

func TestGreedyDecomposeConflictSerializes(t *testing.T) {
	sc := &conflictFixture([][]topology.LinkID{{0}, {0}}, 4, 6).sched
	sc.greedyDecomposeInto(2)
	total := 0.0
	for _, d := range sc.resDur {
		total += d
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("conflicting messages serialize: total %g, want 10", total)
	}
}

func TestExactDecomposeBeatsNaive(t *testing.T) {
	// Triangle-free case where exact packs perfectly: messages A{0},
	// B{1}, C{0,1}. A and B run together; C alone. Total = max(a,b)+c.
	links := [][]topology.LinkID{{0}, {1}, {0, 1}}
	a := conflictFixture(links, 3, 5, 2)
	if err := exactDecomposeInto(context.Background(), a, 3); err != nil {
		t.Fatal(err)
	}
	sc := &a.sched
	total := 0.0
	for _, d := range sc.resDur {
		total += d
	}
	if total > 7+1e-6 {
		t.Errorf("exact total %g, want <= 7", total)
	}
	// Every returned set must be independent.
	conf := mapConflictMatrix([]tfg.MessageID{0, 1, 2}, fakeAssignment(links))
	for si := range sc.resDur {
		set := setOf(sc.resFlat, sc.resOffs, si)
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				if conf[set[i]][set[j]] {
					t.Fatalf("set %v not link-feasible", set)
				}
			}
		}
	}
}

func TestMaximalIndependentSets(t *testing.T) {
	// Path graph 0-1-2 (conflicts 0~1 on link 0, 1~2 on link 1):
	// MIS = {0,2}, {1}.
	sc := &conflictFixture([][]topology.LinkID{{0}, {0, 1}, {1}}).sched
	if !sc.enumerateMIS(3, 100) {
		t.Fatal("cap tripped on 2 sets")
	}
	flat, offs := flatten([][]int{{0, 2}, {1}})
	if !slices.Equal(sc.misFlat, flat) || !slices.Equal(sc.misOffs, offs) {
		t.Errorf("sets %v at offsets %v, want %v at %v", sc.misFlat, sc.misOffs, flat, offs)
	}
}

func TestMaximalIndependentSetsCap(t *testing.T) {
	// An empty conflict graph on 5 vertices (one link each) has exactly
	// one maximal set: everything.
	sc := &conflictFixture([][]topology.LinkID{{0}, {1}, {2}, {3}, {4}}).sched
	flat, offs := flatten([][]int{{0, 1, 2, 3, 4}})
	if !sc.enumerateMIS(5, 100) || !slices.Equal(sc.misFlat, flat) || !slices.Equal(sc.misOffs, offs) {
		t.Errorf("empty conflict graph should have one maximal set, got %v at offsets %v", sc.misFlat, sc.misOffs)
	}
	// A perfect matching (message i on link i/2) has 2^10 maximal sets;
	// the cap must trip.
	links := make([][]topology.LinkID, 20)
	for i := range links {
		links[i] = []topology.LinkID{topology.LinkID(i / 2)}
	}
	sc = &conflictFixture(links).sched
	if sc.enumerateMIS(20, 64) {
		t.Errorf("cap should have tripped, got %d sets", len(sc.misOffs)-1)
	}
}

// TestExactDecomposePastOneWord runs the enumerator and the exact
// engine on intervals of more than 64 messages, where the conflict rows
// span two words and enumeration takes the slice path. Each input is a
// union of disjoint cliques, message i on link i mod c, whose maximal
// link-feasible sets take one member from each clique: every enumerated
// set must be independent and maximal according to mapConflictMatrix
// and appear once, and the count must be the product of the clique
// sizes, or the cap must trip on set 4097 when that product is over
// 4096. Blow-ups of small random graphs, where the exclusion lists
// matter, are held to a count from the one-word enumerator. On two
// 33-cliques (1 089 sets) the exact optimum serializes the heavier one.
func TestExactDecomposePastOneWord(t *testing.T) {
	cliques := func(n, c int) [][]topology.LinkID {
		links := make([][]topology.LinkID, n)
		for i := range links {
			links[i] = []topology.LinkID{topology.LinkID(i % c)}
		}
		return links
	}
	// check enumerates the sets of messages on links, want of them.
	check := func(name string, links [][]topology.LinkID, want int) {
		t.Helper()
		n := len(links)
		msgs := make([]tfg.MessageID, n)
		for i := range msgs {
			msgs[i] = tfg.MessageID(i)
		}
		conf := mapConflictMatrix(msgs, fakeAssignment(links))
		sc := &conflictFixture(links).sched
		ok := sc.enumerateMIS(n, 4096)
		seen := map[string]bool{}
		for si := range len(sc.misOffs) - 1 {
			set := setOf(sc.misFlat, sc.misOffs, si)
			in := make([]bool, n)
			for _, u := range set {
				in[u] = true
				for _, v := range set {
					if u != v && conf[u][v] {
						t.Fatalf("%s: set %v holds conflicting messages %d and %d", name, set, u, v)
					}
				}
			}
			for v := range n {
				if !in[v] && !slices.ContainsFunc(set, func(u int32) bool { return conf[u][v] }) {
					t.Fatalf("%s: set %v is not maximal: %d conflicts with none of it", name, set, v)
				}
			}
			sorted := slices.Clone(set)
			slices.Sort(sorted)
			key := fmt.Sprint(sorted)
			if seen[key] {
				t.Fatalf("%s: set %v enumerated twice", name, set)
			}
			seen[key] = true
		}
		switch got := len(seen); {
		case want > 4096 && (ok || got != 4097):
			t.Fatalf("%s: %d maximal sets (cap tripped %t), want the cap to trip on set 4097 of %d", name, got, !ok, want)
		case want <= 4096 && (!ok || got != want):
			t.Fatalf("%s: %d maximal sets (cap tripped %t), want %d", name, got, !ok, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		n, c := 65+rng.Intn(60), 2+rng.Intn(3)
		want := 1
		for k := 0; k < c; k++ {
			want *= (n - k + c - 1) / c
		}
		check(fmt.Sprintf("cliques %d: %d messages on %d links", trial, n, c), cliques(n, c), want)
	}
	// On a union of cliques no exclusion list reaches a child frame. On
	// a blow-up of a graph H it can: message i has vertex i mod len(h)'s
	// links h[i mod len(h)] plus that vertex's private one, so every
	// vertex becomes a clique, and each maximal set of H yields the
	// product of its vertices' clique sizes. The one-word enumerator
	// lists H's maximal sets.
	blowUp := func(name string, h [][]topology.LinkID, n int) {
		t.Helper()
		k := len(h)
		links := make([][]topology.LinkID, n)
		size := make([]int, k)
		for i := range links {
			links[i] = append([]topology.LinkID{topology.LinkID(64 + i%k)}, h[i%k]...)
			size[i%k]++
		}
		sc := &conflictFixture(h).sched
		sc.enumerateMIS(k, 4096)
		want := 0
		for si := range len(sc.misOffs) - 1 {
			prod := 1
			for _, v := range setOf(sc.misFlat, sc.misOffs, si) {
				prod *= size[v]
			}
			want += prod
		}
		check(fmt.Sprintf("%s: %d messages over %d vertices", name, n, k), links, want)
	}
	for trial := 0; trial < 12; trial++ {
		k := 4 + rng.Intn(5)
		h := make([][]topology.LinkID, k)
		for v := range h {
			for c := 1 + rng.Intn(2); c > 0; c-- {
				h[v] = append(h[v], topology.LinkID(rng.Intn(k)))
			}
		}
		blowUp(fmt.Sprintf("blow-up %d", trial), h, 65+rng.Intn(60))
	}
	// The pivot u conflicts with v1 and v2, which do not conflict; w1..w3
	// conflict with v1, v2 and each other but not with u. The last v2
	// branch runs after every v1 has left the candidates, and only the
	// exclusion list keeps it from emitting a lone v2.
	blowUp("u v1 v2 w1 w2 w3", [][]topology.LinkID{{0, 1}, {0, 2}, {1, 3}, {2, 3, 4}, {2, 3, 4}, {2, 3, 4}}, 70)

	const half = 33
	check("two 33-cliques", cliques(2*half, 2), half*half)
	dem := make([]float64, 2*half)
	sums := [2]float64{}
	for i := range dem {
		dem[i] = 1 + float64(i%7)/4
		sums[i%2] += dem[i]
	}
	a := conflictFixture(cliques(2*half, 2), dem...)
	if err := exactDecomposeInto(context.Background(), a, 2*half); err != nil {
		t.Fatal(err)
	}
	sc := &a.sched
	got := make([]float64, 2*half)
	total := 0.0
	for si, d := range sc.resDur {
		for _, v := range setOf(sc.resFlat, sc.resOffs, si) {
			got[v] += d
		}
		total += d
	}
	for i := range dem {
		if got[i] < dem[i]-1e-9 {
			t.Errorf("message %d covered %g of its demand %g", i, got[i], dem[i])
		}
	}
	if want := max(sums[0], sums[1]); math.Abs(total-want) > 1e-6 {
		t.Errorf("exact total %g, want the heavier clique's %g", total, want)
	}
}

func TestScheduleOneRejectsOverflow(t *testing.T) {
	// Two conflicting no-slack messages in one interval cannot fit.
	ws := []Window{
		{Release: 0, Length: 10, Xmit: 8},
		{Release: 0, Length: 10, Xmit: 8},
	}
	set := &IntervalSet{TauIn: 10, Endpoints: []float64{0, 10}}
	act := BuildActivity(ws, set)
	pa := fakeAssignment([][]topology.LinkID{{0}, {0}})
	al := &Allocation{P: [][]float64{{8}, {8}}}
	_, err := ScheduleIntervals(al, pa, act, EngineAuto, 0)
	if err == nil {
		t.Fatal("16 µs of conflicting traffic cannot fit a 10 µs interval")
	}
	var infeasible *ErrIntervalInfeasible
	if !errors.As(err, &infeasible) {
		t.Fatalf("error type %T, want ErrIntervalInfeasible via errors.As", err)
	}
	if infeasible.Interval != 0 || infeasible.Need <= infeasible.Have {
		t.Errorf("unexpected fields: %+v", infeasible)
	}
	if !strings.Contains(err.Error(), "needs 16 but only has 10") {
		t.Errorf("message %q lacks fixed-precision need/have", err.Error())
	}
}

func TestScheduleIntervalsTrimsExactly(t *testing.T) {
	ws := []Window{
		{Release: 0, Length: 10, Xmit: 3},
		{Release: 0, Length: 10, Xmit: 7},
	}
	set := &IntervalSet{TauIn: 10, Endpoints: []float64{0, 10}}
	act := BuildActivity(ws, set)
	pa := fakeAssignment([][]topology.LinkID{{0}, {0}})
	al := &Allocation{P: [][]float64{{3}, {7}}}
	slices, err := ScheduleIntervals(al, pa, act, EngineAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[tfg.MessageID]float64{}
	for _, sl := range slices {
		for i, m := range sl.Msgs {
			got[m] += sl.Until[i] - sl.Start
		}
	}
	if math.Abs(got[0]-3) > 1e-9 || math.Abs(got[1]-7) > 1e-9 {
		t.Errorf("transmitted %v, want 3 and 7", got)
	}
}

// benchConflictFixture builds a 20-message fixture with 4-hop paths
// over 160 links, the shape the interval scheduler sees on the 64-node
// networks.
func benchConflictFixture() ([]tfg.MessageID, *PathAssignment) {
	rng := rand.New(rand.NewSource(9))
	n := 20
	linkSets := make([][]topology.LinkID, n)
	msgs := make([]tfg.MessageID, n)
	for i := 0; i < n; i++ {
		msgs[i] = tfg.MessageID(i)
		for h := 0; h < 4; h++ {
			linkSets[i] = append(linkSets[i], topology.LinkID(rng.Intn(160)))
		}
	}
	return msgs, fakeAssignment(linkSets)
}

// BenchmarkConflictMatrixBitset times buildConflict on one reused
// scratch with the link lists loaded: the exact engine's build only,
// which scheduleOne runs for the intervals that engine takes (the
// greedy decomposition reads link marks, not the matrix).
// BenchmarkConflictMatrixMapReference times the map[LinkID]bool matrix
// it replaced. Both are recorded in docs/results-latest.txt.
func BenchmarkConflictMatrixBitset(b *testing.B) {
	msgs, pa := benchConflictFixture()
	var sc schedScratch
	sc.loadLinks(msgs, pa)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.buildConflict(len(msgs))
	}
}

func BenchmarkConflictMatrixMapReference(b *testing.B) {
	msgs, pa := benchConflictFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mapConflictMatrix(msgs, pa)
	}
}

// greedyDecomposeReference is the decomposition as first written: every
// round collects the live messages and sorts them from scratch by
// (remaining desc, index asc). The arena version maintains that order
// across rounds instead and must reproduce this one exactly.
func greedyDecomposeReference(msgs []tfg.MessageID, demands map[tfg.MessageID]float64, conf [][]bool) ([][]int, []float64) {
	remaining := make([]float64, len(msgs))
	for i, m := range msgs {
		remaining[i] = demands[m]
	}
	var sets [][]int
	var durations []float64
	for {
		var order []int
		for i := range msgs {
			if remaining[i] > timeEps {
				order = append(order, i)
			}
		}
		if len(order) == 0 {
			return sets, durations
		}
		sort.Slice(order, func(a, b int) bool {
			ra, rb := remaining[order[a]], remaining[order[b]]
			return ra > rb || (ra == rb && order[a] < order[b])
		})
		var set []int
		for _, i := range order {
			ok := true
			for _, j := range set {
				if conf[i][j] {
					ok = false
					break
				}
			}
			if ok {
				set = append(set, i)
			}
		}
		d := remaining[set[0]]
		for _, i := range set {
			d = math.Min(d, remaining[i])
		}
		for _, i := range set {
			remaining[i] -= d
		}
		sets = append(sets, set)
		durations = append(durations, d)
	}
}

// Property: greedy decomposition always meets demands exactly, every
// emitted set is independent, and sets (in emission order) and durations
// equal the sort-every-round reference bit for bit — on demands chosen
// to tie: all equal, neighbours one ulp apart, small integers whose
// differences meet other demands, and pairs one ulp apart that a
// subtraction rounds onto the same value. Outside the last mode, every
// message whose link seed is odd crosses its link twice and a second
// link seeded from its demand, so some paths repeat a link and some
// pairs share only the second one. Every run starts its link marks
// just before their epoch wraps.
func TestQuickGreedyDecompose(t *testing.T) {
	const ulp = 1.0 / (1 << 52) // spacing of float64 in [1, 2)
	f := func(seedLinks []uint8, seedDemands []uint8, mode uint8) bool {
		n := len(seedLinks)
		if n == 0 {
			return true
		}
		if n > 12 {
			n = 12
		}
		linkSets := make([][]topology.LinkID, n)
		msgs := make([]tfg.MessageID, n)
		demands := map[tfg.MessageID]float64{}
		for i := 0; i < n; i++ {
			linkSets[i] = []topology.LinkID{topology.LinkID(seedLinks[i] % 4)}
			msgs[i] = tfg.MessageID(i)
			sd := uint8(0)
			if i < len(seedDemands) {
				sd = seedDemands[i]
			}
			var d float64
			switch mode % 5 {
			case 0:
				d = float64(sd%10) + 1
			case 1:
				d = 2.5
			case 2:
				d = 1.5 + float64(sd%2)*ulp
			case 3:
				d = float64(sd%3) + 1
			case 4:
				// 1.5+2k·ulp and 1.5+(2k+1)·ulp both round to
				// 1.5-2^-10+2k·ulp when 2^-10+ulp/2 is subtracted
				// (exact halves, ties to even); every third message
				// carries that subtrahend and the three share no link.
				linkSets[i] = []topology.LinkID{topology.LinkID(i%3 + 4*int(seedLinks[i]%2))}
				if i%3 == 2 {
					d = 1.0/1024 + ulp/2
				} else {
					d = 1.5 + float64(sd%4)*ulp
				}
			}
			demands[msgs[i]] = d
			if mode%5 != 4 && seedLinks[i]%2 == 1 {
				l := linkSets[i][0]
				linkSets[i] = append(linkSets[i], topology.LinkID(8+sd%4), l)
			}
		}
		dem := make([]float64, n)
		for i, m := range msgs {
			dem[i] = demands[m]
		}
		sc := &conflictFixture(linkSets, dem...).sched
		// The marks' epoch wraps within the first rounds, past the stamps
		// 1..n buildConflict left, which must not read as marks.
		sc.epoch = math.MaxUint32 - uint32(mode%3)
		sc.greedyDecomposeInto(n)
		conf := mapConflictMatrix(msgs, fakeAssignment(linkSets))
		wantSets, wantDurations := greedyDecomposeReference(msgs, demands, conf)
		wantFlat, wantOffs := flatten(wantSets)
		if !slices.Equal(sc.resFlat, wantFlat) || !slices.Equal(sc.resOffs, wantOffs) || !slices.Equal(sc.resDur, wantDurations) {
			t.Logf("mode %d demands %v:\n got %v %v %v\nwant %v %v", mode%5, demands, sc.resFlat, sc.resOffs, sc.resDur, wantSets, wantDurations)
			return false
		}
		served := make([]float64, n)
		for si, d := range sc.resDur {
			set := setOf(sc.resFlat, sc.resOffs, si)
			for i := 0; i < len(set); i++ {
				for j := i + 1; j < len(set); j++ {
					if conf[set[i]][set[j]] {
						return false
					}
				}
				served[set[i]] += d
			}
		}
		for i := 0; i < n; i++ {
			if math.Abs(served[i]-demands[msgs[i]]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// chainReference is chainSets over [][]int: place set 0, then
// repeatedly the unplaced set sharing the most members with the last
// placed one, among the first chainWindow unplaced in emission order,
// ties to the earlier.
func chainReference(sets [][]int, durations []float64) ([][]int, []float64) {
	pending := make([]int, 0, len(sets))
	for si := 1; si < len(sets); si++ {
		pending = append(pending, si)
	}
	outSets, outDur := [][]int{sets[0]}, []float64{durations[0]}
	last := sets[0]
	for len(pending) > 0 {
		pick, most := 0, -1
		for p := 0; p < len(pending) && p < chainWindow; p++ {
			shared := 0
			for _, i := range sets[pending[p]] {
				if slices.Contains(last, i) {
					shared++
				}
			}
			if shared > most {
				pick, most = p, shared
			}
		}
		si := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		outSets, outDur = append(outSets, sets[si]), append(outDur, durations[si])
		last = sets[si]
	}
	return outSets, outDur
}

// Property: chainSets permutes the emitted (set, duration) pairs —
// sc.chain is a permutation of their indices with set 0 first, and the
// arenas are left as they were — and the order is the one
// chainReference picks. Decompositions are random subsets of up to 150
// messages, so rows span several words and the window bites.
func TestQuickChainSetsPermutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		var sets [][]int
		var durations []float64
		for s := rng.Intn(80); s >= 0; s-- {
			sets = append(sets, rng.Perm(n)[:1+rng.Intn(min(n, 12))])
			durations = append(durations, float64(1+rng.Intn(9)))
		}
		var sc schedScratch
		sc.resFlat, sc.resOffs = flatten(sets)
		sc.resDur = slices.Clone(durations)
		sc.chainSets(n)
		emittedFlat, emittedOffs := flatten(sets)
		if !slices.Equal(sc.resFlat, emittedFlat) || !slices.Equal(sc.resOffs, emittedOffs) || !slices.Equal(sc.resDur, durations) {
			t.Logf("seed %d: chainSets changed the emitted sets", seed)
			return false
		}
		perm := slices.Clone(sc.chain)
		slices.Sort(perm)
		for si := range sets {
			if sc.chain[0] != 0 || len(perm) != len(sets) || perm[si] != int32(si) {
				t.Logf("seed %d: chain %v is not a permutation of %d sets with set 0 first", seed, sc.chain, len(sets))
				return false
			}
		}
		got, gotOffs := []int32(nil), []int32{0}
		var gotDur []float64
		for _, si := range sc.chain {
			got = append(got, setOf(sc.resFlat, sc.resOffs, int(si))...)
			gotOffs = append(gotOffs, int32(len(got)))
			gotDur = append(gotDur, sc.resDur[si])
		}
		want, wantDur := chainReference(sets, durations)
		wantFlat, wantOffs := flatten(want)
		if !slices.Equal(got, wantFlat) || !slices.Equal(gotOffs, wantOffs) || !slices.Equal(gotDur, wantDur) {
			t.Logf("seed %d: got %v %v %v, want %v %v", seed, got, gotOffs, gotDur, want, wantDur)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// compileLargeCase is one machine of the repository benchmark's
// compile_large workload: the layered:7,32,64*6,32,0.03 graph (448
// tasks, 1153 messages) placed round-robin, solved at Seed 1.
type compileLargeCase struct {
	name string
	p    Problem
	res  *Result
}

var compileLargeOnce = sync.OnceValues(func() ([]compileLargeCase, error) {
	g, err := tfg.RandomLayered(7, []int{32, 64, 64, 64, 64, 64, 64, 32}, 400, 1925, 192, 3200, 0.03)
	if err != nil {
		return nil, err
	}
	cube, err := topology.NewHypercube(10)
	if err != nil {
		return nil, err
	}
	torus, err := topology.NewTorus(32, 32)
	if err != nil {
		return nil, err
	}
	var cases []compileLargeCase
	for _, m := range []struct {
		name string
		top  *topology.Topology
		bw   float64
	}{{"cube:10", cube, 512}, {"torus:32,32", torus, 2048}} {
		tm, err := tfg.NewUniformTiming(g, 50, m.bw)
		if err != nil {
			return nil, err
		}
		as, err := alloc.RoundRobin(g, m.top)
		if err != nil {
			return nil, err
		}
		p := Problem{Graph: g, Timing: tm, Topology: m.top, Assignment: as, TauIn: 200}
		res, err := Compute(p, Options{Seed: 1})
		if err != nil {
			return nil, err
		}
		if !res.Feasible {
			return nil, fmt.Errorf("%s: infeasible at %v", m.name, res.FailStage)
		}
		cases = append(cases, compileLargeCase{m.name, p, res})
	}
	return cases, nil
})

// compileLarge returns both compile_large machines, solved once per test
// binary.
func compileLarge(t *testing.T) []compileLargeCase {
	t.Helper()
	if testing.Short() {
		t.Skip("solves two 1024-node machines")
	}
	cases, err := compileLargeOnce()
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestGreedyMatchesReferenceCompileLarge holds the link-mark greedy to
// the sort-every-round reference over mapConflictMatrix on every
// interval of both compile_large machines that the greedy decomposes
// under EngineAuto: the same sets, in the same order, for the same
// durations.
func TestGreedyMatchesReferenceCompileLarge(t *testing.T) {
	for _, c := range compileLarge(t) {
		greedy := 0
		for k := 0; k < c.res.Activity.Intervals.K(); k++ {
			var msgs []tfg.MessageID
			var dem []float64
			demands := map[tfg.MessageID]float64{}
			for i, row := range c.res.Allocation.P {
				if row != nil && row[k] > timeEps {
					msgs = append(msgs, tfg.MessageID(i))
					dem = append(dem, row[k])
					demands[tfg.MessageID(i)] = row[k]
				}
			}
			n := len(msgs)
			if n <= exactLimit {
				continue
			}
			greedy++
			var sc schedScratch
			sc.msgs, sc.dem = msgs, dem
			sc.loadLinks(msgs, c.res.Assignment)
			sc.greedyDecomposeInto(n)
			wantSets, wantDur := greedyDecomposeReference(msgs, demands, mapConflictMatrix(msgs, c.res.Assignment))
			wantFlat, wantOffs := flatten(wantSets)
			if !slices.Equal(sc.resFlat, wantFlat) || !slices.Equal(sc.resOffs, wantOffs) || !slices.Equal(sc.resDur, wantDur) {
				t.Fatalf("%s interval %d (%d messages): %d sets, the reference emits %d, or their members or durations differ",
					c.name, k, n, len(sc.resDur), len(wantDur))
			}
		}
		if greedy == 0 {
			t.Fatalf("%s: no interval goes to the greedy decomposition", c.name)
		}
		t.Logf("%s: %d greedy intervals match", c.name, greedy)
	}
}

// TestGreedyIntervalsBuildNoConflictMatrix: the conflict matrix is the
// exact engine's alone. An interval the greedy decomposes under
// EngineAuto leaves it unbuilt; one the exact engine takes builds it.
func TestGreedyIntervalsBuildNoConflictMatrix(t *testing.T) {
	run := func(n int) *solveArena {
		t.Helper()
		ws := make([]Window, n)
		links := make([][]topology.LinkID, n)
		al := &Allocation{P: make([][]float64, n)}
		for i := range ws {
			ws[i] = Window{Release: 0, Length: 100, Xmit: 1}
			links[i] = []topology.LinkID{topology.LinkID(i % 5), topology.LinkID(5 + i%3)}
			al.P[i] = []float64{1}
		}
		act := BuildActivity(ws, &IntervalSet{TauIn: 100, Endpoints: []float64{0, 100}})
		var a solveArena
		if _, err := scheduleIntervals(context.Background(), &a, al, fakeAssignment(links), act, EngineAuto, 0); err != nil {
			t.Fatal(err)
		}
		return &a
	}
	if a := run(exactLimit + 1); a.sched.conf != nil {
		t.Errorf("a %d-message interval decomposed greedily built a %d-word conflict matrix", exactLimit+1, len(a.sched.conf))
	}
	if a := run(exactLimit); a.sched.conf == nil {
		t.Errorf("a %d-message interval went to the exact engine without a conflict matrix", exactLimit)
	}
}
