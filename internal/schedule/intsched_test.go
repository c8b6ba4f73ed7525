package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

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

func TestConflictMatrix(t *testing.T) {
	pa := fakeAssignment([][]topology.LinkID{
		{0, 1},
		{1, 2},
		{3},
	})
	msgs := []tfg.MessageID{0, 1, 2}
	c := conflictMatrix(msgs, pa)
	if !c[0][1] || !c[1][0] {
		t.Error("messages sharing link 1 must conflict")
	}
	if c[0][2] || c[1][2] {
		t.Error("disjoint messages must not conflict")
	}
	if c[0][0] || c[1][1] {
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
		pa := fakeAssignment(linkSets)
		got := conflictMatrix(msgs, pa)
		want := mapConflictMatrix(msgs, pa)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d: conflict[%d][%d] = %v, map reference says %v (links %v vs %v)",
						trial, i, j, got[i][j], want[i][j], linkSets[i], linkSets[j])
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
	pa := fakeAssignment([][]topology.LinkID{{0}, {1}, {2}})
	msgs := []tfg.MessageID{0, 1, 2}
	demands := map[tfg.MessageID]float64{0: 5, 1: 5, 2: 5}
	conf := conflictMatrix(msgs, pa)
	sets, durations := greedyDecompose(msgs, demands, conf)
	total := 0.0
	for _, d := range durations {
		total += d
	}
	if math.Abs(total-5) > 1e-9 {
		t.Errorf("disjoint messages should run fully parallel: total %g, want 5", total)
	}
	if len(sets) != 1 || len(sets[0]) != 3 {
		t.Errorf("sets = %v", sets)
	}
}

func TestGreedyDecomposeConflictSerializes(t *testing.T) {
	pa := fakeAssignment([][]topology.LinkID{{0}, {0}})
	msgs := []tfg.MessageID{0, 1}
	demands := map[tfg.MessageID]float64{0: 4, 1: 6}
	conf := conflictMatrix(msgs, pa)
	_, durations := greedyDecompose(msgs, demands, conf)
	total := 0.0
	for _, d := range durations {
		total += d
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("conflicting messages serialize: total %g, want 10", total)
	}
}

func TestExactDecomposeBeatsNaive(t *testing.T) {
	// Triangle-free case where exact packs perfectly: messages A{0},
	// B{1}, C{0,1}. A and B run together; C alone. Total = max(a,b)+c.
	pa := fakeAssignment([][]topology.LinkID{{0}, {1}, {0, 1}})
	msgs := []tfg.MessageID{0, 1, 2}
	demands := map[tfg.MessageID]float64{0: 3, 1: 5, 2: 2}
	conf := conflictMatrix(msgs, pa)
	sets, durations, err := exactDecompose(msgs, demands, conf)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, d := range durations {
		total += d
	}
	if total > 7+1e-6 {
		t.Errorf("exact total %g, want <= 7", total)
	}
	// Every returned set must be independent.
	for _, set := range sets {
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
	// Path graph 0-1-2 (conflicts 0~1, 1~2): MIS = {0,2}, {1}.
	conf := [][]bool{
		{false, true, false},
		{true, false, true},
		{false, true, false},
	}
	mis := maximalIndependentSets(conf, 100)
	if len(mis) != 2 {
		t.Fatalf("got %d sets: %v", len(mis), mis)
	}
	var keys []string
	for _, s := range mis {
		sort.Ints(s)
		key := ""
		for _, v := range s {
			key += string(rune('0' + v))
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if keys[0] != "02" || keys[1] != "1" {
		t.Errorf("sets = %v", keys)
	}
}

func TestMaximalIndependentSetsCap(t *testing.T) {
	// 2n vertices with no conflicts between pairs... use an empty
	// conflict graph on 5 vertices: exactly one MIS (everything).
	n := 5
	conf := make([][]bool, n)
	for i := range conf {
		conf[i] = make([]bool, n)
	}
	mis := maximalIndependentSets(conf, 100)
	if len(mis) != 1 || len(mis[0]) != n {
		t.Errorf("empty conflict graph should have one maximal set, got %v", mis)
	}
	// A perfect matching's complement graph has 2^n MIS; cap must trip.
	m := 20
	conf = make([][]bool, m)
	for i := range conf {
		conf[i] = make([]bool, m)
	}
	for i := 0; i < m; i += 2 {
		conf[i][i+1] = true
		conf[i+1][i] = true
	}
	if got := maximalIndependentSets(conf, 64); got != nil {
		t.Errorf("cap should have tripped, got %d sets", len(got))
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

// The allocs/op delta of these two is the conflictMatrix hot-path
// saving recorded in docs/results-latest.txt.
func BenchmarkConflictMatrixBitset(b *testing.B) {
	msgs, pa := benchConflictFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		conflictMatrix(msgs, pa)
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
// subtraction rounds onto the same value.
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
		}
		pa := fakeAssignment(linkSets)
		conf := conflictMatrix(msgs, pa)
		sets, durations := greedyDecompose(msgs, demands, conf)
		wantSets, wantDurations := greedyDecomposeReference(msgs, demands, conf)
		if !reflect.DeepEqual(sets, wantSets) || !reflect.DeepEqual(durations, wantDurations) {
			t.Logf("mode %d demands %v:\n got %v %v\nwant %v %v", mode%5, demands, sets, durations, wantSets, wantDurations)
			return false
		}
		served := make([]float64, n)
		for si, set := range sets {
			for i := 0; i < len(set); i++ {
				for j := i + 1; j < len(set); j++ {
					if conf[set[i]][set[j]] {
						return false
					}
				}
				served[set[i]] += durations[si]
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

// Property: the sets in chainSets' order are a permutation of the
// emitted (set, duration) pairs — each set keeps its members in order
// and its duration, the first set stays first — and the order is the
// one chainReference picks. Decompositions are random subsets of up to
// 150 messages, so rows span several words and the window bites.
func TestQuickChainSetsPermutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		var sc schedScratch
		sc.resOffs = []int32{0}
		var sets [][]int
		var durations []float64
		for s := rng.Intn(80); s >= 0; s-- {
			var set []int
			for _, i := range rng.Perm(n)[:1+rng.Intn(min(n, 12))] {
				set = append(set, i)
				sc.resFlat = append(sc.resFlat, int32(i))
			}
			d := float64(1 + rng.Intn(9))
			sets, durations = append(sets, set), append(durations, d)
			sc.resOffs = append(sc.resOffs, int32(len(sc.resFlat)))
			sc.resDur = append(sc.resDur, d)
		}
		sc.chainSets(n)
		emitted, emittedDur := sc.materializeSets()
		var got [][]int
		var gotDur []float64
		for _, si := range sc.chain {
			got, gotDur = append(got, emitted[si]), append(gotDur, emittedDur[si])
		}
		want, wantDur := chainReference(sets, durations)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotDur, wantDur) {
			t.Logf("seed %d: got %v %v, want %v %v", seed, got, gotDur, want, wantDur)
			return false
		}
		key := func(set []int, d float64) string { return fmt.Sprint(set, d) }
		var before, after []string
		for si := range sets {
			before = append(before, key(sets[si], durations[si]))
			after = append(after, key(got[si], gotDur[si]))
		}
		slices.Sort(before)
		slices.Sort(after)
		return slices.Equal(before, after) && key(got[0], gotDur[0]) == key(sets[0], durations[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
