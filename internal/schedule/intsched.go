package schedule

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"schedroute/internal/lp"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// Slice is one link-feasible set scheduled for a sub-range of an
// interval: every message in Msgs transmits simultaneously during
// [Start, End) of the frame, each on its full path. Per-message
// transmission may end earlier than End (a trimmed tail keeps the links
// reserved but idle); Until[i] records message Msgs[i]'s actual
// transmission end.
type Slice struct {
	Interval int             `json:"interval"`
	Start    float64         `json:"start"`
	End      float64         `json:"end"`
	Msgs     []tfg.MessageID `json:"msgs"`
	Until    []float64       `json:"until"`
}

// Engine selects the interval-scheduling algorithm.
type Engine int

const (
	// EngineAuto uses the exact LP for small conflict sets and the
	// greedy decomposition otherwise.
	EngineAuto Engine = iota
	// EngineGreedy always uses the greedy decomposition.
	EngineGreedy
	// EngineExact uses the LP over maximal link-feasible sets wherever
	// enumeration stays within 4096 sets, and the greedy decomposition
	// past it.
	EngineExact
)

// exactLimit is the conflict-set size above which EngineAuto switches
// from the exact LP to the greedy decomposition.
const exactLimit = 16

// chainWindow is how many unplaced sets, in emission order, chainSets
// compares when it picks the next set of an interval.
const chainWindow = 32

// ErrIntervalInfeasible is returned when the messages allocated to an
// interval need more simultaneous-link time than the interval provides —
// the paper's interval-scheduling failure mode.
type ErrIntervalInfeasible struct {
	Interval int
	Need     float64
	Have     float64
}

func (e *ErrIntervalInfeasible) Error() string {
	// Fixed precision keeps failure logs from parallel runs stably
	// comparable across candidate orderings.
	return fmt.Sprintf("schedule: interval %d needs %.6g but only has %.6g", e.Interval, e.Need, e.Have)
}

// ScheduleIntervals performs Section 5.3 interval scheduling for every
// interval: the messages with nonzero allocation are partitioned into
// link-feasible sets (Definition 5.5 — no two members share a link)
// whose total duration fits the interval. Slices are returned in frame
// order. A non-zero gap reserves idle time after every slice so that
// guard-holding CPs (see internal/cpsim) never collide with the link's
// next reservation; it should be twice the synchronization margin.
func ScheduleIntervals(allocation *Allocation, pa *PathAssignment, act *Activity, engine Engine, gap float64) ([]Slice, error) {
	var a solveArena
	return scheduleIntervals(context.Background(), &a, allocation, pa, act, engine, gap)
}

func scheduleIntervals(ctx context.Context, a *solveArena, allocation *Allocation, pa *PathAssignment, act *Activity, engine Engine, gap float64) ([]Slice, error) {
	sc := &a.sched
	var out []Slice
	var err error
	K := act.Intervals.K()
	for k := 0; k < K; k++ {
		// Rows of allocation.P iterate in ascending message order, so the
		// per-interval participant list needs no sort.
		sc.msgs = sc.msgs[:0]
		sc.dem = sc.dem[:0]
		for i, row := range allocation.P {
			if row == nil {
				continue
			}
			if row[k] > timeEps {
				sc.msgs = append(sc.msgs, tfg.MessageID(i))
				sc.dem = append(sc.dem, row[k])
			}
		}
		if len(sc.msgs) == 0 {
			continue
		}
		if out, err = scheduleOne(ctx, a, k, pa, act, engine, gap, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// schedScratch is the working storage of one interval's decomposition:
// the members' link lists and link marks, the greedy/exact set emission
// arenas, the exact engine's packed conflict rows, and the LP
// row-assembly buffers.
type schedScratch struct {
	msgs []tfg.MessageID
	dem  []float64

	// Member i's links are links[linkOffs[i]:linkOffs[i+1]]. A link is
	// marked when mark[l] == epoch: the links of the set being built,
	// or of the member buildConflict compares the others against.
	links    []topology.LinkID
	linkOffs []int32
	mark     []uint32
	epoch    uint32

	conf []uint64 // exact engine only: conflict bit matrix, n rows of w words

	// greedy state
	order     []int32
	mem, rest []int32 // order-maintenance merge buffers
	blocker   []int32 // per member, where in its links a set last blocked it
	remaining []float64
	setMask   []uint64

	// emitted decomposition: set si is resFlat[resOffs[si]:resOffs[si+1]]
	resFlat []int32
	resOffs []int32
	resDur  []float64

	// chain: the order the emitted sets are realised in, and their
	// member bit rows
	chain   []int32
	setBits []uint64

	// exact (Bron–Kerbosch + LP) state
	adj     []uint64 // complement adjacency over one word (n <= 64)
	r       []int32
	stk     []int32 // maximalIndependentSetsSlice's frames
	misFlat []int32
	misOffs []int32
	memCnt  []int32
	memOff  []int32
	memCur  []int32
	memLst  []int32
	rowVal  []float64
	x       []float64 // the LP's solution, in the last one's storage

	remain2 []float64 // realization remainders
}

// confWords returns the stride of a bit row over n members.
func confWords(n int) int { return (n + 63) / 64 }

// loadLinks lays the links of msgs out as the members' flat link lists
// and grows the link marks to cover them.
func (sc *schedScratch) loadLinks(msgs []tfg.MessageID, pa *PathAssignment) {
	sc.links = sc.links[:0]
	sc.linkOffs = append(sc.linkOffs[:0], 0)
	for _, mi := range msgs {
		sc.links = append(sc.links, pa.Links[mi]...)
		sc.linkOffs = append(sc.linkOffs, int32(len(sc.links)))
	}
	if len(sc.links) > 0 {
		if n := int(slices.Max(sc.links)) + 1; len(sc.mark) < n {
			sc.mark = append(sc.mark, make([]uint32, n-len(sc.mark))...)
		}
	}
}

// linksOf returns member i's links.
func (sc *schedScratch) linksOf(i int32) []topology.LinkID {
	return sc.links[sc.linkOffs[i]:sc.linkOffs[i+1]]
}

// nextEpoch starts a new generation of link marks, in which no link is
// marked.
func (sc *schedScratch) nextEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: a stale mark could match
		clear(sc.mark)
		sc.epoch = 1
	}
	return sc.epoch
}

// firstMarked returns the position in links of the first link marked
// in epoch, or -1 when none is.
func (sc *schedScratch) firstMarked(links []topology.LinkID, epoch uint32) int {
	for h, l := range links {
		if sc.mark[l] == epoch {
			return h
		}
	}
	return -1
}

// buildConflict fills the pairwise conflict matrix of the n loaded
// members: conflict(i, j) iff they share a link. Member i's links are
// marked, and every later member's are tested against the marks. Only
// the exact engine reads the matrix.
func (sc *schedScratch) buildConflict(n int) {
	w := confWords(n)
	sc.conf = zeroed(sc.conf, n*w)
	for i := int32(0); int(i) < n; i++ {
		epoch := sc.nextEpoch()
		for _, l := range sc.linksOf(i) {
			sc.mark[l] = epoch
		}
		for j := i + 1; int(j) < n; j++ {
			if sc.firstMarked(sc.linksOf(j), epoch) >= 0 {
				sc.conf[int(i)*w+int(j)/64] |= 1 << (uint(j) % 64)
				sc.conf[int(j)*w+int(i)/64] |= 1 << (uint(i) % 64)
			}
		}
	}
}

// conflict reads one bit of the packed conflict matrix.
func (sc *schedScratch) conflict(n, i, j int) bool {
	w := confWords(n)
	return sc.conf[i*w+j/64]&(1<<(uint(j)%64)) != 0
}

// scheduleOne decomposes interval k into link-feasible sets, chains
// them, and appends their slices to out.
func scheduleOne(ctx context.Context, a *solveArena, k int, pa *PathAssignment, act *Activity, engine Engine, gap float64, out []Slice) ([]Slice, error) {
	sc := &a.sched
	n := len(sc.msgs)
	length := act.Intervals.Length(k)
	start, _ := act.Intervals.Bounds(k)
	sc.loadLinks(sc.msgs, pa)

	useExact := engine == EngineExact || (engine == EngineAuto && n <= exactLimit)
	if useExact {
		sc.buildConflict(n)
		err := exactDecomposeInto(ctx, a, n)
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr // not a reason to fall back to greedy
		}
		// Past the enumeration cap (or on an LP failure) every engine
		// falls back to the greedy decomposition.
		useExact = err == nil
	}
	if !useExact {
		sc.greedyDecomposeInto(n)
	}

	total := 0.0
	nonzero := 0
	for _, d := range sc.resDur {
		total += d
		if d > timeEps {
			nonzero++
		}
	}
	if total > length+1e-6 {
		return nil, &ErrIntervalInfeasible{Interval: k, Need: total, Have: length}
	}
	// Distribute the interval's spare capacity as guard gaps after each
	// slice (up to the requested gap), so guard-holding CPs have room
	// before the link's next reservation. Best-effort: spacing never
	// makes a feasible interval infeasible.
	gapActual := 0.0
	if gap > 0 && nonzero > 0 {
		gapActual = (length - total) / float64(nonzero)
		if gapActual > gap {
			gapActual = gap
		}
	}

	sc.chainSets(n)
	out = slices.Grow(out, nonzero)

	// Realize slices sequentially from the interval start, trimming each
	// message's participation to its exact remaining demand. Every
	// slice's Msgs and Until are capped windows of one pair of slabs.
	sc.remain2 = append(sc.remain2[:0], sc.dem...)
	msgSlab := make([]tfg.MessageID, len(sc.resFlat))
	untilSlab := make([]float64, len(sc.resFlat))
	used := 0
	cursor := start
	for _, si := range sc.chain {
		d := sc.resDur[si]
		if d <= timeEps {
			continue
		}
		set := sc.resFlat[sc.resOffs[si]:sc.resOffs[si+1]]
		sl := Slice{
			Interval: k,
			Start:    cursor,
			End:      cursor + d,
			Msgs:     msgSlab[used : used : used+len(set)],
			Until:    untilSlab[used : used : used+len(set)],
		}
		for _, idx := range set {
			r := sc.remain2[idx]
			if r <= timeEps {
				continue
			}
			take := d
			if r < take {
				take = r
			}
			sc.remain2[idx] = r - take
			sl.Msgs = append(sl.Msgs, sc.msgs[idx])
			sl.Until = append(sl.Until, cursor+take)
		}
		if c := len(sl.Msgs); c > 0 {
			sl.Msgs, sl.Until = sl.Msgs[:c:c], sl.Until[:c:c]
			out = append(out, sl)
			used += c
		}
		cursor += d + gapActual
	}
	for i, r := range sc.remain2 {
		if r > 1e-6 {
			return nil, fmt.Errorf("schedule: interval %d: message %d left with %g undelivered", k, sc.msgs[i], r)
		}
	}
	return out, nil
}

// chainSets orders the emitted sets into sc.chain so consecutive sets
// share members: the first set stays first, and each next set is the
// one with the most members in common with the last placed, among the
// first chainWindow unplaced sets in emission order, ties to the
// earlier. A message carried by two consecutive slices transmits across
// their boundary without a break, and BuildOmega emits one command per
// hop for the whole run. The (set, duration) pairs are only permuted, so
// the interval's total is unchanged.
func (sc *schedScratch) chainSets(n int) {
	ns := len(sc.resDur)
	chain := sc.chain[:0]
	for si := 0; si < ns; si++ {
		chain = append(chain, int32(si))
	}
	sc.chain = chain
	if ns <= 2 {
		return
	}
	w := confWords(n)
	sc.setBits = zeroed(sc.setBits, ns*w)
	rows := sc.setBits
	for si := 0; si < ns; si++ {
		for _, i := range sc.resFlat[sc.resOffs[si]:sc.resOffs[si+1]] {
			rows[si*w+int(i)/64] |= 1 << (uint(i) % 64)
		}
	}
	// chain[:placed] is the chain so far; chain[placed:] holds the
	// unplaced sets in emission order.
	for placed := 1; placed < ns; placed++ {
		last := int(chain[placed-1])
		lastRow := rows[last*w : last*w+w]
		pick, most := placed, -1
		for p := placed; p < min(ns, placed+chainWindow); p++ {
			row := rows[int(chain[p])*w : int(chain[p])*w+w]
			shared := 0
			for t, b := range lastRow {
				shared += bits.OnesCount64(b & row[t])
			}
			if shared > most {
				pick, most = p, shared
			}
		}
		si := chain[pick]
		copy(chain[placed+1:pick+1], chain[placed:pick])
		chain[placed] = si
	}
}

// greedyDecomposeInto repeatedly schedules a maximal independent set
// chosen by largest remaining demand; each round fully drains at least
// one message, so it terminates within n rounds. The emitted sets land
// in the scratch arenas.
//
// A round builds its set from link marks, not from a conflict matrix:
// it scans the live members in order, and a member joins the set when
// none of its links is marked, then marks them. Its links are marked
// exactly when it shares one with an earlier member of the set, so the
// set is the one a scan of packed conflict rows would pick.
//
// Every round scans the live messages in (remaining desc, index asc)
// order. That order is sorted once and then maintained: a round lowers
// only the chosen set's members, all by the same d, so members and
// non-members each stay sorted among themselves and one linear merge
// restores the order — except where the subtraction rounds two members
// with different remainders onto the same value and index order must
// take over, which the closing insertion pass (linear on sorted input)
// repairs. The key is a strict total order, so the result is the
// permutation a from-scratch sort of the live messages would give.
func (sc *schedScratch) greedyDecomposeInto(n int) {
	w := confWords(n)
	sc.remaining = append(sc.remaining[:0], sc.dem...)
	if cap(sc.setMask) < w {
		sc.setMask = make([]uint64, w)
	}
	setMask := sc.setMask[:w]
	sc.blocker = zeroed(sc.blocker, n)
	sc.resFlat = sc.resFlat[:0]
	sc.resOffs = append(sc.resOffs[:0], 0)
	sc.resDur = sc.resDur[:0]

	remaining := sc.remaining
	before := func(a, b int32) bool {
		return remaining[a] > remaining[b] || (remaining[a] == remaining[b] && a < b)
	}
	order := sc.order[:0]
	for i := 0; i < n; i++ {
		if remaining[i] > timeEps {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if before(a, b) {
			return -1
		}
		return 1 // never called with a == b: indices are distinct
	})
	for len(order) > 0 {
		clear(setMask)
		setStart := len(sc.resFlat)
		epoch := sc.nextEpoch()
		for _, i := range order {
			// Consecutive sets share most members, so the link that
			// blocked a message last round is tried first.
			links, b := sc.linksOf(i), sc.blocker[i]
			if int(b) < len(links) && sc.mark[links[b]] == epoch {
				continue
			}
			if h := sc.firstMarked(links, epoch); h >= 0 {
				sc.blocker[i] = int32(h)
				continue
			}
			for _, l := range links {
				sc.mark[l] = epoch
			}
			sc.resFlat = append(sc.resFlat, i)
			setMask[i/64] |= 1 << (uint(i) % 64)
		}
		set := sc.resFlat[setStart:]
		d := remaining[set[0]]
		for _, i := range set {
			if remaining[i] < d {
				d = remaining[i]
			}
		}
		for _, i := range set {
			remaining[i] -= d
		}
		sc.resDur = append(sc.resDur, d)
		sc.resOffs = append(sc.resOffs, int32(len(sc.resFlat)))

		mem, rest := sc.mem[:0], sc.rest[:0]
		for _, i := range order {
			switch {
			case remaining[i] <= timeEps: // drained
			case setMask[i/64]&(1<<(uint(i)%64)) != 0:
				mem = append(mem, i)
			default:
				rest = append(rest, i)
			}
		}
		sc.mem, sc.rest = mem, rest
		order = order[:0]
		for len(mem) > 0 && len(rest) > 0 {
			if before(mem[0], rest[0]) {
				order, mem = append(order, mem[0]), mem[1:]
			} else {
				order, rest = append(order, rest[0]), rest[1:]
			}
		}
		order = append(append(order, mem...), rest...)
		for a := 1; a < len(order); a++ {
			v := order[a]
			b := a - 1
			for b >= 0 && before(v, order[b]) {
				order[b+1] = order[b]
				b--
			}
			order[b+1] = v
		}
	}
	sc.order = order
}

// exactDecomposeInto solves the Section 5.3 program: over all maximal
// link-feasible sets S, minimize sum y_S subject to every message
// receiving at least its demand from the sets containing it. Maximal
// sets suffice because over-coverage is trimmed during realization. The
// chosen sets land in the scratch result arenas.
func exactDecomposeInto(ctx context.Context, a *solveArena, n int) error {
	sc := &a.sched
	if !sc.enumerateMIS(n, 4096) {
		return fmt.Errorf("maximal independent set enumeration exceeded cap")
	}
	nSets := len(sc.misOffs) - 1
	prob := a.lpProblem(nSets)
	for s := 0; s < nSets; s++ {
		prob.SetCost(s, 1)
	}
	// Per-message set membership as CSR: the demand row of message i
	// lists the sets containing i in ascending index order — the same
	// rows the old map construction produced.
	if cap(sc.memCnt) < n {
		sc.memCnt = make([]int32, n)
		sc.memOff = make([]int32, n+1)
		sc.memCur = make([]int32, n)
	}
	memCnt, memOff, memCur := sc.memCnt[:n], sc.memOff[:n+1], sc.memCur[:n]
	for i := range memCnt {
		memCnt[i] = 0
	}
	for _, j := range sc.misFlat {
		memCnt[j]++
	}
	memOff[0] = 0
	for i := 0; i < n; i++ {
		memOff[i+1] = memOff[i] + memCnt[i]
		memCur[i] = memOff[i]
	}
	if cap(sc.memLst) < len(sc.misFlat) {
		sc.memLst = make([]int32, len(sc.misFlat))
	}
	memLst := sc.memLst[:len(sc.misFlat)]
	for s := 0; s < nSets; s++ {
		for _, j := range sc.misFlat[sc.misOffs[s]:sc.misOffs[s+1]] {
			memLst[memCur[j]] = int32(s)
			memCur[j]++
		}
	}
	maxRow := 0
	for i := 0; i < n; i++ {
		if c := int(memCnt[i]); c > maxRow {
			maxRow = c
		}
	}
	if cap(sc.rowVal) < maxRow {
		sc.rowVal = make([]float64, maxRow)
	}
	ones := sc.rowVal[:maxRow]
	for i := range ones {
		ones[i] = 1
	}
	for i := 0; i < n; i++ {
		row := memLst[memOff[i]:memOff[i+1]]
		if err := prob.AddRow(row, ones[:len(row)], lp.GE, sc.dem[i]); err != nil {
			return err
		}
	}
	sol, err := prob.SolveInto(ctx, sc.x)
	if err != nil {
		return err
	}
	if sol.Status != lp.Optimal {
		return fmt.Errorf("interval LP %v", sol.Status)
	}
	sc.x = sol.X
	sc.resFlat = sc.resFlat[:0]
	sc.resOffs = append(sc.resOffs[:0], 0)
	sc.resDur = sc.resDur[:0]
	for s, y := range sol.X {
		if y > timeEps {
			sc.resFlat = append(sc.resFlat, sc.misFlat[sc.misOffs[s]:sc.misOffs[s+1]]...)
			sc.resOffs = append(sc.resOffs, int32(len(sc.resFlat)))
			sc.resDur = append(sc.resDur, y)
		}
	}
	return nil
}

// enumerateMIS enumerates the maximal independent sets of the packed
// conflict graph into misFlat/misOffs via Bron–Kerbosch with pivoting on
// the complement graph; it reports false when the count exceeds maxSets.
// For n <= 64 the candidate and exclusion sets are single machine words;
// larger instances take maximalIndependentSetsSlice. Both enumerate
// every maximal set exactly once, so they yield the same sets and trip
// the cap alike, but not always in the same order: the slice path
// appends to its exclusion list, which then need not stay ascending, so
// a pivot tie can break differently.
func (sc *schedScratch) enumerateMIS(n, maxSets int) bool {
	sc.misFlat = sc.misFlat[:0]
	sc.misOffs = append(sc.misOffs[:0], 0)
	if n > 64 {
		return sc.maximalIndependentSetsSlice(n, maxSets)
	}

	full := ^uint64(0)
	if n < 64 {
		full = (1 << uint(n)) - 1
	}
	if cap(sc.adj) < n {
		sc.adj = make([]uint64, n)
	}
	adj := sc.adj[:n]
	w := confWords(n) // 1 for n <= 64
	for i := 0; i < n; i++ {
		adj[i] = ^sc.conf[i*w] &^ (1 << uint(i)) & full
	}
	sc.r = sc.r[:0]
	count := 0
	var bk func(p, x uint64) bool
	bk = func(p, x uint64) bool {
		if p == 0 && x == 0 {
			sc.misFlat = append(sc.misFlat, sc.r...)
			sc.misOffs = append(sc.misOffs, int32(len(sc.misFlat)))
			count++
			return count <= maxSets
		}
		// Pivot on the vertex of p∪x with most neighbors in p; p bits
		// then x bits, ascending, first strict maximum — the reference
		// scan order.
		pivot, best := -1, -1
		for m := p; m != 0; {
			u := bits.TrailingZeros64(m)
			m &^= 1 << uint(u)
			if cnt := bits.OnesCount64(adj[u] & p); cnt > best {
				best, pivot = cnt, u
			}
		}
		for m := x; m != 0; {
			u := bits.TrailingZeros64(m)
			m &^= 1 << uint(u)
			if cnt := bits.OnesCount64(adj[u] & p); cnt > best {
				best, pivot = cnt, u
			}
		}
		cand := p
		if pivot >= 0 {
			cand = p &^ adj[pivot]
		}
		for m := cand; m != 0; {
			v := bits.TrailingZeros64(m)
			m &^= 1 << uint(v)
			sc.r = append(sc.r, int32(v))
			if !bk(p&adj[v], x&adj[v]) {
				return false
			}
			sc.r = sc.r[:len(sc.r)-1]
			// Move v from p to x.
			p &^= 1 << uint(v)
			x |= 1 << uint(v)
		}
		return true
	}
	return bk(full, 0)
}

// maximalIndependentSetsSlice is Bron–Kerbosch over int32 lists on
// one stack, the enumerator for conflict graphs of more than 64
// messages; like enumerateMIS it appends to misFlat/misOffs and reports
// false when the count exceeds maxSets. A frame is sc.stk[off:]: the
// candidates p in ascending order, then the exclusion list x in the
// order its members were excluded. The pivot is the vertex of p then x,
// in list order, with most non-conflicting members of p, first strict
// maximum.
func (sc *schedScratch) maximalIndependentSetsSlice(n, maxSets int) bool {
	adj := func(u, v int32) bool { // complement adjacency
		return u != v && !sc.conflict(n, int(u), int(v))
	}
	sc.stk = sc.stk[:0]
	for i := 0; i < n; i++ {
		sc.stk = append(sc.stk, int32(i))
	}
	sc.r = sc.r[:0]
	count := 0
	var bk func(off, np int) bool
	bk = func(off, np int) bool {
		end := len(sc.stk)
		if end == off {
			sc.misFlat = append(sc.misFlat, sc.r...)
			sc.misOffs = append(sc.misOffs, int32(len(sc.misFlat)))
			count++
			return count <= maxSets
		}
		pivot, best := int32(-1), -1
		for _, u := range sc.stk[off:end] {
			cnt := 0
			for _, v := range sc.stk[off : off+np] {
				if adj(u, v) {
					cnt++
				}
			}
			if cnt > best {
				best, pivot = cnt, u
			}
		}
		for i := off; i < off+np; {
			v := sc.stk[i]
			if adj(pivot, v) {
				i++
				continue
			}
			cnp := 0
			for t := off; t < end; t++ {
				if u := sc.stk[t]; adj(v, u) {
					sc.stk = append(sc.stk, u)
					if t < off+np {
						cnp++
					}
				}
			}
			sc.r = append(sc.r, v)
			if !bk(end, cnp) {
				return false
			}
			sc.r = sc.r[:len(sc.r)-1]
			// Move v from p to the end of x.
			sc.stk = sc.stk[:end]
			copy(sc.stk[i:], sc.stk[i+1:])
			sc.stk[end-1] = v
			np--
		}
		return true
	}
	return bk(0, n)
}
