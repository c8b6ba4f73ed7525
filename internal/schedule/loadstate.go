package schedule

import (
	"math"
	"math/bits"
	"slices"

	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// bitset is a set of small non-negative integers; LoadState keeps one
// over link IDs for the links in use.
type bitset []uint64

func (s bitset) add(i int) { s[i/64] |= 1 << (uint(i) % 64) }

// forEach calls fn for every member in ascending order.
func (s bitset) forEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// LoadState maintains the Section 5.1 link-load accumulators of one
// path assignment incrementally: per-(link, interval) active-message
// and no-slack counts, per-link transmission sums and active lengths,
// and a per-link peak score. ApplyReroute updates only the links a
// reroute actually changes — O(|changed links| × (K + messages on
// link)) instead of the O(M × L × K) full recompute — and every stored
// float is recomputed from exact integer state by the one link scorer
// (linkScore) in a fixed order, so the incremental peaks are
// bit-identical to a from-scratch build and Apply followed by Undo
// restores the state exactly. This is what turns the Fig. 4 AssignPaths
// hill-climb from quadratic re-evaluation into cheap delta scoring;
// ComputeUtilization is a fresh state's Utilization.
type LoadState struct {
	ws  []Window
	act *Activity
	nl  int
	K   int

	lenK    []float64 // lenK[k] = Intervals.Length(k), cached
	noSlack []bool    // noSlack[i] = ws[i].NoSlack(), cached

	// linkCap[j] is the bandwidth share available on link j (see
	// Options.LinkCap); link-utilization scores are U_j / linkCap[j].
	// nil means all ones and keeps the single-tenant float path
	// untouched (no division is performed, so scores stay bit-identical
	// to the pre-capacity implementation). A zero share with traffic on
	// the link scores +Inf, which the hill-climb and the feasibility
	// gate both treat as "worse than any finite peak".
	linkCap []float64

	// Members: lists[j] places link j's member list — the messages using
	// it, ascending — in slab. The list is the membership record that
	// lets a changed link's load be recomputed exactly: summed over it,
	// the transmission times come out as a from-scratch build sums them,
	// bit for bit. fill lays the lists out by link
	// with headroom (memberRoom); a list that outgrows its region moves
	// to the slab's tail, and a move that would take the slab past twice
	// the nmem memberships lays every list out afresh instead.
	lists []memberList
	slab  []int32
	nmem  int

	xmit []float64 // xmit[j]: Σ Xmit over link j's members, ascending
	cnt  []int32   // cnt[j*K+k]: active messages on (j, k)
	spot []int32   // spot[j*K+k]: no-slack messages on (j, k)

	activeLen []float64 // activeLen[j]: Σ interval lengths with cnt > 0
	score     []float64 // score[j]: max(U_j, max_k spot[j][k])
	scoreK    []int32   // interval attaining score[j], -1 for U_j

	// touched is the bitset of links that have carried a message since
	// the last fill. Every other link holds all-zero accumulators and
	// score 0, which can never be a peak (peaks improve strictly from
	// 0), so Reset, the refill and the peak cache visit touched links
	// only — a fraction of the fabric on the 1024-node machines.
	touched bitset

	// Peak cache: always the leading entries of the touched links in
	// (score desc, link asc) order, and topkAll reports that it holds
	// every touched link. EvalReroute touches at most the links of two
	// paths, so as long as fewer links changed than the cache holds, the
	// first unchanged cache entry dominates every unchanged link and the
	// peak needs no O(nl) scan. fill rebuilds the cache; ApplyReroute
	// repairs it in place (repairTopK).
	topk    []int32
	topkAll bool

	// Tentative-score memo. tentScore[l]/tentK[l] hold link l's score as
	// if message m were added to (or removed from) it, where memo[l]
	// packs (gen, m, add). The accumulators a tentative reads — link l's
	// members and counts, the message's window and activity row, lenK,
	// linkCap — change only in ApplyReroute, fill and the arena re-bind,
	// each of which bumps gen; so a slot whose key matches was computed
	// by the same code from the same inputs and reusing it is
	// bit-identical to recomputing. One slot per link suffices: the
	// hill-climb evaluates a message's candidates back to back, and they
	// all remove the same old links and share long new-path prefixes.
	tentScore []float64
	tentK     []int32
	memo      []uint64
	gen       uint32

	// Per-eval link marks: stamp[l] is epoch on the links the eval or
	// apply in progress changes (listed in changed), epoch-1 on links
	// shared by both paths and epoch-2 on new-path links not yet
	// classified.
	stamp   []int32
	changed []int32
	epoch   int32

	// Tentative scores computed and reused since construction, and the
	// ApplyReroute calls that rebuilt the peak cache instead of
	// repairing it; all are pure functions of the call sequence.
	tentComputed, tentReused, topkRebuilds int
}

// memberList is one link's region of the member slab: its members are
// slab[off : off+n], and the region runs to off+cap.
type memberList struct{ off, n, cap int32 }

// memberRoom is the region a list of n members is laid out in: half as
// much again, so a growing list moves only now and then.
func memberRoom(n int32) int32 { return n + n/2 }

// topkSize bounds the peak cache, and ApplyReroute rebuilds an
// incomplete cache left with fewer than topkFloor entries. An eval
// changing fewer than topkFloor links (the symmetric difference of two
// paths; beyond any preset's path pair) thus keeps the fast path unless
// it changes every touched link, and one changing more may fall back to
// a full scan; the cache is never correctness-critical.
const (
	topkSize  = 128
	topkFloor = 80
)

// NewLoadStateCap builds the accumulators for pa from scratch, with a
// per-link capacity vector (nil for the whole machine).
func NewLoadStateCap(top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity, linkCap []float64) *LoadState {
	return newLoadState(nil, top, pa, ws, act, linkCap)
}

// newLoadState builds the accumulators for pa in ls, or in a new state
// when ls is nil. Every array of ls whose capacity suffices is kept and
// zeroed as make would leave it, and the counters, gen and epoch start
// over, so the result equals a fresh state in everything but capacity;
// arrays only grow.
func newLoadState(ls *LoadState, top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity, linkCap []float64) *LoadState {
	if ls == nil {
		ls = new(LoadState)
	}
	nl := top.Links()
	K := act.Intervals.K()
	topk := ls.topk[:0]
	if topk == nil {
		topk = make([]int32, 0, topkSize)
	}
	*ls = LoadState{
		nl:        nl,
		K:         K,
		lists:     zeroed(ls.lists, nl),
		slab:      ls.slab[:0],
		xmit:      zeroed(ls.xmit, nl),
		cnt:       zeroed(ls.cnt, nl*K),
		spot:      zeroed(ls.spot, nl*K),
		activeLen: zeroed(ls.activeLen, nl),
		score:     zeroed(ls.score, nl),
		scoreK:    zeroed(ls.scoreK, nl),
		touched:   zeroed(ls.touched, (nl+63)/64),
		tentScore: zeroed(ls.tentScore, nl),
		tentK:     zeroed(ls.tentK, nl),
		memo:      zeroed(ls.memo, nl),
		stamp:     zeroed(ls.stamp, nl),
		changed:   ls.changed[:0],
		topk:      topk,
		lenK:      zeroed(ls.lenK, K),
		noSlack:   zeroed(ls.noSlack, len(ws)),
	}
	ls.bind(ws, act, linkCap)
	ls.fill(pa)
	return ls
}

// bind points the state at a problem of the dimensions it was built for
// and refreshes the caches derived from it. The accumulators still
// describe the previous assignment; callers follow up with fill or
// Reset.
func (ls *LoadState) bind(ws []Window, act *Activity, linkCap []float64) {
	ls.ws, ls.act, ls.linkCap = ws, act, linkCap
	for k := range ls.lenK {
		ls.lenK[k] = act.Intervals.Length(k)
	}
	for i := range ws {
		ls.noSlack[i] = ws[i].NoSlack()
	}
}

// members returns link l's member list.
func (ls *LoadState) members(l int) []int32 {
	m := ls.lists[l]
	return ls.slab[m.off : m.off+m.n]
}

// Reset rebuilds the accumulators for a new assignment, reusing every
// backing array — the restart path of AssignPaths' random escapes. Only
// the links the old assignment touched are cleared.
func (ls *LoadState) Reset(pa *PathAssignment) {
	ls.touched.forEach(func(j int) {
		ls.lists[j] = memberList{}
		clear(ls.cnt[j*ls.K : (j+1)*ls.K])
		clear(ls.spot[j*ls.K : (j+1)*ls.K])
		ls.xmit[j], ls.activeLen[j], ls.score[j], ls.scoreK[j] = 0, 0, 0, -1
	})
	clear(ls.touched)
	ls.fill(pa)
}

// bumpGen invalidates every memoized tentative score.
func (ls *LoadState) bumpGen() {
	ls.gen++
	if ls.gen == 0 { // wrapped: stale keys could collide
		clear(ls.memo)
		ls.gen = 1
	}
}

// fill adds pa to all-zero accumulators, empty member lists included.
// A first pass counts each link's members and lays the lists out; the
// second adds the messages in ascending order, so each list is appended
// to in order.
func (ls *LoadState) fill(pa *PathAssignment) {
	ls.bumpGen()
	ls.nmem = 0
	for i := range ls.ws {
		if ls.ws[i].Local {
			continue
		}
		for _, l := range pa.Links[i] {
			ls.lists[l].n++
			ls.touched.add(int(l))
		}
		ls.nmem += len(pa.Links[i])
	}
	off := int32(0)
	ls.touched.forEach(func(j int) {
		m := &ls.lists[j]
		*m = memberList{off: off, cap: memberRoom(m.n)}
		off += m.cap
	})
	ls.slab = zeroed(ls.slab, int(off))
	for i := range ls.ws {
		if ls.ws[i].Local {
			continue
		}
		for _, l := range pa.Links[i] {
			m := &ls.lists[l]
			ls.slab[m.off+m.n] = int32(i)
			m.n++
			ls.count(int(l), i, 1)
		}
	}
	ls.touched.forEach(ls.recomputeLink)
	ls.rebuildTopK()
}

// shift adds message msg to link l (delta +1) or removes it (delta -1):
// its place in the link's member list and the integer accumulators.
// Lists are short, so both ends move members one by one.
func (ls *LoadState) shift(l, msg int, delta int32) {
	m := &ls.lists[l]
	id := int32(msg)
	if delta > 0 {
		ls.touched.add(l) // before grow, which lays out touched links only
		if m.n == m.cap {
			ls.grow(l)
		}
		list := ls.slab[m.off : m.off+m.n+1]
		at := m.n
		for ; at > 0 && list[at-1] > id; at-- {
			list[at] = list[at-1]
		}
		list[at] = id
		m.n++
		ls.nmem++
	} else {
		list := ls.members(l)
		at := 0
		for list[at] != id {
			at++
		}
		for ; at+1 < len(list); at++ {
			list[at] = list[at+1]
		}
		m.n--
		ls.nmem--
	}
	ls.count(l, msg, delta)
}

// grow makes room in link l's full list for one more member. The list
// moves to the slab's tail, into memberRoom of its new length, unless
// that would take the slab past twice the memberships: then relayout.
func (ls *LoadState) grow(l int) {
	m := &ls.lists[l]
	end, r := int32(len(ls.slab)), memberRoom(m.n+1)
	if int(end+r) > 2*(ls.nmem+1) {
		ls.relayout(l)
		return
	}
	if int(end+r) > cap(ls.slab) {
		ls.slab = slices.Grow(ls.slab, int(r))
	}
	ls.slab = ls.slab[:end+r]
	for i := int32(0); i < m.n; i++ {
		ls.slab[end+i] = ls.slab[m.off+i]
	}
	m.off, m.cap = end, r
}

// relayout lays every list out afresh behind the slab's tail, with
// room for one more member in link l's, and moves that block to the
// front.
func (ls *LoadState) relayout(l int) {
	room := func(j int) int32 {
		if j == l {
			return memberRoom(ls.lists[j].n + 1)
		}
		return memberRoom(ls.lists[j].n)
	}
	end, total := int32(len(ls.slab)), int32(0)
	ls.touched.forEach(func(j int) { total += room(j) })
	ls.slab = slices.Grow(ls.slab, int(total))[:end+total]
	at := end
	ls.touched.forEach(func(j int) {
		m := &ls.lists[j]
		copy(ls.slab[at:], ls.members(j))
		m.off, m.cap = at-end, room(j)
		at += m.cap
	})
	copy(ls.slab, ls.slab[end:])
	ls.slab = ls.slab[:total]
}

// count adds message msg's activity on link l to the per-interval
// counts (delta +1) or takes it away (delta -1).
func (ls *LoadState) count(l, msg int, delta int32) {
	noSlack := ls.noSlack[msg]
	row := ls.act.Active[msg]
	base := l * ls.K
	for k := 0; k < ls.K; k++ {
		if row[k] {
			ls.cnt[base+k] += delta
			if noSlack {
				ls.spot[base+k] += delta
			}
		}
	}
}

// ranksAbove reports whether link a comes before link b in the peak
// cache's (score desc, link asc) order.
func (ls *LoadState) ranksAbove(a, b int32) bool {
	sa, sb := ls.score[a], ls.score[b]
	return sa > sb || sa == sb && a < b
}

// insertTopK puts link j into the peak cache at its sorted position. A
// full cache loses an entry to it — its last, or j itself when j ranks
// below that — and so no longer holds every touched link.
func (ls *LoadState) insertTopK(j int32) {
	k := len(ls.topk)
	if k == topkSize {
		ls.topkAll = false
		if !ls.ranksAbove(j, ls.topk[k-1]) {
			return
		}
	} else {
		ls.topk = append(ls.topk, 0)
	}
	lo, hi := 0, k
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ls.ranksAbove(ls.topk[mid], j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(ls.topk[lo+1:], ls.topk[lo:]) // a full cache's last entry falls off
	ls.topk[lo] = j
}

// rebuildTopK reselects the cache from every touched link.
func (ls *LoadState) rebuildTopK() {
	ls.topk = ls.topk[:0]
	ls.topkAll = true
	ls.touched.forEach(func(j int) { ls.insertTopK(int32(j)) })
}

// repairTopK restores the peak cache after ApplyReroute rescored the
// links in ls.changed (stamped epoch). Dropping them leaves the leading
// entries of the order over the unchanged links. A changed link goes
// back in when the cache holds every touched link or when it ranks
// above the last entry; any link left out ranks below that entry, so
// the cache again leads the order over all touched links. An incomplete
// cache left with fewer than topkFloor entries is rebuilt instead.
func (ls *LoadState) repairTopK() {
	kept := ls.topk[:0]
	for _, j := range ls.topk {
		if ls.stamp[j] != ls.epoch {
			kept = append(kept, j)
		}
	}
	ls.topk = kept
	if !ls.topkAll && len(ls.topk) < topkFloor {
		ls.topkRebuilds++
		ls.rebuildTopK()
		return
	}
	for _, j := range ls.changed {
		if ls.topkAll || ls.ranksAbove(j, ls.topk[len(ls.topk)-1]) {
			ls.insertTopK(j)
		}
	}
}

// recomputeLink refreshes link j's derived floats from the exact
// integer state and member list (linkScore as the link stands), so they
// carry no incremental drift.
func (ls *LoadState) recomputeLink(j int) {
	ls.xmit[j], ls.activeLen[j], ls.score[j], ls.scoreK[j] = ls.linkScore(j, 0, 0)
}

// linkScore is the one place a link is scored (Definitions 5.1-5.2): it
// returns link l's transmission sum, active length, score
// max(U_l, max_k U_lk) and the interval attaining it (-1 for U_l) — as
// the link stands when delta is 0, or as if message msg were added to it
// (delta +1) or removed from it (delta -1). It mutates nothing. The sum
// runs over the members ascending, msg spliced in or skipped at its
// sorted position, and the active length over the intervals ascending
// with msg's count delta applied inline: term for term the sums the
// state would hold after a real ApplyReroute, hence bit-identical to
// them. The reduction is strict first maximum over U_l, then the
// intervals ascending.
func (ls *LoadState) linkScore(l, msg int, delta int32) (sum, al, score float64, scoreK int32) {
	// Lists are short: the members below msg are summed as they are
	// scanned for its position.
	list, at := ls.members(l), 0
	switch {
	case delta == 0:
		for _, i := range list {
			sum += ls.ws[i].Xmit
		}
	case delta > 0:
		for ; at < len(list) && int(list[at]) < msg; at++ {
			sum += ls.ws[list[at]].Xmit
		}
		sum += ls.ws[msg].Xmit
		for _, i := range list[at:] {
			sum += ls.ws[i].Xmit
		}
	default: // msg is a member
		for ; int(list[at]) != msg; at++ {
			sum += ls.ws[list[at]].Xmit
		}
		for _, i := range list[at+1:] {
			sum += ls.ws[i].Xmit
		}
	}

	var row []bool // msg's activity, nil when the link stands
	spotDelta := int32(0)
	if delta != 0 {
		row = ls.act.Active[msg]
		if ls.noSlack[msg] {
			spotDelta = delta
		}
	}
	base := l * ls.K
	cnt := ls.cnt[base : base+ls.K]
	spot := ls.spot[base : base+ls.K]
	maxSpot, maxSpotK := int32(0), int32(-1)
	for k := range cnt {
		c, s := cnt[k], spot[k]
		if row != nil && row[k] {
			c += delta
			s += spotDelta
		}
		if c > 0 {
			al += ls.lenK[k]
		}
		if s > maxSpot {
			maxSpot, maxSpotK = s, int32(k)
		}
	}

	// Equivalent to scanning spots ascending with strict improvement
	// over a running best seeded at U_l: the winner is the first
	// interval attaining the maximum spot count, when that exceeds U_l.
	score, scoreK = 0, -1
	if al > 0 {
		score = sum / al
		if ls.linkCap != nil {
			score /= ls.linkCap[l]
		}
	}
	if s := float64(maxSpot); s > score {
		score, scoreK = s, maxSpotK
	}
	return sum, al, score, scoreK
}

// diffLinks lists in ls.changed the links of a reroute's symmetric
// difference — first those only oldLinks uses, then those only newLinks
// uses — and returns how many come first. It marks them with per-link
// stamps in place of a pairwise path comparison: afterwards stamp[l] is
// epoch exactly on the listed links and epoch-1 on the links both paths
// use, which a reroute leaves alone.
func (ls *LoadState) diffLinks(oldLinks, newLinks []topology.LinkID) int {
	if ls.epoch > math.MaxInt32-3 { // about to wrap: stale stamps could collide
		clear(ls.stamp)
		ls.epoch = 0
	}
	ls.epoch += 3
	shared := ls.epoch - 1
	for _, l := range newLinks {
		ls.stamp[l] = ls.epoch - 2
	}
	ls.changed = ls.changed[:0]
	for _, l := range oldLinks {
		if ls.stamp[l] == ls.epoch-2 {
			ls.stamp[l] = shared
		} else {
			ls.stamp[l] = ls.epoch
			ls.changed = append(ls.changed, int32(l))
		}
	}
	removed := len(ls.changed)
	for _, l := range newLinks {
		if ls.stamp[l] != shared {
			ls.stamp[l] = ls.epoch
			ls.changed = append(ls.changed, int32(l))
		}
	}
	return removed
}

// ApplyReroute moves message msg from oldLinks to newLinks, updating
// only the links in their symmetric difference.
func (ls *LoadState) ApplyReroute(msg tfg.MessageID, oldLinks, newLinks []topology.LinkID) {
	ls.bumpGen()
	removed := ls.diffLinks(oldLinks, newLinks)
	for i, l := range ls.changed {
		delta := int32(1)
		if i < removed {
			delta = -1
		}
		ls.shift(int(l), int(msg), delta)
		ls.recomputeLink(int(l))
	}
	ls.repairTopK()
}

// Undo reverses a previous ApplyReroute with the same arguments. All
// counters are integers and every float is recomputed from them, so
// the accumulators after Undo are bit-identical to those before Apply;
// the peak cache may lead the same order by a different number of
// entries, which changes no answer.
func (ls *LoadState) Undo(msg tfg.MessageID, oldLinks, newLinks []topology.LinkID) {
	ls.ApplyReroute(msg, newLinks, oldLinks)
}

// EvalReroute scores the reroute without applying it: each link in the
// symmetric difference of the two paths gets a tentative score computed
// read-only in the exact float-summation orders recomputeLink would use
// after a real apply (or reused from the memo, see LoadState.memo), and
// the peak combines those with the cached unchanged maximum. No
// accumulator mutates and no O(nl) rescan runs on the cached fast path.
//
// limit is the most the caller can use. When the reroute's peak is at
// most limit, the returned triple is the exact one, bit-identical to
// apply-peek-undo; +Inf asks for it always. Above limit the eval may
// stop as soon as one link proves the peak exceeds limit and return
// that link's score, which is greater than limit. The proofs, once every
// changed link is marked (an unmarked one would pass for unchanged): the
// best unchanged cache entry, whose score stands, and then the tentative
// score of each link the message is added to. Removals, which never
// raise a score, are scored last.
func (ls *LoadState) EvalReroute(msg tfg.MessageID, oldLinks, newLinks []topology.LinkID, limit float64) (float64, topology.LinkID, int) {
	removed := ls.diffLinks(oldLinks, newLinks)
	for _, j := range ls.topk {
		if ls.stamp[j] != ls.epoch {
			if s := ls.score[j]; s > limit {
				return s, topology.LinkID(j), int(ls.scoreK[j])
			}
			break
		}
	}
	for _, j := range ls.changed[removed:] {
		ls.tentative(int(j), int(msg), true)
		if s := ls.tentScore[j]; s > limit {
			return s, topology.LinkID(j), int(ls.tentK[j])
		}
	}
	for _, j := range ls.changed[:removed] {
		ls.tentative(int(j), int(msg), false)
	}
	return ls.peakWithTentative()
}

// tentative leaves in tentScore/tentK the score of link l as if msg were
// added to (or removed from) it: from the memo when the slot holds
// exactly that question for the current generation, from linkScore
// otherwise.
func (ls *LoadState) tentative(l, msg int, add bool) {
	key := uint64(ls.gen)<<32 | uint64(msg)<<1
	delta := int32(-1)
	if add {
		key |= 1
		delta = 1
	}
	if ls.memo[l] == key {
		ls.tentReused++
		return
	}
	ls.memo[l] = key
	ls.tentComputed++
	_, _, ls.tentScore[l], ls.tentK[l] = ls.linkScore(l, msg, delta)
}

// peakWithTentative returns the peak over all links with the current
// tentative overrides in effect, with PeakPosition's tie-break: of the
// links attaining a positive maximum, the smallest. Fast path: only the
// changed links and the best unchanged cache entry can hold the peak;
// that entry dominates every unchanged link (the cache leads the order
// over all touched links and fewer links changed than it holds), and
// among equal-score unchanged links the cache order puts the smallest
// link first.
func (ls *LoadState) peakWithTentative() (float64, topology.LinkID, int) {
	peak, link, interval := 0.0, topology.LinkID(0), int32(-1)
	if len(ls.changed) >= len(ls.topk) {
		for j := 0; j < ls.nl; j++ {
			s, sk := ls.score[j], ls.scoreK[j]
			if ls.stamp[j] == ls.epoch {
				s, sk = ls.tentScore[j], ls.tentK[j]
			}
			if s > peak {
				peak, link, interval = s, topology.LinkID(j), sk
			}
		}
		return peak, link, int(interval)
	}
	for _, j := range ls.topk {
		if ls.stamp[j] != ls.epoch {
			if s := ls.score[j]; s > 0 {
				peak, link, interval = s, topology.LinkID(j), ls.scoreK[j]
			}
			break
		}
	}
	for _, j := range ls.changed {
		if s := ls.tentScore[j]; s > peak || (s == peak && s > 0 && topology.LinkID(j) < link) {
			peak, link, interval = s, topology.LinkID(j), ls.tentK[j]
		}
	}
	return peak, link, int(interval)
}

// PeakPosition returns the current peak and where it sits: of the
// links attaining a positive maximum score, the smallest, with its
// scoring interval — the enumeration order (link ascending; link
// utilization before the link's hot-spots; intervals ascending; strict
// improvement) of Definitions 5.1-5.2. That is the head of the peak
// cache, whose (score desc, link asc) order is this tie-break and which
// leads the order over every touched link; an untouched link scores 0.
func (ls *LoadState) PeakPosition() (float64, topology.LinkID, int) {
	if len(ls.topk) > 0 {
		if j := ls.topk[0]; ls.score[j] > 0 {
			return ls.score[j], topology.LinkID(j), int(ls.scoreK[j])
		}
	}
	return 0, 0, -1
}

// Peak returns the current peak utilization.
func (ls *LoadState) Peak() float64 {
	p, _, _ := ls.PeakPosition()
	return p
}

// Utilization materializes the full Section 5.1 measures of the
// current state, bit for bit those of a fresh state of the same
// assignment (what ComputeUtilization returns). LinkU stays the raw
// fraction of the physical link's bandwidth (the quantity reservations
// are made in); only the peak score is capacity-relative when a LinkCap
// is in effect.
func (ls *LoadState) Utilization() *Utilization {
	peak, link, interval := ls.PeakPosition()
	return &Utilization{LinkU: ls.linkU(), Peak: peak, PeakLink: link, PeakInterval: interval}
}

// linkU returns Utilization's LinkU in a new slice, its one allocation.
func (ls *LoadState) linkU() []float64 {
	u := make([]float64, ls.nl)
	for j := range u {
		if ls.activeLen[j] > 0 {
			u[j] = ls.xmit[j] / ls.activeLen[j]
		}
	}
	return u
}
