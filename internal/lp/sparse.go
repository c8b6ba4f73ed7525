package lp

import (
	"context"
	"math"
	"math/bits"
	"slices"
)

// The sparse tableau. Interval-membership systems are extremely sparse —
// a demand row touches one message's active intervals, a capacity row
// one link's users — and a dense tableau spends almost all its time
// multiplying and copying structural zeros. The rows here store only
// nonzeros, in no particular order, and a pivot scatters the scaled
// leave row into a dense per-column array once, then updates every other
// row holding the entering column in place over that row's own support,
// appending the leave row's columns it lacked. Entries that cancel to
// exactly zero are dropped from the support.

// sparseWork is the reusable Solve scratch owned by a Problem.
type sparseWork struct {
	// Row i's support is idx[i] and val[i], views of own[i] in rows.
	idx   [][]int32
	val   [][]float64
	own   []rowBuf
	rhs   []float64
	basis []int
	obj   []float64

	// The pivot kernel's scratch. dense holds the scaled leave row by
	// column during a pivot and exact zeros everywhere else, at every
	// other time. seen[j] == stamp marks the columns the row being
	// eliminated held before the update; stamp rises once per eliminate,
	// and when it wraps every mark is cleared. fill gathers the leave
	// row's columns that row lacked; it is as long as the leave row.
	dense []float64
	seen  []uint32
	stamp uint32
	fill  []int32

	// The entering column as gathered by gatherColumn: its nonzero
	// coefficients and their rows, ascending, and, when it ended a solve
	// as Unbounded, its index enter, which with them is the ray Check reads.
	colRow []int32
	colVal []float64
	enter  int

	// rowsOf holds one bitset over the rows per column class (j mod
	// colClasses), words words each: a superset of the rows whose support
	// holds a column of that class. Bits are set when a row is loaded and
	// when eliminate fills a column in, and never cleared within a Solve:
	// a row that lost the column reads 0 in lookup, which gatherColumn
	// skips anyway.
	rowsOf []uint64
	words  int

	rows rowStore

	pivots int // pivots performed by the current Solve
	work   int // row entries eliminated since the context was last looked at
}

// rowStore is the tableau's row storage. A row buffer is an idx/val
// pair of equal capacity, 1<<c entries for its class c, and a row holds
// the smallest class its entries fit: it takes a buffer when loaded,
// moves to a larger one when fill-in outgrows it (eliminate), and every
// buffer is handed back as the next solve starts (reset). Buffers are
// carved from pages of 1<<pageBits entries, or of one buffer where that
// is larger, that never move and are never dropped, so a pooled Problem
// stops allocating row storage once its pages hold the largest tableau
// it has solved.
type rowStore struct {
	cls [rowClasses]rowClass
}

// rowClass holds the buffers of one class. Slot s lives in page
// s>>pageShift(c). The first made slots exist; since the last reset the
// first bump of them have been handed out, and free lists the ones
// handed back, most recent first, as slot+1 linked through idx[0] of
// each (0 ends the list).
type rowClass struct {
	idx              [][]int32
	val              [][]float64
	made, bump, free int32
}

// rowClasses bounds the capacity classes: class c holds 1<<c entries.
// A page of buffers holds 1<<pageBits entries.
const (
	rowClasses = 32
	pageBits   = 8
)

// classOf returns the smallest class that holds n > 0 entries.
func classOf(n int) int { return bits.Len(uint(n - 1)) }

// pageShift returns log2 of the buffers a page of class c holds.
func pageShift(c int) int { return max(0, pageBits-c) }

// rowBuf names a buffer: slot<<5 | class, its slot within its class.
type rowBuf int32

func makeBuf(slot int32, c int) rowBuf { return rowBuf(slot<<5 | int32(c)) }
func (b rowBuf) class() int            { return int(b & (rowClasses - 1)) }
func (b rowBuf) slot() int32           { return int32(b >> 5) }

// buf returns buffer b's storage, idx and val, at its full capacity.
func (s *rowStore) buf(b rowBuf) ([]int32, []float64) {
	c := b.class()
	k, sh := &s.cls[c], pageShift(c)
	pg, lo := b.slot()>>sh, int(b.slot()&(1<<sh-1))<<c
	hi := lo + 1<<c
	return k.idx[pg][lo:hi:hi], k.val[pg][lo:hi:hi]
}

// take returns a buffer that holds n entries, of the smallest class
// that does: the one handed back last, else the next never handed out
// since the reset, else a new one, with a new page when the last is
// full.
func (s *rowStore) take(n int) rowBuf {
	c := classOf(max(n, 1))
	k := &s.cls[c]
	if k.free != 0 {
		b := makeBuf(k.free-1, c)
		idx, _ := s.buf(b)
		k.free = idx[0]
		return b
	}
	if k.bump == k.made {
		if sh := pageShift(c); int(k.made>>sh) == len(k.idx) {
			page := 1 << (c + sh)
			k.idx, k.val = append(k.idx, make([]int32, page)), append(k.val, make([]float64, page))
		}
		k.made++
	}
	k.bump++
	return makeBuf(k.bump-1, c)
}

// give hands buffer b back to its class's free list.
func (s *rowStore) give(b rowBuf) {
	k := &s.cls[b.class()]
	idx, _ := s.buf(b)
	idx[0] = k.free
	k.free = b.slot() + 1
}

// reset hands every buffer back.
func (s *rowStore) reset() {
	for c := range s.cls {
		s.cls[c].bump, s.cls[c].free = 0, 0
	}
}

// loadRow gives row i a buffer that holds n entries; its views are
// empty.
func (w *sparseWork) loadRow(i, n int) {
	b := w.rows.take(n)
	idx, val := w.rows.buf(b)
	w.own[i], w.idx[i], w.val[i] = b, idx[:0], val[:0]
}

// colClasses is how many column classes rowsOf keeps, 32 B per row.
const colClasses = 256

// mark records that row r's support holds column j.
func (w *sparseWork) mark(r int, j int32) {
	w.rowsOf[int(uint32(j)%colClasses)*w.words+r>>6] |= 1 << (r & 63)
}

// A solve looks at its context as each phase starts, every pollPivots
// pivots, and inside a pivot whenever the row entries eliminated since
// the last look reach pollWork. A pivot's cost is its eliminations, and grows with fill-in:
// on a 2 036-row system a pivot took under 1 ms while the tableau was
// sparse and about 12 ms once it had turned dense, so counting pivots
// alone let a cancelled solve run on for some 3 s. pollWork entries
// take about 1 ms (3 to 4 ns an entry on a dense 600-row system, 2-vCPU
// Xeon), so a stop lags its context by about 1 ms.
const (
	pollPivots = 256
	pollWork   = 1 << 18
)

// lookup returns the coefficient at column j of the support, or exactly 0
// when absent.
func lookup(idx []int32, val []float64, j int32) float64 {
	for t, c := range idx {
		if c == j {
			return val[t]
		}
	}
	return 0
}

// ensure hands every row buffer back to the free lists, sizes the
// scratch for m rows and total columns, and clears rowsOf. dense and
// seen keep their contents: zeros, and marks below the stamp. The rows
// are empty until loadRow gives each a buffer.
func (w *sparseWork) ensure(m, total int) {
	w.rows.reset()
	w.idx = slices.Grow(w.idx[:0], m)[:m]
	w.val = slices.Grow(w.val[:0], m)[:m]
	w.own = slices.Grow(w.own[:0], m)[:m]
	w.rhs = slices.Grow(w.rhs[:0], m)[:m]
	w.basis = slices.Grow(w.basis[:0], m)[:m]
	w.obj = slices.Grow(w.obj[:0], total+1)[:total+1]
	w.dense = slices.Grow(w.dense[:0], total)[:total]
	w.seen = slices.Grow(w.seen[:0], total)[:total]
	w.words = (m + 63) / 64
	n := colClasses * w.words
	w.rowsOf = slices.Grow(w.rowsOf[:0], n)[:n]
	clear(w.rowsOf)
}

// scaleRow multiplies row r by inv and then forces column enter to
// exactly 1.
func (w *sparseWork) scaleRow(r int, inv float64, enter int32) {
	iv, vv := w.idx[r], w.val[r]
	for t := range vv {
		vv[t] *= inv
	}
	for t, j := range iv {
		if j == enter {
			vv[t] = 1 // exactness
			break
		}
	}
	w.rhs[r] *= inv
}

// eliminate subtracts f times the leave row, scattered in w.dense, from
// row r: in place over row r's support, where the entering column and
// anything else that cancels becomes an exact zero and is dropped, then
// by appending, as 0 − f·dense[j], the leave row's columns row r lacked,
// each that is not an exact zero.
func (w *sparseWork) eliminate(r, leave int, f float64) {
	if w.stamp++; w.stamp == 0 {
		clear(w.seen[:cap(w.seen)])
		w.stamp = 1
	}
	ai, av := w.idx[r], w.val[r]
	n := updateRow(ai, av, w.dense, w.seen, w.stamp, f)
	k := gatherFill(w.fill, w.idx[leave], w.seen, w.stamp)
	if n+k > cap(ai) {
		// Move to a buffer of the class that holds n+k entries.
		b := w.rows.take(n + k)
		bi, bv := w.rows.buf(b)
		copy(bi, ai[:n])
		copy(bv, av[:n])
		w.rows.give(w.own[r])
		w.own[r] = b
		ai, av = bi, bv
	}
	ai, av = ai[:n], av[:n]
	for _, j := range w.fill[:k] {
		if v := 0 - f*w.dense[j]; v != 0 {
			ai, av = append(ai, j), append(av, v)
			w.mark(r, j)
		}
	}
	w.idx[r], w.val[r] = ai, av
	w.rhs[r] -= f * w.rhs[leave]
}

// updateRow sets each entry of row (ai, av) to av − f·dense[j], stamps
// its column in seen, and compacts out the entries that became exact
// zeros; it returns the row's new length. Where the leave row has no
// entry, dense holds 0 and the subtraction leaves av's bits unchanged.
// The kernels stay out of line, where each loop keeps its indices in
// registers.
//
//go:noinline
func updateRow(ai []int32, av, dense []float64, seen []uint32, s uint32, f float64) int {
	av = av[:len(ai)]
	n := 0
	for t, j := range ai {
		v := av[t] - f*dense[j]
		seen[j] = s
		ai[n], av[n] = j, v
		if v != 0 {
			n++
		}
	}
	return n
}

// gatherFill writes the leave row's columns bi into fi and returns how
// many of them, packed first, are not stamped s: the columns the row
// lacks.
//
//go:noinline
func gatherFill(fi, bi []int32, seen []uint32, s uint32) int {
	fi = fi[:len(bi)]
	k := 0
	for _, j := range bi {
		fi[k] = j
		if seen[j] != s {
			k++
		}
	}
	return k
}

// gatherColumn collects the nonzero coefficients of column enter in
// ascending row order, which both the ratio test and the pivot read. It
// looks only at the rows set in enter's class of rowsOf: every other row
// holds an exact zero there.
func (w *sparseWork) gatherColumn(enter int32) {
	w.colRow, w.colVal = w.colRow[:0], w.colVal[:0]
	base := int(uint32(enter)%colClasses) * w.words
	for k, word := range w.rowsOf[base : base+w.words] {
		for ; word != 0; word &= word - 1 {
			i := k<<6 + bits.TrailingZeros64(word)
			if c := lookup(w.idx[i], w.val[i], enter); c != 0 {
				w.colRow = append(w.colRow, int32(i))
				w.colVal = append(w.colVal, c)
			}
		}
	}
}

// pivotSparse makes column enter basic in row leave, touching only
// stored nonzeros. The caller has gathered column enter. The gathered
// coefficients stay current throughout: eliminating row i rewrites row i
// alone, and the leave row's own coefficient is read before the row is
// scaled. Once ctx is done (see pollWork) it stops between two rows and
// returns ctx's error, leaving the tableau half pivoted and dense clear.
func (w *sparseWork) pivotSparse(ctx context.Context, leave int, enter int32, total int) error {
	pv := lookup(w.idx[leave], w.val[leave], enter)
	inv := 1.0 / pv
	w.scaleRow(leave, inv, enter)
	bi, bv := w.idx[leave], w.val[leave]
	for t, j := range bi {
		w.dense[j] = bv[t]
	}
	w.fill = slices.Grow(w.fill[:0], len(bi))[:len(bi)]
	var err error
	for t, i := range w.colRow {
		if int(i) == leave {
			continue
		}
		w.work += len(w.idx[i]) + len(bi)
		w.eliminate(int(i), leave, w.colVal[t])
		if w.work >= pollWork {
			w.work = 0
			if err = ctx.Err(); err != nil {
				break
			}
		}
	}
	for _, j := range bi {
		w.dense[j] = 0
	}
	if err != nil {
		return err
	}
	if f := w.obj[enter]; f != 0 {
		w.subObj(leave, f, total)
		w.obj[enter] = 0
	}
	w.basis[leave] = int(enter)
	w.pivots++
	return nil
}

// iterateSparse runs primal simplex with Bland's rule over the sparse
// tableau until optimal; returns false on unboundedness, with the
// entering column gathered and its index in w.enter, and ctx's error
// once ctx is done. A row absent from the gathered column holds an exact
// zero there, which the ratio test would skip anyway.
func (w *sparseWork) iterateSparse(ctx context.Context, total, barred int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err // done while the tableau was loaded or priced
	}
	for {
		enter := -1
		for j := 0; j < barred; j++ {
			if w.obj[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return true, nil
		}
		w.gatherColumn(int32(enter))
		leave, best := -1, math.Inf(1)
		for t, coeff := range w.colVal {
			if coeff > eps {
				i := int(w.colRow[t])
				ratio := w.rhs[i] / coeff
				if ratio < best-eps || (ratio < best+eps && (leave == -1 || w.basis[i] < w.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			w.enter = enter
			return false, nil
		}
		if err := w.pivotSparse(ctx, leave, int32(enter), total); err != nil {
			return false, err
		}
		if w.pivots%pollPivots == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
	}
}

// Solve runs two-phase simplex over the sparse tableau and returns the
// solution. When the problem is Infeasible or Unbounded, X is nil. Check
// verifies the answer against p's rows.
func (p *Problem) Solve() Solution {
	sol, _ := p.SolveContext(context.Background())
	return sol
}

// SolveContext is Solve under a context, looked at in either phase as
// pollPivots says: once ctx is done the solve stops and returns
// ctx.Err(), bare.
func (p *Problem) SolveContext(ctx context.Context) (Solution, error) {
	return p.SolveInto(ctx, nil)
}

// SolveInto is SolveContext with an Optimal answer's X written into x's
// storage when it holds the problem's variables, and into a new slice
// otherwise: a caller that solves LP after LP passes back the last X
// and keeps one buffer.
func (p *Problem) SolveInto(ctx context.Context, x []float64) (Solution, error) {
	nSlack, nArt := p.auxCounts()
	total := p.nvars + nSlack + nArt
	artStart := p.nvars + nSlack

	w := &p.w
	w.ensure(len(p.ops), total)
	w.pivots, w.work = 0, 0
	slackIdx, artIdx := int32(p.nvars), int32(artStart)
	for i := range p.ops {
		ji, jv := p.rowNonzeros(i)
		op, sign := p.normalized(i)
		aux := 1 // the row's slack or artificial, or for GE both
		if op == GE {
			aux = 2
		}
		w.loadRow(i, len(ji)+aux)
		ri := append(w.idx[i], ji...)
		rv := append(w.val[i], jv...)
		b := p.bs[i]
		if sign < 0 {
			for t := range rv {
				rv[t] = -rv[t]
			}
			b = -b
		}
		switch op {
		case LE:
			ri, rv = append(ri, slackIdx), append(rv, 1)
			w.basis[i] = int(slackIdx)
			slackIdx++
		case GE:
			ri, rv = append(ri, slackIdx, artIdx), append(rv, -1, 1)
			w.basis[i] = int(artIdx)
			slackIdx++
			artIdx++
		case EQ:
			ri, rv = append(ri, artIdx), append(rv, 1)
			w.basis[i] = int(artIdx)
			artIdx++
		}
		for _, j := range ri {
			w.mark(i, j)
		}
		w.idx[i], w.val[i] = ri, rv
		w.rhs[i] = b
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		clear(w.obj)
		for j := artStart; j < total; j++ {
			w.obj[j] = 1
		}
		w.priceOut(total)
		bounded, err := w.iterateSparse(ctx, total, total)
		if err != nil {
			return Solution{}, err
		}
		// Phase 1 objective is bounded below by zero, so unboundedness
		// cannot occur; treat defensively.
		if !bounded || -w.obj[total] > 1e-7 {
			return Solution{Status: Infeasible, Pivots: w.pivots}, nil
		}
		// Drive any artificial still in the basis out (degenerate zero
		// rows) through the row's smallest non-artificial column with a
		// usable coefficient; if there is none the row is redundant.
		for i, bj := range w.basis {
			if bj < artStart {
				continue
			}
			enter := int32(artStart)
			for t, j := range w.idx[i] {
				if j < enter && math.Abs(w.val[i][t]) > eps {
					enter = j
				}
			}
			if int(enter) < artStart {
				w.gatherColumn(enter)
				if err := w.pivotSparse(ctx, i, enter, total); err != nil {
					return Solution{}, err
				}
				continue
			}
			// Redundant constraint: zero the row to neutralize it.
			w.idx[i] = w.idx[i][:0]
			w.val[i] = w.val[i][:0]
			w.rhs[i] = 0
		}
	}

	// Phase 2: original objective over structural + slack columns;
	// artificial columns are frozen out by barring them from entering.
	clear(w.obj)
	copy(w.obj, p.c)
	w.priceOut(total)
	bounded, err := w.iterateSparse(ctx, total, artStart)
	if err != nil {
		return Solution{}, err
	}
	if !bounded {
		return Solution{Status: Unbounded, Pivots: w.pivots}, nil
	}

	x = w.basicPoint(x, p.nvars)
	objVal, _ := dot(p.c, x)
	return Solution{Status: Optimal, X: x, Objective: objVal, Pivots: w.pivots}, nil
}

// priceOut turns the costs loaded into w.obj into reduced costs for the
// current basis: every row whose basic column has a nonzero cost is
// subtracted, scaled by that cost.
func (w *sparseWork) priceOut(total int) {
	for i, bj := range w.basis {
		if cb := w.obj[bj]; cb != 0 {
			w.subObj(i, cb, total)
		}
	}
}

// subObj subtracts f times row i from the objective row.
func (w *sparseWork) subObj(i int, f float64, total int) {
	for t, j := range w.idx[i] {
		w.obj[j] -= f * w.val[i][t]
	}
	w.obj[total] -= f * w.rhs[i]
}

// basicPoint returns the structural part of the current basic solution,
// in x's storage when it holds nvars entries.
func (w *sparseWork) basicPoint(x []float64, nvars int) []float64 {
	if cap(x) < nvars {
		x = make([]float64, nvars)
	} else {
		x = x[:nvars]
		clear(x)
	}
	for i, bj := range w.basis {
		if bj < nvars {
			x[bj] = w.rhs[i]
		}
	}
	return x
}
