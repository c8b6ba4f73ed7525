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
// nonzeros (index-sorted), and every pivot walks the union of two rows'
// supports instead of the full column range. Entries that cancel to
// exactly zero are dropped from the support.

// sparseWork is the reusable Solve scratch owned by a Problem.
type sparseWork struct {
	idx   [][]int32
	val   [][]float64
	rhs   []float64
	basis []int
	obj   []float64
	tmpI  []int32
	tmpV  []float64

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

	pivots int // pivots performed by the current Solve
}

// colClasses is how many column classes rowsOf keeps, 32 B per row.
const colClasses = 256

// mark records that row r's support holds column j.
func (w *sparseWork) mark(r int, j int32) {
	w.rowsOf[int(uint32(j)%colClasses)*w.words+r>>6] |= 1 << (r & 63)
}

// pollPivots is how many pivots iterateSparse runs between two looks at
// its context: rare enough to cost nothing, often enough that a
// cancelled solve stops within milliseconds on the few-hundred-row
// systems the standard configs build, and within about a second on an
// 11 000-row one (a pivot there takes some 4 ms).
const pollPivots = 256

// lookup returns the coefficient at column j of the sorted support, or
// exactly 0 when absent. Written out: slices.BinarySearch is not inlined
// here, and gatherColumn calls it once per candidate row per pivot.
func lookup(idx []int32, val []float64, j int32) float64 {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(idx) && idx[lo] == j {
		return val[lo]
	}
	return 0
}

// ensure sizes the scratch for m rows and total columns, keeping every
// row buffer it already holds, and clears rowsOf.
func (w *sparseWork) ensure(m, total int) {
	w.idx = slices.Grow(w.idx[:0], m)[:m]
	w.val = slices.Grow(w.val[:0], m)[:m]
	w.rhs = slices.Grow(w.rhs[:0], m)[:m]
	w.basis = slices.Grow(w.basis[:0], m)[:m]
	w.obj = slices.Grow(w.obj[:0], total+1)[:total+1]
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

// eliminate subtracts f times the (already scaled) leave row from row r
// over the union of their supports, dropping the enter column (the pivot
// zeroes it) and any entry that cancels to exact zero.
func (w *sparseWork) eliminate(r, leave int, f float64, enter int32) {
	ai, av := w.idx[r], w.val[r]
	bi, bv := w.idx[leave], w.val[leave]
	ti, tv := w.tmpI[:0], w.tmpV[:0]
	x, y := 0, 0
	for x < len(ai) && y < len(bi) {
		switch {
		case ai[x] == bi[y]:
			if j := ai[x]; j != enter {
				if v := av[x] - f*bv[y]; v != 0 {
					ti = append(ti, j)
					tv = append(tv, v)
				}
			}
			x++
			y++
		case ai[x] < bi[y]:
			// Leave row is zero here: nothing to subtract.
			if j := ai[x]; j != enter {
				ti = append(ti, j)
				tv = append(tv, av[x])
			}
			x++
		default:
			// Row r is zero here: the entry becomes 0 - f*t.
			if j := bi[y]; j != enter {
				if v := 0 - f*bv[y]; v != 0 {
					ti = append(ti, j)
					tv = append(tv, v)
					w.mark(r, j)
				}
			}
			y++
		}
	}
	for ; x < len(ai); x++ {
		if j := ai[x]; j != enter {
			ti = append(ti, j)
			tv = append(tv, av[x])
		}
	}
	for ; y < len(bi); y++ {
		if j := bi[y]; j != enter {
			if v := 0 - f*bv[y]; v != 0 {
				ti = append(ti, j)
				tv = append(tv, v)
				w.mark(r, j)
			}
		}
	}
	w.rhs[r] -= f * w.rhs[leave]
	// Swap the merged result in, recycling row r's old backing as the
	// next merge's scratch.
	w.idx[r], w.tmpI = ti, ai[:0]
	w.val[r], w.tmpV = tv, av[:0]
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
// scaled.
func (w *sparseWork) pivotSparse(leave int, enter int32, total int) {
	pv := lookup(w.idx[leave], w.val[leave], enter)
	inv := 1.0 / pv
	w.scaleRow(leave, inv, enter)
	for t, i := range w.colRow {
		if int(i) != leave {
			w.eliminate(int(i), leave, w.colVal[t], enter)
		}
	}
	if f := w.obj[enter]; f != 0 {
		w.subObj(leave, f, total)
		w.obj[enter] = 0
	}
	w.basis[leave] = int(enter)
	w.pivots++
}

// iterateSparse runs primal simplex with Bland's rule over the sparse
// tableau until optimal; returns false on unboundedness, with the
// entering column gathered and its index in w.enter, and ctx's error
// once ctx is done. A row absent from the gathered column holds an exact
// zero there, which the ratio test would skip anyway.
func (w *sparseWork) iterateSparse(ctx context.Context, total, barred int) (bool, error) {
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
		w.pivotSparse(leave, int32(enter), total)
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

// SolveContext is Solve under a context, looked at every pollPivots
// pivots of either phase: once ctx is done the solve stops and returns
// ctx.Err(), bare.
func (p *Problem) SolveContext(ctx context.Context) (Solution, error) {
	nSlack, nArt := p.auxCounts()
	total := p.nvars + nSlack + nArt
	artStart := p.nvars + nSlack

	w := &p.w
	w.ensure(len(p.ops), total)
	w.pivots = 0
	slackIdx, artIdx := int32(p.nvars), int32(artStart)
	for i := range p.ops {
		ji, jv := p.rowNonzeros(i)
		ri := append(w.idx[i][:0], ji...)
		rv := append(w.val[i][:0], jv...)
		op, sign := p.normalized(i)
		b := p.bs[i]
		if sign < 0 {
			for t := range rv {
				rv[t] = -rv[t]
			}
			b = -b
		}
		// Slack then artificial columns come after every structural
		// index, so appending keeps the support sorted.
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
		// rows); if impossible the row is redundant.
	drive:
		for i, bj := range w.basis {
			if bj < artStart {
				continue
			}
			for t, j := range w.idx[i] {
				if int(j) >= artStart {
					break
				}
				if math.Abs(w.val[i][t]) > eps {
					w.gatherColumn(j)
					w.pivotSparse(i, j, total)
					continue drive
				}
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

	x := w.basicPoint(p.nvars)
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

// basicPoint returns the structural part of the current basic solution.
func (w *sparseWork) basicPoint(nvars int) []float64 {
	x := make([]float64, nvars)
	for i, bj := range w.basis {
		if bj < nvars {
			x[bj] = w.rhs[i]
		}
	}
	return x
}
