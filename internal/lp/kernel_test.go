package lp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// eliminateReference is the pivot kernel the scatter kernel replaced,
// kept as its oracle: it subtracts f times the (already scaled) leave row
// from row r by merging the two index-sorted supports, dropping the enter
// column and any entry that cancels to exact zero, and writes the merged
// row, still sorted, back in place of row r. It sets no rowsOf bit.
func (w *sparseWork) eliminateReference(r, leave int, f float64, enter int32) {
	ai, av := w.idx[r], w.val[r]
	bi, bv := w.idx[leave], w.val[leave]
	var ti []int32
	var tv []float64
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
			if j := ai[x]; j != enter {
				ti = append(ti, j)
				tv = append(tv, av[x])
			}
			x++
		default:
			if j := bi[y]; j != enter {
				if v := 0 - f*bv[y]; v != 0 {
					ti = append(ti, j)
					tv = append(tv, v)
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
			}
		}
	}
	w.rhs[r] -= f * w.rhs[leave]
	w.idx[r], w.val[r] = ti, tv
}

// checkRows refuses a tableau row that stores a column twice or stores an
// exact zero: the scatter kernel's stamp tells a held column from fill-in
// only on rows that do neither.
func checkRows(t *testing.T, w *sparseWork) {
	t.Helper()
	for i, row := range w.idx {
		cols := slices.Clone(row)
		slices.Sort(cols)
		if k := len(slices.Compact(cols)); k != len(row) {
			t.Fatalf("row %d stores %d entries over %d distinct columns: %v", i, len(row), k, row)
		}
		for q, v := range w.val[i] {
			if v == 0 {
				t.Fatalf("row %d stores an exact zero at column %d", i, row[q])
			}
		}
	}
}

// checkStorage requires every row to be a view of the buffer own
// names, at its full capacity, no two rows to hold one buffer, and no
// row to hold a buffer its class has on the free list or not handed out
// since the reset; every free list to end within as many steps as the
// class has buffers; and every buffer handed out since the reset to be
// held by a row or on the free list, none lost.
func checkStorage(t *testing.T, w *sparseWork) {
	t.Helper()
	holder := make(map[rowBuf]int, len(w.idx))
	var held [rowClasses]int32
	for i, b := range w.own[:len(w.idx)] {
		held[b.class()]++
		if prev, ok := holder[b]; ok {
			t.Fatalf("rows %d and %d share buffer %d", prev, i, b)
		}
		holder[b] = i
		k := &w.rows.cls[b.class()]
		if b.slot() >= k.bump {
			t.Fatalf("row %d holds slot %d of class %d, of which %d are handed out", i, b.slot(), b.class(), k.bump)
		}
		idx, val := w.rows.buf(b)
		if unsafe.SliceData(w.idx[i]) != unsafe.SliceData(idx) || unsafe.SliceData(w.val[i]) != unsafe.SliceData(val) ||
			cap(w.idx[i]) != 1<<b.class() || cap(w.val[i]) != 1<<b.class() {
			t.Fatalf("row %d is not a view of its buffer, slot %d of class %d", i, b.slot(), b.class())
		}
	}
	for c := range w.rows.cls {
		k := &w.rows.cls[c]
		steps := 0
		for f := k.free; f != 0; steps++ {
			if steps > int(k.made) {
				t.Fatalf("the free list of class %d does not end", c)
			}
			b := makeBuf(f-1, c)
			if i, ok := holder[b]; ok {
				t.Fatalf("row %d holds slot %d of class %d, which is on its free list", i, b.slot(), c)
			}
			idx, _ := w.rows.buf(b)
			f = idx[0]
		}
		if int32(steps)+held[c] != k.bump {
			t.Fatalf("class %d: %d buffers handed out, %d held by rows and %d free", c, k.bump, held[c], steps)
		}
	}
}

// sortedRow returns row i of w as (column, value bits) pairs in column
// order.
func sortedRow(w *sparseWork, i int) [][2]uint64 {
	out := make([][2]uint64, len(w.idx[i]))
	for t, j := range w.idx[i] {
		out[t] = [2]uint64{uint64(j), math.Float64bits(w.val[i][t])}
	}
	slices.SortFunc(out, func(a, b [2]uint64) int { return int(a[0]) - int(b[0]) })
	return out
}

// TestEliminateMatchesReference drives the scatter kernel and the merge
// it replaced through the same seeded pivots, on random rows over small
// integer coefficients where entries cancel to exact zero and the
// entering column is held by several rows. The scatter side holds its
// rows in shuffled order. After every pivot each row must equal the
// reference's as a set of (column, value bits), with the same rhs bits,
// no column twice, no exact zero, a class bit in rowsOf for every stored
// column, rows on storage of their own (checkStorage), and the dense
// scratch all zeros again. One sparseWork serves every seed, so the rows
// are loaded into, and grow into, buffers earlier seeds handed back.
func TestEliminateMatchesReference(t *testing.T) {
	coeffs := []float64{-2, -1, 1, 1, 2, 3}
	var cancelled, filled int
	var w sparseWork
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, total := 2+rng.Intn(12), 3+rng.Intn(300)
		density := 0.05 + 0.5*rng.Float64()
		var ref sparseWork
		w.ensure(m, total)
		ref.idx, ref.val, ref.rhs = make([][]int32, m), make([][]float64, m), make([]float64, m)
		for i := 0; i < m; i++ {
			for j := int32(0); int(j) < total; j++ {
				if rng.Float64() < density {
					ref.idx[i] = append(ref.idx[i], j)
					ref.val[i] = append(ref.val[i], coeffs[rng.Intn(len(coeffs))])
				}
			}
			ref.rhs[i] = float64(rng.Intn(7))
			perm := rng.Perm(len(ref.idx[i]))
			w.loadRow(i, len(perm))
			for _, p := range perm {
				w.idx[i], w.val[i] = append(w.idx[i], ref.idx[i][p]), append(w.val[i], ref.val[i][p])
				w.mark(i, ref.idx[i][p])
			}
			w.rhs[i] = ref.rhs[i]
		}
		for step := 0; step < 10; step++ {
			// Enter at a column some row holds, leaving at a held entry
			// that is a power of two wherever one exists, so the scaled
			// rows stay exact and cancel often.
			var cands [][2]int
			for i := range ref.idx {
				for t, j := range ref.idx[i] {
					if _, e := math.Frexp(ref.val[i][t]); math.Abs(ref.val[i][t]) == math.Ldexp(0.5, e) {
						cands = append(cands, [2]int{i, int(j)})
					}
				}
			}
			if len(cands) == 0 {
				break
			}
			c := cands[rng.Intn(len(cands))]
			leave, enter := c[0], int32(c[1])
			pv := lookup(ref.idx[leave], ref.val[leave], enter)
			ref.scaleRow(leave, 1/pv, enter)
			var holders int
			for i := range ref.idx {
				f := lookup(ref.idx[i], ref.val[i], enter)
				if i == leave || f == 0 {
					continue
				}
				for t, j := range ref.idx[leave] {
					switch a := lookup(ref.idx[i], ref.val[i], j); {
					case j == enter:
					case a == 0:
						filled++
					case a-f*ref.val[leave][t] == 0:
						cancelled++
					}
				}
				ref.eliminateReference(i, leave, f, enter)
				holders++
			}
			w.gatherColumn(enter)
			if len(w.colRow) != holders+1 {
				t.Fatalf("seed %d step %d: gathered %d rows, %d hold column %d", seed, step, len(w.colRow), holders+1, enter)
			}
			if err := w.pivotSparse(context.Background(), leave, enter, total); err != nil {
				t.Fatal(err)
			}
			checkRows(t, &w)
			checkStorage(t, &w)
			for i := 0; i < m; i++ {
				if got, want := sortedRow(&w, i), sortedRow(&ref, i); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d row %d: scatter kernel %v, reference %v", seed, step, i, got, want)
				}
				if math.Float64bits(w.rhs[i]) != math.Float64bits(ref.rhs[i]) {
					t.Fatalf("seed %d step %d row %d: rhs %v, reference %v", seed, step, i, w.rhs[i], ref.rhs[i])
				}
				for _, j := range w.idx[i] {
					if w.rowsOf[int(uint32(j)%colClasses)*w.words+i>>6]&(1<<(i&63)) == 0 {
						t.Fatalf("seed %d step %d: row %d holds column %d, but its class bit is clear", seed, step, i, j)
					}
				}
			}
			if j := slices.IndexFunc(w.dense, func(v float64) bool { return math.Float64bits(v) != 0 }); j >= 0 {
				t.Fatalf("seed %d step %d: dense[%d] = %v after the pivot", seed, step, j, w.dense[j])
			}
		}
	}
	if cancelled == 0 || filled == 0 {
		t.Fatalf("the draws must both cancel entries and fill rows in: %d exact cancellations, %d fill-ins", cancelled, filled)
	}
	t.Logf("%d exact cancellations, %d fill-ins", cancelled, filled)
}

// TestStampWrapMatchesFreshSolve starts a solve with the elimination
// stamp below math.MaxUint32 by half the solve's eliminations, so that it
// wraps mid-solve, on a pooled Problem whose every mark reads 1, as marks
// left by the first elimination after an earlier wrap may. Unless the
// wrap clears every mark, the restarted stamp meets them and takes the
// leave row's fill-in for columns the row already holds. The answer must
// equal a fresh solve's, bit for bit and pivot for pivot. Solves have a
// deadline, since a corrupt tableau's pivots need not end.
func TestStampWrapMatchesFreshSolve(t *testing.T) {
	wrapped := 0
	for _, f := range families {
		for seed := int64(0); seed < 100; seed++ {
			want := solveWithin(t, f.problem(seed))
			p := f.problem(seed)
			solveWithin(t, p)
			elims := p.w.stamp
			if elims < 4 {
				continue
			}
			start := math.MaxUint32 - elims/2
			seen := p.w.seen[:cap(p.w.seen)]
			for j := range seen {
				seen[j] = 1
			}
			p.w.stamp = start
			got := solveWithin(t, p)
			if p.w.stamp >= start {
				t.Fatalf("%s seed %d: stamp %d did not wrap from %d over %d eliminations", f.name, seed, p.w.stamp, start, elims)
			}
			wrapped++
			same := got.Status == want.Status && got.Pivots == want.Pivots &&
				math.Float64bits(got.Objective) == math.Float64bits(want.Objective) && len(got.X) == len(want.X)
			for j := 0; same && j < len(got.X); j++ {
				same = math.Float64bits(got.X[j]) == math.Float64bits(want.X[j])
			}
			if !same {
				t.Fatalf("%s seed %d: across the stamp wrap %+v, fresh %+v", f.name, seed, got, want)
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no system wrapped the stamp")
	}
	t.Logf("%d solves wrapped the stamp", wrapped)
}

// solveWithin solves p under a 1 s deadline.
func solveWithin(t *testing.T, p *Problem) Solution {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	sol, err := p.SolveContext(ctx)
	if err != nil {
		t.Fatalf("no answer within 1 s: %v", err)
	}
	return sol
}
