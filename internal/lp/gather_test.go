package lp

import (
	"context"
	"math"
	"testing"
	"time"
)

// checkGather requires gatherColumn, on the tableau p's last solve left,
// to return for every column exactly the rows and values, bit for bit
// and in the same order, that a lookup over every row finds, and every
// stored entry to have its class bit set in rowsOf; no row to store a
// column twice or an exact zero (checkRows); and no two rows to share
// storage (checkStorage). It overwrites the gathered
// column an Unbounded certificate reads, so call it after Check.
func checkGather(t *testing.T, p *Problem) {
	t.Helper()
	w := &p.w
	checkRows(t, w)
	checkStorage(t, w)
	for i, row := range w.idx {
		for _, j := range row {
			if w.rowsOf[int(uint32(j)%colClasses)*w.words+i>>6]&(1<<(i&63)) == 0 {
				t.Fatalf("row %d holds column %d, but its class bit is clear", i, j)
			}
		}
	}
	nSlack, nArt := p.auxCounts()
	for j := int32(0); int(j) < p.nvars+nSlack+nArt; j++ {
		var rows []int32
		var vals []float64
		for i := range w.idx {
			if c := lookup(w.idx[i], w.val[i], j); c != 0 {
				rows = append(rows, int32(i))
				vals = append(vals, c)
			}
		}
		w.gatherColumn(j)
		same := len(w.colRow) == len(rows)
		for t := 0; same && t < len(rows); t++ {
			same = w.colRow[t] == rows[t] && math.Float64bits(w.colVal[t]) == math.Float64bits(vals[t])
		}
		if !same {
			t.Fatalf("column %d: gathered rows %v values %v, a full scan finds %v %v", j, w.colRow, w.colVal, rows, vals)
		}
	}
}

// TestGatherMatchesFullScan: after every solve of every property family,
// the class-bitset gather of each column equals a scan of all rows. Each
// solve has a deadline, since a gather that misses a row corrupts the
// tableau, and the pivots on it need not end.
func TestGatherMatchesFullScan(t *testing.T) {
	n := familySeeds
	if testing.Short() {
		n = 60
	}
	for _, f := range families {
		for seed := int64(0); seed < int64(n); seed++ {
			p := f.problem(seed)
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := p.SolveContext(ctx)
			cancel()
			if err != nil {
				t.Fatalf("%s seed %d: no answer within 1 s: %v", f.name, seed, err)
			}
			checkGather(t, p)
		}
	}
}
