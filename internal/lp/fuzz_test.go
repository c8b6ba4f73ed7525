package lp

import (
	"context"
	"testing"
	"time"
)

// FuzzLP turns bytes into a small system — at most 8 variables and 8
// rows over the coefficients {-2, …, 3}, zero the most common, so that
// degenerate vertices, redundant rows and empty rows are everyday —
// solves it under a 1 s context and requires Check to accept the answer
// and the gather of every column to equal a scan of all rows.
// The layout is: variable count, row count, one cost per variable, then
// per row an operator, a right-hand side and one coefficient per
// variable; missing bytes read as zero.
func FuzzLP(f *testing.F) {
	f.Add([]byte{})                                   // minimize 0 over x >= 0: optimal
	f.Add([]byte{0, 0, 4})                            // minimize -x, no rows: unbounded
	f.Add([]byte{1, 2, 0, 0, 2, 7, 3, 3, 0, 0, 3, 3}) // x+y >= 3, x+y <= 0: infeasible
	// minimize -x+y-2z s.t. x-y+2z <= 0, 2x+y-z >= 0, x+y+z <= 3: a
	// degenerate optimum at the origin.
	f.Add([]byte{2, 3, 4, 3, 6, 0, 0, 3, 4, 5, 2, 0, 5, 3, 4, 0, 7, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		coeff := func() float64 { return []float64{0, 0, 0, 1, -1, 2, -2, 3}[next()%8] }
		nvars, rows := 1+int(next()%8), int(next()%9)
		p := NewProblem(nvars)
		for j := 0; j < nvars; j++ {
			p.SetCost(j, coeff())
		}
		for ; rows > 0; rows-- {
			op, b := Op(next()%3), coeff()
			var idx []int32
			var val []float64
			for j := 0; j < nvars; j++ {
				if v := coeff(); v != 0 {
					idx = append(idx, int32(j))
					val = append(val, v)
				}
			}
			if err := p.AddRow(idx, val, op, b); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		sol, err := p.SolveContext(ctx)
		if err != nil {
			t.Fatalf("no answer within 1 s: %v", err)
		}
		if err := p.Check(sol); err != nil {
			t.Fatalf("%v answer fails Check: %v", sol.Status, err)
		}
		checkGather(t, p)
	})
}
