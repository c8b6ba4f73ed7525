package schedule

import (
	"context"
	"fmt"
	"testing"

	"schedroute/internal/lp"
)

// TestAllocationLPAnswersCheck holds the Section 5.2 systems the solver
// really builds to lp.Check: on every standard configuration, bandwidth
// and load point, for each maximal subset of the chosen path assignment,
// allocateSubset runs on a fresh arena, the arena's LP is solved again
// and its answer must carry a certificate Check accepts, Optimal exactly
// when allocateSubset succeeded. The grid includes Fig. 7's allocation
// failure (6-cube, B=64, load 0.4074), so infeasible answers are checked
// too.
func TestAllocationLPAnswersCheck(t *testing.T) {
	var counts [3]int
	for name, top := range solverGoldenTopologies(t) {
		for _, bw := range []float64{64, 128} {
			for k := 0; k < 12; k++ {
				tag := fmt.Sprintf("%s-b%g k=%d", name, bw, k)
				res, err := Compute(dvbProblem(t, top, bw, gridTauIn(k)), Options{Seed: 1})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				pa, ws, act := res.Assignment, res.Windows, res.Activity
				K := act.Intervals.K()
				out := &Allocation{P: make([][]float64, len(ws))}
				for si, subset := range MaximalSubsets(pa, ws, act) {
					var a solveArena
					allocErr := allocateSubset(context.Background(), &a, subset, nil, pa, ws, act, K, out, nil)
					sol := a.lp.Solve()
					if err := a.lp.Check(sol); err != nil {
						t.Fatalf("%s subset %d: %v answer fails Check: %v", tag, si, sol.Status, err)
					}
					if (sol.Status == lp.Optimal) != (allocErr == nil) {
						t.Fatalf("%s subset %d: LP says %v, allocateSubset returned %v", tag, si, sol.Status, allocErr)
					}
					counts[sol.Status]++
				}
			}
		}
	}
	t.Logf("%d optimal, %d infeasible, %d unbounded", counts[lp.Optimal], counts[lp.Infeasible], counts[lp.Unbounded])
	if counts[lp.Optimal] == 0 || counts[lp.Infeasible] == 0 {
		t.Fatal("the grid must reach both an optimal and an infeasible allocation LP")
	}
}
