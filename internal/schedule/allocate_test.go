package schedule

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"schedroute/internal/lp"
)

var updatePivots = flag.Bool("update-pivots", false, "rewrite the sec5.2/ lines of internal/lp/testdata/pivots.golden")

// lpPivotsGolden is internal/lp's pin of every LP's status and pivot
// count; its sec5.2/ lines, the last in the file, are this package's.
const lpPivotsGolden = "../lp/testdata/pivots.golden"

// TestAllocationLPAnswersCheck holds the Section 5.2 systems the solver
// really builds to lp.Check: on every standard configuration, bandwidth
// and load point, for each maximal subset of the chosen path assignment,
// allocateSubset runs on a fresh arena, the arena's LP is solved again
// and its answer must carry a certificate Check accepts, Optimal exactly
// when allocateSubset succeeded. The grid includes Fig. 7's allocation
// failure (6-cube, B=64, load 0.4074), so infeasible answers are checked
// too. Each answer's status and pivot count must match its sec5.2/ line
// of lpPivotsGolden.
func TestAllocationLPAnswersCheck(t *testing.T) {
	var counts [3]int
	var got []string
	tops := solverGoldenTopologies(t)
	var names []string
	for name := range tops {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, bw := range []float64{64, 128} {
			for k := 0; k < 12; k++ {
				tag := fmt.Sprintf("%s-b%g k=%d", name, bw, k)
				res, err := Compute(dvbProblem(t, tops[name], bw, gridTauIn(k)), Options{Seed: 1})
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
					got = append(got, fmt.Sprintf("sec5.2/%s-b%g-k%d %d %v %d", name, bw, k, si, sol.Status, sol.Pivots))
				}
			}
		}
	}
	t.Logf("%d optimal, %d infeasible, %d unbounded", counts[lp.Optimal], counts[lp.Infeasible], counts[lp.Unbounded])
	if counts[lp.Optimal] == 0 || counts[lp.Infeasible] == 0 {
		t.Fatal("the grid must reach both an optimal and an infeasible allocation LP")
	}
	matchPivotLines(t, got)
}

// TestHalvedXmitKeepsSubsetsFeasible is a metamorphic test of the
// Section 5.2 LP: halving every message's transmission time only loosens
// the system — half of any allocation that fits still fits — so no
// maximal subset that allocates may stop allocating. It runs over every
// maximal subset of the standard grid's path assignments and of the
// compile_lp pool's first-attempt assignments, and lp.Check must accept
// the answer at either transmission time.
func TestHalvedXmitKeepsSubsetsFeasible(t *testing.T) {
	pool, o := compileLPPool(t)
	o.Retries = 0
	grid := standardGrid(t)
	var feasible, freed, subsets int
	for i, e := range append(grid, pool...) {
		opt := Options{Seed: 1}
		if i >= len(grid) {
			opt = o
		}
		res, err := Compute(e.p, opt)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		pa, ws, act := res.Assignment, res.Windows, res.Activity
		half := slices.Clone(ws)
		for m := range half {
			half[m].Xmit /= 2
		}
		K := act.Intervals.K()
		for si, subset := range MaximalSubsets(pa, ws, act) {
			var ok [2]bool
			for h, w := range [][]Window{ws, half} {
				var a solveArena
				allocErr := allocateSubset(context.Background(), &a, subset, nil, pa, w, act, K, &Allocation{P: make([][]float64, len(w))}, nil)
				sol := a.lp.Solve()
				if err := a.lp.Check(sol); err != nil {
					t.Fatalf("%s subset %d (halved %t): %v answer fails Check: %v", e.id, si, h == 1, sol.Status, err)
				}
				if (sol.Status == lp.Optimal) != (allocErr == nil) {
					t.Fatalf("%s subset %d (halved %t): LP says %v, allocateSubset returned %v", e.id, si, h == 1, sol.Status, allocErr)
				}
				ok[h] = allocErr == nil
			}
			subsets++
			switch {
			case ok[0] && !ok[1]:
				t.Errorf("%s subset %d: allocates at full transmission times, not at half", e.id, si)
			case ok[0]:
				feasible++
			case ok[1]:
				freed++
			}
		}
	}
	t.Logf("%d subsets: %d allocate at both transmission times, %d only at half", subsets, feasible, freed)
	if feasible == 0 || freed == 0 {
		t.Fatal("the cases must reach subsets that allocate and subsets that allocate only at half")
	}
}

// matchPivotLines compares got with the sec5.2/ lines of lpPivotsGolden
// or, under -update-pivots, replaces them, keeping every other line.
func matchPivotLines(t *testing.T, got []string) {
	raw, err := os.ReadFile(lpPivotsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want, rest []string
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "sec5.2/"):
			want = append(want, line)
		default:
			rest = append(rest, line)
		}
	}
	if *updatePivots {
		out := strings.Join(append(rest, got...), "\n") + "\n"
		if err := os.WriteFile(lpPivotsGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d sec5.2/ lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more lines differ", bad-10)
	}
}
