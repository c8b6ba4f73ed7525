package schedule

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"schedroute/internal/lp"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

var updatePivots = flag.Bool("update-pivots", false, "rewrite the sec5.2/ lines of internal/lp/testdata/pivots.golden")

// lpPivotsGolden is internal/lp's pin of every LP's status and pivot
// count; its sec5.2/ lines, the last in the file, are this package's.
const lpPivotsGolden = "../lp/testdata/pivots.golden"

// TestAllocationLPAnswersCheck holds the Section 5.2 systems the solver
// really builds to lp.Check: on every standard configuration, bandwidth
// and load point, for each maximal subset of the chosen path assignment,
// allocateSubset runs on a fresh arena, its rows sized for the subset,
// the arena's LP is solved again and its answer must carry a
// certificate Check accepts, Optimal exactly when allocateSubset
// succeeded. The grid includes Fig. 7's allocation
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
					a := solveArena{alloc: allocScratch{rows: make([]float64, len(subset)*K)}}
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
				a := solveArena{alloc: allocScratch{rows: make([]float64, len(subset)*K)}}
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

// allocRow is one §5.2 constraint as the LP stores it.
type allocRow struct {
	idx []int32
	val []float64
	op  lp.Op
	b   float64
}

// referenceAllocationRows builds subset's §5.2 rows as allocateSubset
// lays them out, from per-link maps: (3) per free message, a cap per
// cell, then (4) per link ascending and interval, the pinned members'
// rows of base taken off the right-hand side.
func referenceAllocationRows(subset []tfg.MessageID, free func(tfg.MessageID) bool, base *Allocation, pa *PathAssignment, ws []Window, act *Activity, linkCap []float64) []allocRow {
	K := act.Intervals.K()
	varOf := map[[2]int]int32{}
	var cells [][2]int
	var rows []allocRow
	ones := func(n int) []float64 {
		v := make([]float64, n)
		for t := range v {
			v[t] = 1
		}
		return v
	}
	for _, mi := range subset {
		if free(mi) {
			for k := 0; k < K; k++ {
				if act.Active[mi][k] {
					varOf[[2]int{int(mi), k}] = int32(len(cells))
					cells = append(cells, [2]int{int(mi), k})
				}
			}
		}
	}
	for _, mi := range subset {
		if free(mi) {
			var idx []int32
			for k := 0; k < K; k++ {
				if v, ok := varOf[[2]int{int(mi), k}]; ok {
					idx = append(idx, v)
				}
			}
			rows = append(rows, allocRow{idx, ones(len(idx)), lp.EQ, ws[mi].Xmit})
		}
	}
	for vi, c := range cells {
		rows = append(rows, allocRow{[]int32{int32(vi)}, ones(1), lp.LE, act.Intervals.Length(c[1])})
	}
	freeOn, pinnedOn := map[topology.LinkID][]tfg.MessageID{}, map[topology.LinkID][]tfg.MessageID{}
	for _, mi := range subset {
		for _, l := range pa.Links[mi] {
			if free(mi) {
				freeOn[l] = append(freeOn[l], mi)
			} else {
				pinnedOn[l] = append(pinnedOn[l], mi)
			}
		}
	}
	var links []topology.LinkID
	for l := range freeOn {
		links = append(links, l)
	}
	slices.Sort(links)
	for _, l := range links {
		share := 1.0
		if linkCap != nil {
			share = max(linkCap[l], 0)
		}
		for k := 0; k < K; k++ {
			var idx []int32
			for _, mi := range freeOn[l] {
				if v, ok := varOf[[2]int{int(mi), k}]; ok {
					idx = append(idx, v)
				}
			}
			if len(idx) == 0 {
				continue
			}
			residual := share * act.Intervals.Length(k)
			for _, mi := range pinnedOn[l] {
				if base.P[mi] != nil {
					residual -= base.P[mi][k]
				}
			}
			residual = max(residual, 0)
			if len(idx) < 2 && residual >= act.Intervals.Length(k) {
				continue
			}
			rows = append(rows, allocRow{idx, ones(len(idx)), lp.LE, residual})
		}
	}
	return rows
}

// TestAllocationRowsMatchMapReference holds the §5.2 rows allocateSubset
// hands the LP, row for row and bit for bit, to referenceAllocationRows:
// for every maximal subset of the standard configurations, all free, and
// with every third message pinned to the solve's allocation, at the
// whole machine and at per-link shares.
func TestAllocationRowsMatchMapReference(t *testing.T) {
	tops := solverGoldenTopologies(t)
	var names []string
	for name := range tops {
		names = append(names, name)
	}
	slices.Sort(names)
	checked := [2]int{}
	for _, name := range names {
		top := tops[name]
		shares := make([]float64, top.Links())
		for l := range shares {
			shares[l] = []float64{1, 0.75, 0.5}[l%3]
		}
		for _, k := range []int{2, 6, 10} {
			res, err := Compute(dvbProblem(t, top, 128, gridTauIn(k)), Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Allocation == nil {
				continue
			}
			pa, ws, act := res.Assignment, res.Windows, res.Activity
			K := act.Intervals.K()
			for si, subset := range MaximalSubsets(pa, ws, act) {
				for pinned, pin := range []*allocPin{nil, {base: res.Allocation, free: func(mi tfg.MessageID) bool { return mi%3 != 0 }}} {
					free := func(tfg.MessageID) bool { return true }
					if pin != nil {
						free = pin.free
					}
					if !slices.ContainsFunc(subset, free) {
						continue
					}
					for _, linkCap := range [][]float64{nil, shares} {
						a := solveArena{alloc: allocScratch{rows: make([]float64, len(subset)*K)}}
						out := &Allocation{P: make([][]float64, len(ws))}
						_ = allocateSubset(context.Background(), &a, subset, pin, pa, ws, act, K, out, linkCap)
						want := referenceAllocationRows(subset, free, res.Allocation, pa, ws, act, linkCap)
						tag := fmt.Sprintf("%s k=%d subset %d pinned %d cap %t", name, k, si, pinned, linkCap != nil)
						if a.lp.NumRows() != len(want) {
							t.Fatalf("%s: %d rows, the reference builds %d", tag, a.lp.NumRows(), len(want))
						}
						for r, w := range want {
							idx, val, op, b := a.lp.Row(r)
							if !slices.Equal(idx, w.idx) || !slices.Equal(val, w.val) || op != w.op || math.Float64bits(b) != math.Float64bits(w.b) {
								t.Fatalf("%s row %d: %v %v %v %v, the reference %v %v %v %v", tag, r, idx, val, op, b, w.idx, w.val, w.op, w.b)
							}
						}
						checked[pinned]++
					}
				}
			}
		}
	}
	if checked[0] == 0 || checked[1] == 0 {
		t.Fatalf("checked %d free and %d pinned systems", checked[0], checked[1])
	}
	t.Logf("checked %d free and %d pinned systems", checked[0], checked[1])
}
