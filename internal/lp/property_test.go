package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomAllocationLP builds an instance shaped like the Section 5.2
// interval-allocation systems: per-cell variables with EQ demand rows
// (each message's allocation sums to its transmission time), GE lower
// bounds on a few cells, and LE capacity rows coupling random cell
// subsets (link-interval capacity). Roughly a third of the instances
// are driven infeasible by shrinking one capacity below the demand it
// must carry.
func randomAllocationLP(rng *rand.Rand) *Problem {
	nmsgs := 1 + rng.Intn(6)
	K := 1 + rng.Intn(5)
	nvars := nmsgs * K
	p := NewProblem(nvars)
	for j := 0; j < nvars; j++ {
		p.SetCost(j, rng.Float64())
	}
	demand := make([]float64, nmsgs)
	for m := 0; m < nmsgs; m++ {
		demand[m] = 1 + 10*rng.Float64()
		idx := make([]int32, K)
		val := make([]float64, K)
		for k := 0; k < K; k++ {
			idx[k] = int32(m*K + k)
			val[k] = 1
		}
		if err := p.AddRow(idx, val, EQ, demand[m]); err != nil {
			panic(err)
		}
	}
	// A few per-cell lower bounds (pinned allocations).
	for n := rng.Intn(3); n > 0; n-- {
		j := rng.Intn(nvars)
		_ = p.AddRow([]int32{int32(j)}, []float64{1}, GE, rng.Float64())
	}
	// Capacity rows over random ascending cell subsets.
	total := 0.0
	for _, d := range demand {
		total += d
	}
	rows := 1 + rng.Intn(2*K)
	for r := 0; r < rows; r++ {
		var idx []int32
		var val []float64
		for j := 0; j < nvars; j++ {
			if rng.Float64() < 0.4 {
				idx = append(idx, int32(j))
				val = append(val, 1)
			}
		}
		if len(idx) == 0 {
			continue
		}
		cap := total * (0.1 + rng.Float64())
		if rng.Float64() < 0.15 {
			cap = 0 // likely infeasible against the EQ demands
		}
		_ = p.AddRow(idx, val, LE, cap)
	}
	return p
}

// randomDenseLP builds an unstructured instance (dense-ish rows, mixed
// ops, negative coefficients and RHS) to cover the normalization and
// unbounded paths the structured generator cannot reach. Nearly a
// quarter of its draws have no rows at all.
func randomDenseLP(rng *rand.Rand) *Problem {
	nvars := 1 + rng.Intn(8)
	p := NewProblem(nvars)
	for j := 0; j < nvars; j++ {
		p.SetCost(j, rng.NormFloat64())
	}
	rows := rng.Intn(8)
	ops := []Op{LE, GE, EQ}
	for r := 0; r < rows; r++ {
		var idx []int32
		var val []float64
		for j := 0; j < nvars; j++ {
			if rng.Float64() < 0.6 {
				idx = append(idx, int32(j))
				val = append(val, rng.NormFloat64())
			}
		}
		_ = p.AddRow(idx, val, ops[rng.Intn(len(ops))], rng.NormFloat64()*5)
	}
	return p
}

// smallInt draws from {-2, …, 2}, zero twice as often: integer
// coefficients make ties, degenerate vertices and redundant rows common.
func smallInt(rng *rand.Rand) float64 {
	return []float64{-2, -1, 0, 0, 1, 2}[rng.Intn(6)]
}

// randomDegenerateLP builds a system most of whose rows pass through the
// origin (b = 0), over small integer coefficients, capped by one
// Σx ≤ 10 row half the time: every vertex at the origin is degenerate
// many times over, the case Bland's rule exists for.
func randomDegenerateLP(rng *rand.Rand) *Problem {
	nvars := 2 + rng.Intn(7)
	p := NewProblem(nvars)
	for j := 0; j < nvars; j++ {
		p.SetCost(j, smallInt(rng))
	}
	ops := []Op{LE, GE, EQ}
	for r := 2 + rng.Intn(8); r > 0; r-- {
		var idx []int32
		var val []float64
		for j := 0; j < nvars; j++ {
			if v := smallInt(rng); v != 0 {
				idx = append(idx, int32(j))
				val = append(val, v)
			}
		}
		b := 0.0
		if rng.Intn(4) == 0 {
			b = smallInt(rng)
		}
		_ = p.AddRow(idx, val, ops[rng.Intn(len(ops))], b)
	}
	if rng.Intn(2) == 0 {
		idx := make([]int32, nvars)
		val := make([]float64, nvars)
		for j := range idx {
			idx[j], val[j] = int32(j), 1
		}
		_ = p.AddRow(idx, val, LE, 10)
	}
	return p
}

// pointRows adds rows rows that the point x0 ≥ 0 satisfies, with mixed
// operators and random slack; dirOK(op, j, v) vetoes the coefficient v of
// variable j in a row of operator op (it is dropped).
func pointRows(rng *rand.Rand, p *Problem, x0 []float64, rows int, dirOK func(op Op, j int, v float64) bool) {
	ops := []Op{LE, GE, EQ}
	for ; rows > 0; rows-- {
		op := ops[rng.Intn(len(ops))]
		var idx []int32
		var val []float64
		ax := 0.0
		for j := range x0 {
			if v := rng.NormFloat64(); rng.Float64() < 0.6 && dirOK(op, j, v) {
				idx = append(idx, int32(j))
				val = append(val, v)
				ax += v * x0[j]
			}
		}
		switch op {
		case LE:
			ax += rng.Float64()
		case GE:
			ax -= rng.Float64()
		}
		_ = p.AddRow(idx, val, op, ax)
	}
}

// randomInfeasibleLP builds a system feasible at a random point, then
// adds a pair of rows that contradict each other: a·x ≤ β and
// a·x ≥ β + gap for one random a ≥ 0.
func randomInfeasibleLP(rng *rand.Rand) *Problem {
	nvars := 1 + rng.Intn(8)
	p := NewProblem(nvars)
	x0 := make([]float64, nvars)
	for j := range x0 {
		x0[j] = 5 * rng.Float64()
		p.SetCost(j, rng.NormFloat64())
	}
	pointRows(rng, p, x0, rng.Intn(6), func(Op, int, float64) bool { return true })
	var idx []int32
	var val []float64
	for j := 0; j < nvars; j++ {
		if len(idx) == 0 || rng.Float64() < 0.5 {
			idx = append(idx, int32(j))
			val = append(val, 0.1+rng.Float64())
		}
	}
	beta := 10 * rng.NormFloat64()
	_ = p.AddRow(idx, val, LE, beta)
	_ = p.AddRow(idx, val, GE, beta+0.01+rng.Float64())
	return p
}

// randomUnboundedLP builds a system feasible at a random point in which
// one variable with a negative cost can grow forever: it has only
// coefficients ≤ 0 in LE rows, ≥ 0 in GE rows and none in EQ rows.
func randomUnboundedLP(rng *rand.Rand) *Problem {
	nvars := 1 + rng.Intn(8)
	p := NewProblem(nvars)
	x0 := make([]float64, nvars)
	for j := range x0 {
		x0[j] = 5 * rng.Float64()
		p.SetCost(j, rng.NormFloat64())
	}
	free := rng.Intn(nvars)
	p.SetCost(free, -0.1-rng.Float64())
	pointRows(rng, p, x0, rng.Intn(8), func(op Op, j int, v float64) bool {
		return j != free || (op == LE && v < 0) || (op == GE && v > 0)
	})
	return p
}

// family is one generator of the property tests, with the status its
// systems are built to have (-1: any).
type family struct {
	name string
	gen  func(*rand.Rand) *Problem
	want Status
}

// families are the allocation-shaped, unstructured, degenerate,
// infeasible and unbounded systems the property tests solve, familySeeds
// seeds each.
var families = []family{
	{"alloc", randomAllocationLP, -1},
	{"dense", randomDenseLP, -1},
	{"degenerate", randomDegenerateLP, -1},
	{"infeasible", randomInfeasibleLP, Infeasible},
	{"unbounded", randomUnboundedLP, Unbounded},
}

const familySeeds = 400

// problem draws the family's system for seed; alloc and dense draw from
// one stream per seed, in that order.
func (f family) problem(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	if f.name == "dense" {
		randomAllocationLP(rng)
	}
	return f.gen(rng)
}

// TestSolveAnswersCheck: every answer the solver gives, on every family,
// carries a certificate Check accepts, and the three families built to
// have a known status get it.
func TestSolveAnswersCheck(t *testing.T) {
	n := familySeeds
	if testing.Short() {
		n = 60
	}
	for _, f := range families {
		var counts [3]int
		for seed := int64(0); seed < int64(n); seed++ {
			p := f.problem(seed)
			s := p.Solve()
			if err := p.Check(s); err != nil {
				t.Fatalf("%s seed %d: %v answer fails Check: %v", f.name, seed, s.Status, err)
			}
			if f.want >= 0 && s.Status != f.want {
				t.Fatalf("%s seed %d: status %v, want %v", f.name, seed, s.Status, f.want)
			}
			counts[s.Status]++
		}
		t.Logf("%-10s %d optimal, %d infeasible, %d unbounded", f.name, counts[Optimal], counts[Infeasible], counts[Unbounded])
	}
}

// TestPooledSolveMatchesFreshAfterReset replays systems through one
// pooled Problem, the way solveArena uses it: the allocation family,
// then a seeded walk of allocation-shaped systems that grow, shrink and
// repeat in size, from a few rows to some hundreds, so the rows take
// buffers every earlier system handed back, across classes and pages.
// Reset must leave no residue that changes any answer, its pivots or
// its certificate: status, pivot count, objective and X must equal a
// fresh Problem's bit for bit, and no two rows may share storage.
func TestPooledSolveMatchesFreshAfterReset(t *testing.T) {
	pooled := NewProblem(1)
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samePooledSolve(t, pooled, randomAllocationLP(rng), fmt.Sprintf("alloc seed %d", seed))
	}
	walk := []int{2, 12, 24, 30, 24, 24, 8, 30, 30, 1, 16, 30, 3, 28}
	n := len(walk)
	if testing.Short() {
		n = 6
	}
	for step, nmsgs := range walk[:n] {
		rng := rand.New(rand.NewSource(int64(step)))
		samePooledSolve(t, pooled, sizedAllocationLP(rng, nmsgs), fmt.Sprintf("walk step %d (%d messages)", step, nmsgs))
	}
}

// samePooledSolve restates fresh on pooled and fails unless the two
// solves agree bit for bit and the pooled answer passes Check and
// checkGather.
func samePooledSolve(t *testing.T, pooled, fresh *Problem, name string) {
	t.Helper()
	pooled.Reset(fresh.nvars)
	for j := 0; j < fresh.nvars; j++ {
		pooled.SetCost(j, fresh.c[j])
	}
	for r := range fresh.ops {
		idx, val := fresh.rowNonzeros(r)
		if err := pooled.AddRow(idx, val, fresh.ops[r], fresh.bs[r]); err != nil {
			t.Fatal(err)
		}
	}
	want := solveWithin(t, fresh)
	got := solveWithin(t, pooled)
	same := got.Status == want.Status && got.Pivots == want.Pivots &&
		math.Float64bits(got.Objective) == math.Float64bits(want.Objective) && len(got.X) == len(want.X)
	for j := 0; same && j < len(got.X); j++ {
		same = math.Float64bits(got.X[j]) == math.Float64bits(want.X[j])
	}
	if !same {
		t.Fatalf("%s: pooled (%v, %d pivots, objective %v), fresh (%v, %d pivots, objective %v), or X differs",
			name, got.Status, got.Pivots, got.Objective, want.Status, want.Pivots, want.Objective)
	}
	if err := pooled.Check(got); err != nil {
		t.Fatalf("%s: pooled answer fails Check: %v", name, err)
	}
	checkGather(t, pooled)
}

// sizedAllocationLP builds a §5.2-shaped feasibility system over nmsgs
// messages and K intervals, feasible by construction around a random
// point x0: a demand row per message over its active cells, a cap row
// per cell, and two capacity rows per message, each over a random set
// of the cells of one interval, with x0's load and some slack as its
// bound.
func sizedAllocationLP(rng *rand.Rand, nmsgs int) *Problem {
	K := 2 + rng.Intn(6)
	p := NewProblem(nmsgs * K)
	length := make([]float64, K)
	for k := range length {
		length[k] = float64(1 + rng.Intn(5))
	}
	x0 := make([]float64, nmsgs*K)
	var idx []int32
	var val []float64
	for m := 0; m < nmsgs; m++ {
		lo := rng.Intn(K)
		hi := lo + 1 + rng.Intn(K-lo)
		idx, val = idx[:0], val[:0]
		demand := 0.0
		for k := lo; k < hi; k++ {
			j := m*K + k
			x0[j] = length[k] * rng.Float64() / 2
			demand += x0[j]
			idx, val = append(idx, int32(j)), append(val, 1)
		}
		addRowOrPanic(p, idx, val, EQ, demand)
	}
	for j := range x0 {
		addRowOrPanic(p, []int32{int32(j)}, []float64{1}, LE, length[j%K])
	}
	for r := 0; r < 2*nmsgs; r++ {
		k := rng.Intn(K)
		idx, val = idx[:0], val[:0]
		load := 0.0
		for m := 0; m < nmsgs; m++ {
			if rng.Float64() < 0.3 {
				idx, val = append(idx, int32(m*K+k)), append(val, 1)
				load += x0[m*K+k]
			}
		}
		if len(idx) > 0 {
			addRowOrPanic(p, idx, val, LE, load*(1+rng.Float64()/2))
		}
	}
	return p
}

func addRowOrPanic(p *Problem, idx []int32, val []float64, op Op, b float64) {
	if err := p.AddRow(idx, val, op, b); err != nil {
		panic(err)
	}
}

// TestWarmResolveAllocatesOnlyX: once a Problem has solved a system,
// solving it again takes every row buffer off the free lists and
// allocates only the returned X, and nothing when SolveInto is handed
// the last X back.
func TestWarmResolveAllocatesOnlyX(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, nmsgs := range []int{5, 40} {
		p := sizedAllocationLP(rand.New(rand.NewSource(1)), nmsgs)
		first := p.Solve()
		if first.Status != Optimal {
			t.Fatalf("%d messages: the fixture must be optimal, got %v", nmsgs, first.Status)
		}
		if n := testing.AllocsPerRun(10, func() { p.Solve() }); n > 1 {
			t.Errorf("%d messages: a warm Solve allocates %v times, more than X", nmsgs, n)
		}
		x := first.X
		if n := testing.AllocsPerRun(10, func() {
			sol, err := p.SolveInto(context.Background(), x)
			if err != nil || sol.Pivots != first.Pivots {
				t.Fatalf("%d messages: warm SolveInto gave %d pivots, %v; the first solve %d", nmsgs, sol.Pivots, err, first.Pivots)
			}
			x = sol.X
		}); n > 0 {
			t.Errorf("%d messages: a warm SolveInto allocates %v times", nmsgs, n)
		}
	}
}

// TestCheckRejectsCorruptCertificates corrupts one entry of each kind of
// proof and requires Check to refuse it: an X entry and a dual sign of
// an optimum, a Farkas entry, and a ray entry.
func TestCheckRejectsCorruptCertificates(t *testing.T) {
	cases := []struct {
		name    string
		cost    []float64
		rows    [][]float64 // coefficients over every variable, then b
		ops     []Op
		want    Status
		corrupt func(s *Solution, c *certificate)
	}{
		{
			// minimize 2x+3y s.t. x+y = 10, x-y = 2: x = (6, 4).
			name: "optimal X", cost: []float64{2, 3},
			rows: [][]float64{{1, 1, 10}, {1, -1, 2}}, ops: []Op{EQ, EQ}, want: Optimal,
			corrupt: func(s *Solution, _ *certificate) { s.X[0]++ },
		},
		{
			// minimize x+y s.t. x+y >= 2: the GE row's multiplier is 1.
			name: "dual sign", cost: []float64{1, 1},
			rows: [][]float64{{1, 1, 2}, {1, 0, 5}, {0, 1, 5}}, ops: []Op{GE, LE, LE}, want: Optimal,
			corrupt: func(_ *Solution, c *certificate) { c.y[0] = -c.y[0] },
		},
		{
			// x <= 1 and x >= 3: y = (-1, 1).
			name: "Farkas entry", cost: []float64{0},
			rows: [][]float64{{1, 1}, {1, 3}}, ops: []Op{LE, GE}, want: Infeasible,
			corrupt: func(_ *Solution, c *certificate) { c.y[0] = 0 },
		},
		{
			// minimize -x0 s.t. x0 - x1 <= 1: ray (1, 1).
			name: "ray entry", cost: []float64{-1, 0},
			rows: [][]float64{{1, -1, 1}}, ops: []Op{LE}, want: Unbounded,
			corrupt: func(_ *Solution, c *certificate) { c.d[1] = 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProblem(len(tc.cost))
			for j, v := range tc.cost {
				p.SetCost(j, v)
			}
			for i, row := range tc.rows {
				var idx []int32
				var val []float64
				for j, v := range row[:len(row)-1] {
					if v != 0 {
						idx = append(idx, int32(j))
						val = append(val, v)
					}
				}
				addRow(t, p, idx, val, tc.ops[i], row[len(row)-1])
			}
			s := solve(t, p)
			if s.Status != tc.want {
				t.Fatalf("status %v, want %v", s.Status, tc.want)
			}
			c := p.certificate(s.Status)
			tc.corrupt(&s, &c)
			if err := p.check(s, c); err == nil {
				t.Fatal("Check accepted the corrupted certificate")
			}
		})
	}
}
