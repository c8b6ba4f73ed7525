package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// addRow adds a row the test spells out by hand; a refusal is a test bug.
func addRow(t *testing.T, p *Problem, idx []int32, val []float64, op Op, b float64) {
	t.Helper()
	if err := p.AddRow(idx, val, op, b); err != nil {
		t.Fatal(err)
	}
}

// solve solves p and fails the test unless Check accepts the answer.
func solve(t *testing.T, p *Problem) Solution {
	t.Helper()
	s := p.Solve()
	if err := p.Check(s); err != nil {
		t.Fatalf("%v answer fails Check: %v", s.Status, err)
	}
	return s
}

func TestSimpleMin(t *testing.T) {
	// minimize x+y s.t. x+y >= 2, x <= 5, y <= 5 → objective 2.
	p := NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 1)
	addRow(t, p, []int32{0, 1}, []float64{1, 1}, GE, 2)
	addRow(t, p, []int32{0}, []float64{1}, LE, 5)
	addRow(t, p, []int32{1}, []float64{1}, LE, 5)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, 2) {
		t.Errorf("objective = %g, want 2", s.Objective)
	}
}

func TestMaximizationViaNegation(t *testing.T) {
	// maximize 3x+2y s.t. x+y<=4, x+3y<=6 → x=4,y=0, obj 12.
	p := NewProblem(2)
	p.SetCost(0, -3)
	p.SetCost(1, -2)
	addRow(t, p, []int32{0, 1}, []float64{1, 1}, LE, 4)
	addRow(t, p, []int32{0, 1}, []float64{1, 3}, LE, 6)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(-s.Objective, 12) {
		t.Errorf("max = %g, want 12", -s.Objective)
	}
	if !approx(s.X[0], 4) || !approx(s.X[1], 0) {
		t.Errorf("x = %v", s.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// minimize 2x+3y s.t. x+y=10, x-y=2 → x=6,y=4, obj 24.
	p := NewProblem(2)
	p.SetCost(0, 2)
	p.SetCost(1, 3)
	addRow(t, p, []int32{0, 1}, []float64{1, 1}, EQ, 10)
	addRow(t, p, []int32{0, 1}, []float64{1, -1}, EQ, 2)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.X[0], 6) || !approx(s.X[1], 4) {
		t.Errorf("x = %v", s.X)
	}
	if !approx(s.Objective, 24) {
		t.Errorf("objective = %g", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	addRow(t, p, []int32{0}, []float64{1}, LE, 1)
	addRow(t, p, []int32{0}, []float64{1}, GE, 3)
	if s := solve(t, p); s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem(2)
	addRow(t, p, []int32{0, 1}, []float64{1, 1}, EQ, 5)
	addRow(t, p, []int32{0, 1}, []float64{1, 1}, EQ, 7)
	if s := solve(t, p); s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// minimize -x with only x >= 0: unbounded below.
	p := NewProblem(1)
	p.SetCost(0, -1)
	addRow(t, p, []int32{0}, []float64{1}, GE, 0)
	if s := solve(t, p); s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -1 means y >= x+1; minimize y → x=0, y=1.
	p := NewProblem(2)
	p.SetCost(1, 1)
	addRow(t, p, []int32{0, 1}, []float64{1, -1}, LE, -1)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.X[1], 1) {
		t.Errorf("y = %g, want 1", s.X[1])
	}
}

func TestRedundantConstraints(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 1)
	addRow(t, p, []int32{0, 1}, []float64{1, 1}, EQ, 4)
	addRow(t, p, []int32{0, 1}, []float64{2, 2}, EQ, 8) // redundant copy
	addRow(t, p, []int32{0}, []float64{1}, GE, 1)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, 4) {
		t.Errorf("objective = %g, want 4", s.Objective)
	}
}

func TestNoConstraints(t *testing.T) {
	p := NewProblem(3)
	s := solve(t, p)
	if s.Status != Optimal || len(s.X) != 3 {
		t.Errorf("want trivial optimum at origin, got %+v", s)
	}
}

// TestEmptySystem: with no rows, a negative cost is unbounded along its
// variable, and costs ≥ 0 are optimal at the origin.
func TestEmptySystem(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, -1)
	if s := solve(t, p); s.Status != Unbounded {
		t.Errorf("minimize x0 - x1 over x >= 0: status %v, want unbounded", s.Status)
	}
	p.Reset(2)
	p.SetCost(0, 1)
	if s := solve(t, p); s.Status != Optimal || s.Objective != 0 || s.X[0] != 0 || s.X[1] != 0 {
		t.Errorf("minimize x0 over x >= 0: %+v, want optimal at the origin", s)
	}
}

func TestSparseConstraint(t *testing.T) {
	p := NewProblem(4)
	p.SetCost(3, 1)
	addRow(t, p, []int32{3}, []float64{1}, GE, 7)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.X[3], 7) {
		t.Errorf("solution = %+v", s)
	}
	if err := p.AddRow([]int32{9}, []float64{1}, LE, 1); err == nil {
		t.Error("out-of-range index should fail")
	}
	if err := p.AddRow([]int32{2, 1}, []float64{1, 1}, LE, 1); err == nil {
		t.Error("descending indices should fail")
	}
	if err := p.AddRow([]int32{0}, []float64{1, 1}, LE, 1); err == nil {
		t.Error("index/value length mismatch should fail")
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// Beale's (1955) degenerate problem, which cycles under Dantzig's
	// rule; Bland's rule must terminate.
	p := NewProblem(4)
	p.SetCost(0, -0.75)
	p.SetCost(1, 150)
	p.SetCost(2, -0.02)
	p.SetCost(3, 6)
	addRow(t, p, []int32{0, 1, 2, 3}, []float64{0.25, -60, -0.04, 9}, LE, 0)
	addRow(t, p, []int32{0, 1, 2, 3}, []float64{0.5, -90, -0.02, 3}, LE, 0)
	addRow(t, p, []int32{2}, []float64{1}, LE, 1)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, -0.05) {
		t.Errorf("objective = %g, want -0.05", s.Objective)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 supplies (10, 20), 2 demands (15, 15), costs [[1,2],[3,1]].
	// Optimal: x00=10, x10=5, x11=15 → 10+15+15 = 40.
	p := NewProblem(4) // x00 x01 x10 x11
	p.SetCost(0, 1)
	p.SetCost(1, 2)
	p.SetCost(2, 3)
	p.SetCost(3, 1)
	addRow(t, p, []int32{0, 1}, []float64{1, 1}, EQ, 10)
	addRow(t, p, []int32{2, 3}, []float64{1, 1}, EQ, 20)
	addRow(t, p, []int32{0, 2}, []float64{1, 1}, EQ, 15)
	addRow(t, p, []int32{1, 3}, []float64{1, 1}, EQ, 15)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, 40) {
		t.Errorf("objective = %g, want 40", s.Objective)
	}
}

// Property: for random feasible allocation-style systems (the exact shape
// of Section 5.2), the solver finds a solution Check accepts.
func TestQuickAllocationFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nMsg := 2 + rng.Intn(4)
		nInt := 2 + rng.Intn(4)
		// Interval lengths.
		lens := make([]float64, nInt)
		for k := range lens {
			lens[k] = 1 + rng.Float64()*9
		}
		// Build a known-feasible allocation, then present the solver with
		// the induced demands.
		demand := make([]float64, nMsg)
		used := make([]float64, nInt)
		for i := range demand {
			for k := 0; k < nInt; k++ {
				room := lens[k] - used[k]
				if room <= 0 {
					continue
				}
				take := rng.Float64() * room * 0.5
				used[k] += take
				demand[i] += take
			}
			if demand[i] == 0 {
				return true // degenerate draw; skip
			}
		}
		p := NewProblem(nMsg * nInt)
		ones := []float64{1, 1, 1, 1, 1, 1}
		for i := 0; i < nMsg; i++ {
			var idx []int32
			for k := 0; k < nInt; k++ {
				idx = append(idx, int32(i*nInt+k))
			}
			if p.AddRow(idx, ones[:nInt], EQ, demand[i]) != nil {
				return false
			}
		}
		for k := 0; k < nInt; k++ {
			var idx []int32
			for i := 0; i < nMsg; i++ {
				idx = append(idx, int32(i*nInt+k))
			}
			if p.AddRow(idx, ones[:nMsg], LE, lens[k]) != nil {
				return false
			}
		}
		s := p.Solve()
		return s.Status == Optimal && p.Check(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: bounded random systems solve to an optimum Check accepts,
// which includes the reported objective equalling c·X.
func TestQuickObjectiveConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetCost(j, rng.Float64()*4-1)
		}
		all := []int32{0, 1, 2, 3}
		for i := 0; i < n+1; i++ {
			a := make([]float64, n)
			for j := range a {
				a[j] = rng.Float64()
			}
			_ = p.AddRow(all[:n], a, LE, 1+rng.Float64()*5)
		}
		// Bound all variables to keep it bounded.
		for j := 0; j < n; j++ {
			_ = p.AddRow(all[j:j+1], []float64{1}, LE, 10)
		}
		s := p.Solve()
		return s.Status == Optimal && p.Check(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
}
