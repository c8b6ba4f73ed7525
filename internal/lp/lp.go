// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  a_i·x (<=|=|>=) b_i   for each constraint i
//	            x >= 0
//
// It is the optimization substrate behind the paper's Section 5.2
// message-interval allocation (a pure feasibility system) and the
// Section 5.3 interval-scheduling program (minimize the summed durations
// of link-feasible sets). Bland's rule is used throughout, so the solver
// cannot cycle.
//
// Constraint rows are stored sparsely and Solve runs a sparse revised
// tableau (see sparse.go) that performs exactly the floating-point
// operations of the reference dense tableau on the nonzero entries — the
// pivot sequence and every produced value match SolveDense bit for bit —
// while skipping the structurally-zero work that dominates the
// interval-membership systems this repository generates. SolveDense
// retains the original dense implementation as a cross-check oracle.
package lp

import (
	"fmt"
	"math"
	"sort"
)

// Op is a constraint comparison operator.
type Op int

const (
	// LE is a_i·x <= b_i.
	LE Op = iota
	// EQ is a_i·x == b_i.
	EQ
	// GE is a_i·x >= b_i.
	GE
)

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution with x >= 0.
	Infeasible
	// Unbounded means the objective can decrease without bound.
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

const eps = 1e-9

// Problem is a linear program under construction. The zero objective
// turns Solve into a pure feasibility check. Rows live in append-only
// arenas so a Problem can be pooled: Reset rewinds it for a new system
// without releasing any backing storage.
type Problem struct {
	nvars int
	c     []float64

	// One constraint per entry of ops/bs; row r's nonzeros are
	// ridx[offs[r]:offs[r+1]] (strictly ascending) with coefficients at
	// the same positions of rval.
	ops  []Op
	bs   []float64
	offs []int32
	ridx []int32
	rval []float64

	w sparseWork // Solve scratch, reused across calls
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Pivots    int // simplex pivots performed (0 from SolveDense)
}

// NewProblem creates a problem with nvars decision variables, all
// implicitly bounded below by zero, with a zero objective.
func NewProblem(nvars int) *Problem {
	p := &Problem{}
	p.Reset(nvars)
	return p
}

// Reset rewinds the problem to an empty system over nvars variables,
// keeping all backing storage — the pooling path of the schedule
// solver, which builds one small LP per maximal subset per Solve.
func (p *Problem) Reset(nvars int) {
	p.nvars = nvars
	if cap(p.c) < nvars {
		p.c = make([]float64, nvars)
	} else {
		p.c = p.c[:nvars]
		for i := range p.c {
			p.c[i] = 0
		}
	}
	p.ops = p.ops[:0]
	p.bs = p.bs[:0]
	p.ridx = p.ridx[:0]
	p.rval = p.rval[:0]
	if cap(p.offs) < 1 {
		p.offs = make([]int32, 1, 16)
	}
	p.offs = p.offs[:1]
	p.offs[0] = 0
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.nvars }

// SetCost sets the objective coefficient of variable j.
func (p *Problem) SetCost(j int, v float64) {
	p.c[j] = v
}

// AddRow adds a constraint from parallel index/value slices; idx must be
// strictly ascending and in range. The slices are copied, so callers may
// reuse their buffers. Zero coefficients are dropped. This is the
// allocation-free fast path the schedule package uses.
func (p *Problem) AddRow(idx []int32, val []float64, op Op, b float64) error {
	if len(idx) != len(val) {
		return fmt.Errorf("lp: row has %d indices but %d values", len(idx), len(val))
	}
	prev := int32(-1)
	for t, j := range idx {
		if j < 0 || int(j) >= p.nvars {
			return fmt.Errorf("lp: coefficient index %d out of range", j)
		}
		if j <= prev {
			return fmt.Errorf("lp: row indices not strictly ascending at %d", j)
		}
		prev = j
		if val[t] != 0 {
			p.ridx = append(p.ridx, j)
			p.rval = append(p.rval, val[t])
		}
	}
	p.ops = append(p.ops, op)
	p.bs = append(p.bs, b)
	p.offs = append(p.offs, int32(len(p.ridx)))
	return nil
}

// AddDense adds a constraint from a dense coefficient slice of length
// NumVars.
func (p *Problem) AddDense(a []float64, op Op, b float64) error {
	if len(a) != p.nvars {
		return fmt.Errorf("lp: constraint has %d coefficients, want %d", len(a), p.nvars)
	}
	for j, v := range a {
		if v != 0 {
			p.ridx = append(p.ridx, int32(j))
			p.rval = append(p.rval, v)
		}
	}
	p.ops = append(p.ops, op)
	p.bs = append(p.bs, b)
	p.offs = append(p.offs, int32(len(p.ridx)))
	return nil
}

// AddSparse adds a constraint from a variable→coefficient map.
func (p *Problem) AddSparse(coeffs map[int]float64, op Op, b float64) error {
	js := make([]int, 0, len(coeffs))
	for j := range coeffs {
		if j < 0 || j >= p.nvars {
			return fmt.Errorf("lp: coefficient index %d out of range", j)
		}
		js = append(js, j)
	}
	sort.Ints(js)
	for _, j := range js {
		if v := coeffs[j]; v != 0 {
			p.ridx = append(p.ridx, int32(j))
			p.rval = append(p.rval, v)
		}
	}
	p.ops = append(p.ops, op)
	p.bs = append(p.bs, b)
	p.offs = append(p.offs, int32(len(p.ridx)))
	return nil
}

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.ops) }

// rowNonzeros returns constraint r's stored nonzeros.
func (p *Problem) rowNonzeros(r int) ([]int32, []float64) {
	lo, hi := p.offs[r], p.offs[r+1]
	return p.ridx[lo:hi], p.rval[lo:hi]
}

// auxCounts counts the slack/surplus and artificial columns the
// normalized system needs — the same accounting the dense and sparse
// tableaus share.
func (p *Problem) auxCounts() (nSlack, nArt int) {
	for i, op := range p.ops {
		if p.bs[i] < 0 {
			// Normalizing flips the operator.
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		if op != EQ {
			nSlack++
		}
		if op != LE {
			nArt++
		}
	}
	return
}

// SolveDense runs the reference dense two-phase simplex. It is retained
// as the oracle the sparse Solve is property-tested against; production
// paths use Solve.
func (p *Problem) SolveDense() Solution {
	m := len(p.ops)
	if m == 0 {
		// Trivially feasible at the origin.
		return Solution{Status: Optimal, X: make([]float64, p.nvars)}
	}

	nSlack, nArt := p.auxCounts()
	total := p.nvars + nSlack + nArt
	artStart := p.nvars + nSlack
	// Tableau: m rows of total coefficients, plus rhs column.
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackIdx, artIdx := p.nvars, artStart
	for i := 0; i < m; i++ {
		a := make([]float64, p.nvars)
		ji, jv := p.rowNonzeros(i)
		for t, j := range ji {
			a[j] = jv[t]
		}
		b, op := p.bs[i], p.ops[i]
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		rowv := make([]float64, total+1)
		copy(rowv, a)
		rowv[total] = b
		switch op {
		case LE:
			rowv[slackIdx] = 1
			basis[i] = slackIdx
			slackIdx++
		case GE:
			rowv[slackIdx] = -1
			slackIdx++
			rowv[artIdx] = 1
			basis[i] = artIdx
			artIdx++
		case EQ:
			rowv[artIdx] = 1
			basis[i] = artIdx
			artIdx++
		}
		tab[i] = rowv
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		obj := make([]float64, total+1)
		for j := artStart; j < total; j++ {
			obj[j] = 1
		}
		// Price out the artificial basis.
		for i, bj := range basis {
			if bj >= artStart {
				for j := 0; j <= total; j++ {
					obj[j] -= tab[i][j]
				}
			}
		}
		if !simplexIterate(tab, basis, obj, total) {
			// Phase 1 objective is bounded below by zero, so
			// unboundedness cannot occur; treat defensively.
			return Solution{Status: Infeasible}
		}
		if -obj[total] > 1e-7 {
			return Solution{Status: Infeasible}
		}
		// Drive any artificial still in the basis out (degenerate zero
		// rows); if impossible the row is redundant.
		for i, bj := range basis {
			if bj < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, obj, i, j, total)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant constraint: zero the row to neutralize it.
				for j := 0; j <= total; j++ {
					tab[i][j] = 0
				}
			}
		}
	}

	// Phase 2: original objective over structural + slack columns;
	// artificial columns are frozen out by pricing them prohibitively.
	obj := make([]float64, total+1)
	copy(obj, p.c)
	for i, bj := range basis {
		if bj <= total && obj[bj] != 0 {
			cb := obj[bj]
			for j := 0; j <= total; j++ {
				obj[j] -= cb * tab[i][j]
			}
		}
	}
	// Forbid artificials from re-entering.
	barred := artStart

	if !simplexIterateBarred(tab, basis, obj, total, barred) {
		return Solution{Status: Unbounded}
	}

	x := make([]float64, p.nvars)
	for i, bj := range basis {
		if bj < p.nvars {
			x[bj] = tab[i][total]
		}
	}
	objVal := 0.0
	for j := 0; j < p.nvars; j++ {
		objVal += p.c[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: objVal}
}

// simplexIterate runs primal simplex with Bland's rule until optimal;
// returns false on unboundedness.
func simplexIterate(tab [][]float64, basis []int, obj []float64, total int) bool {
	return simplexIterateBarred(tab, basis, obj, total, total)
}

func simplexIterateBarred(tab [][]float64, basis []int, obj []float64, total, barred int) bool {
	for iter := 0; ; iter++ {
		// Entering: smallest index with negative reduced cost (Bland).
		enter := -1
		for j := 0; j < barred; j++ {
			if obj[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return true
		}
		// Leaving: min ratio, ties by smallest basis index (Bland).
		leave, best := -1, math.Inf(1)
		for i := range tab {
			if tab[i][enter] > eps {
				ratio := tab[i][total] / tab[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave == -1 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return false
		}
		pivot(tab, basis, obj, leave, enter, total)
	}
}

// pivot makes column enter basic in row leave.
func pivot(tab [][]float64, basis []int, obj []float64, leave, enter, total int) {
	pv := tab[leave][enter]
	inv := 1.0 / pv
	for j := 0; j <= total; j++ {
		tab[leave][j] *= inv
	}
	tab[leave][enter] = 1 // exactness
	for i := range tab {
		if i == leave {
			continue
		}
		f := tab[i][enter]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[leave][j]
		}
		tab[i][enter] = 0
	}
	f := obj[enter]
	if f != 0 {
		for j := 0; j <= total; j++ {
			obj[j] -= f * tab[leave][j]
		}
		obj[enter] = 0
	}
	basis[leave] = enter
}
