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
// Constraint rows are stored sparsely and Solve pivots a sparse tableau
// (see sparse.go) that skips the structurally-zero work that dominates
// the interval-membership systems this repository generates.
// Every answer carries its proof in the tableau the solve leaves behind —
// the dual of an optimum, a Farkas vector for Infeasible, a ray for
// Unbounded — and Check verifies it against the problem's own rows (see
// check.go).
package lp

import (
	"fmt"
	"slices"
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
	Pivots    int // simplex pivots performed, both phases
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
	p.c = slices.Grow(p.c[:0], nvars)[:nvars]
	clear(p.c)
	p.ops = p.ops[:0]
	p.bs = p.bs[:0]
	p.ridx = p.ridx[:0]
	p.rval = p.rval[:0]
	p.offs = append(p.offs[:0], 0)
}

// SetCost sets the objective coefficient of variable j.
func (p *Problem) SetCost(j int, v float64) {
	p.c[j] = v
}

// AddRow adds a constraint from parallel index/value slices; idx must be
// strictly ascending and in range. The slices are copied, so callers may
// reuse their buffers. Zero coefficients are dropped. Once a pooled
// Problem's arenas have grown, AddRow allocates nothing.
func (p *Problem) AddRow(idx []int32, val []float64, op Op, b float64) error {
	if len(idx) != len(val) {
		return fmt.Errorf("lp: row has %d indices but %d values", len(idx), len(val))
	}
	p.ridx, p.rval = grow(p.ridx, len(idx)), grow(p.rval, len(idx))
	p.ops, p.bs, p.offs = grow(p.ops, 1), grow(p.bs, 1), grow(p.offs, 1)
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

// NumRows returns the number of constraints added since the last Reset.
func (p *Problem) NumRows() int { return len(p.ops) }

// Row returns constraint r as stored: its nonzeros, ascending, which
// the caller must not modify, its operator and its right-hand side.
func (p *Problem) Row(r int) ([]int32, []float64, Op, float64) {
	idx, val := p.rowNonzeros(r)
	return idx, val, p.ops[r], p.bs[r]
}

// rowNonzeros returns constraint r's stored nonzeros.
func (p *Problem) rowNonzeros(r int) ([]int32, []float64) {
	lo, hi := p.offs[r], p.offs[r+1]
	return p.ridx[lo:hi], p.rval[lo:hi]
}

// normalized returns row i as the tableau holds it: its operator and
// the sign the row was multiplied by. A negative right-hand side flips
// the row, and with it LE and GE; this is the one statement of that
// rule, which auxCounts, SolveContext and Check all read.
func (p *Problem) normalized(i int) (op Op, sign float64) {
	op, sign = p.ops[i], 1
	if p.bs[i] < 0 {
		sign = -1
		switch op {
		case LE:
			op = GE
		case GE:
			op = LE
		}
	}
	return op, sign
}

// auxCounts counts the slack/surplus and artificial columns the
// normalized system needs.
func (p *Problem) auxCounts() (nSlack, nArt int) {
	for i := range p.ops {
		op, _ := p.normalized(i)
		if op != EQ {
			nSlack++
		}
		if op != LE {
			nArt++
		}
	}
	return
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must grow.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, cap(s)))
	}
	return s
}
