package lp

import (
	"fmt"
	"math"
)

// checkTol is Check's tolerance: every ≤ and = passes when its residual
// is within checkTol times one plus the magnitude of the terms it sums.
const checkTol = 1e-9

// certificate is the proof behind a Solution: one multiplier per row, y
// (an optimum's dual or a Farkas vector), and for Unbounded the basic
// point x and the ray d.
type certificate struct{ y, x, d []float64 }

// certificate reads status's proof off the tableau the last solve left
// in p.w. The objective row holds the reduced costs c_j − πᵀÂ_j of the
// normalized system Â, and every row owns one unit column — its slack
// (+1 for LE, −1 for GE) or, for EQ, its artificial — so π_i is read
// from that column, and y_i is π_i with the row's flip undone. The
// artificials cost 1 in phase 1, where an Infeasible answer stops, and 0
// in phase 2. The ray starts at the entering column the last pricing step
// found no leaving row for and moves every basic variable against that
// column's gathered coefficients.
func (p *Problem) certificate(status Status) certificate {
	w := &p.w
	nSlack, _ := p.auxCounts()
	artCost := 0.0
	if status == Infeasible {
		artCost = 1
	}
	c := certificate{y: make([]float64, len(p.ops))}
	slack, art := p.nvars, p.nvars+nSlack
	for i := range p.ops {
		op, sign := p.normalized(i)
		var pi float64
		switch op {
		case LE:
			pi = -w.obj[slack]
			slack++
		case GE:
			pi = w.obj[slack]
			slack++
			art++
		case EQ:
			pi = artCost - w.obj[art]
			art++
		}
		c.y[i] = sign * pi
	}
	if status == Unbounded {
		c.x = w.basicPoint(nil, p.nvars)
		c.d = make([]float64, p.nvars)
		if w.enter < p.nvars {
			c.d[w.enter] = 1
		}
		for t, i := range w.colRow {
			if bj := w.basis[i]; bj < p.nvars {
				c.d[bj] = -w.colVal[t]
			}
		}
	}
	return c
}

// Check verifies sol, the answer the last Solve or SolveContext on p
// returned without error, against p's own rows, using the proof that
// solve left behind. Call it before the next Reset, SetCost, AddRow or
// solve on p.
//
//   - Optimal: X ≥ 0 satisfies every row and gives Objective; the row
//     multipliers y have each operator's sign (LE ≤ 0, GE ≥ 0, EQ free),
//     yᵀA_j ≤ c_j on every column, and c·X = yᵀb.
//   - Infeasible: y is a Farkas vector: each operator's sign, yᵀA_j ≤ 0
//     on every column and yᵀb > 0, so no x ≥ 0 satisfies every row.
//   - Unbounded: the basic point is feasible, and the ray d ≥ 0 keeps
//     every row (A d op 0) while lowering the cost (c·d < 0).
func (p *Problem) Check(sol Solution) error {
	return p.check(sol, p.certificate(sol.Status))
}

// check verifies sol against the certificate c.
func (p *Problem) check(sol Solution, c certificate) error {
	switch sol.Status {
	case Optimal:
		if err := p.satisfies(sol.X, p.bs); err != nil {
			return err
		}
		cx, cxMag := dot(p.c, sol.X)
		if !le(math.Abs(sol.Objective-cx), cxMag) {
			return fmt.Errorf("lp: objective %g, but c·X = %g", sol.Objective, cx)
		}
		if err := p.priced(c.y, p.c); err != nil {
			return err
		}
		if yb, ybMag := dot(c.y, p.bs); !le(math.Abs(cx-yb), cxMag+ybMag) {
			return fmt.Errorf("lp: duality gap: c·X = %g, yᵀb = %g", cx, yb)
		}
	case Infeasible:
		if err := p.priced(c.y, make([]float64, p.nvars)); err != nil {
			return err
		}
		if yb, _ := dot(c.y, p.bs); !(yb > 0) {
			return fmt.Errorf("lp: Farkas vector has yᵀb = %g, want > 0", yb)
		}
	case Unbounded:
		if err := p.satisfies(c.x, p.bs); err != nil {
			return fmt.Errorf("basic point: %w", err)
		}
		if err := p.satisfies(c.d, make([]float64, len(p.ops))); err != nil {
			return fmt.Errorf("ray: %w", err)
		}
		if cd, _ := dot(p.c, c.d); !(cd < 0) {
			return fmt.Errorf("lp: ray has c·d = %g, want < 0", cd)
		}
	default:
		return fmt.Errorf("lp: unknown status %v", sol.Status)
	}
	return nil
}

// satisfies reports the first bound or row x breaks: x ≥ 0 and
// a_i·x (op) b_i for the right-hand sides b (all zero for a ray).
func (p *Problem) satisfies(x, b []float64) error {
	if len(x) != p.nvars {
		return fmt.Errorf("lp: point has %d entries, want %d", len(x), p.nvars)
	}
	for j, v := range x {
		if !le(-v, math.Abs(v)) {
			return fmt.Errorf("lp: x[%d] = %g < 0", j, v)
		}
	}
	for i, op := range p.ops {
		ax, mag := 0.0, math.Abs(b[i])
		ji, jv := p.rowNonzeros(i)
		for t, j := range ji {
			ax += jv[t] * x[j]
			mag += math.Abs(jv[t] * x[j])
		}
		r := ax - b[i]
		if op == GE {
			r = -r
		} else if op == EQ {
			r = math.Abs(r)
		}
		if !le(r, mag) {
			return fmt.Errorf("lp: row %d: a·x = %g against right-hand side %g", i, ax, b[i])
		}
	}
	return nil
}

// priced reports the first row multiplier of the wrong sign for its
// operator (LE ≤ 0, GE ≥ 0) and the first column y prices above its
// cost: yᵀA_j ≤ c_j.
func (p *Problem) priced(y, c []float64) error {
	ya := make([]float64, p.nvars)
	mag := make([]float64, p.nvars)
	for i, op := range p.ops {
		if (op == LE && !le(y[i], 0)) || (op == GE && !le(-y[i], 0)) {
			return fmt.Errorf("lp: row %d: multiplier %g has the wrong sign for its operator", i, y[i])
		}
		ji, jv := p.rowNonzeros(i)
		for t, j := range ji {
			ya[j] += y[i] * jv[t]
			mag[j] += math.Abs(y[i] * jv[t])
		}
	}
	for j := range ya {
		if !le(ya[j]-c[j], mag[j]+math.Abs(c[j])) {
			return fmt.Errorf("lp: column %d: yᵀA = %g above its cost %g", j, ya[j], c[j])
		}
	}
	return nil
}

// le reports v ≤ 0 to within checkTol at magnitude mag; NaN fails.
func le(v, mag float64) bool { return v <= checkTol*(1+mag) }

// dot returns a·b and Σ|a_i·b_i|.
func dot(a, b []float64) (sum, mag float64) {
	for i := range a {
		sum += a[i] * b[i]
		mag += math.Abs(a[i] * b[i])
	}
	return sum, mag
}
