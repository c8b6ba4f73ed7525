package schedule

import (
	"context"
	"fmt"
	"sync/atomic"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/parallel"
	"schedroute/internal/trace"
)

// This file is the one period × placement grid of the repository: the
// paper's evaluation loop ("twelve input periods between τc and 5τc",
// §6) with the second axis its §7 asks for (candidate placements). The
// figure sweeps, ComputeBestAllocation and the service's grid-mode
// exploration are each a Sweep call plus a projection; the Pareto
// explorer keeps its bisections and shares the three helpers below
// (PeriodAxis, PeriodLadder, PlacementSolvers).

// SweepPeriod is one period of a Sweep, handed to the visit once every
// candidate has been solved at it.
type SweepPeriod struct {
	// Index is the period's position in Sweep's periods; TauIn is the
	// period itself.
	Index int
	TauIn float64
	// Results holds one Result per solver, in candidate order, each what
	// solvers[c].Solve returns at TauIn. The slice is the grid's own and
	// is cleared when the visit returns, so a long grid holds one
	// period's schedules at a time: keep the Results, not the slice.
	Results []*Result
	// Winner indexes the best of Results: feasible beats infeasible, then
	// the lower peak utilization wins; ties keep the lower index.
	Winner int
	// Span is the caller's span for this period (nil when untraced); the
	// solves are already recorded under it, and it is the caller's to
	// extend and end.
	Span *trace.Span
}

// Best is the winning candidate's Result.
func (sp *SweepPeriod) Best() *Result { return sp.Results[sp.Winner] }

// better orders results the way every placement search in the repo
// does: feasible beats infeasible; among equals, the lower peak
// utilization wins.
func better(a, b *Result) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	return a.Peak < b.Peak
}

// Sweep solves every (period, solver) cell of the grid on opt.Procs
// workers (0 = GOMAXPROCS) and calls visit once per period — on the
// worker that solved the period's last cell — with the candidates
// ranked. The cells are flattened into one index space, so a one-period
// × N-placement call is as parallel as a twelve-period × one-solver
// one, and every result lands in its ordered slot: what each visit sees
// does not depend on the worker count. Every cell gets the same opt
// (and so the same seed), exactly as a serial loop over Solver.Solve
// would, but for Procs: each cell's solve climbs on one worker, so a
// sweep never runs more than opt.Procs.
//
// spans holds the caller's pre-created span per period (nil spans when
// untraced). A single solver records its solve directly under the
// period's span; with several, each records under a "candidate" child
// carrying its index, pre-created here serially, so the traced structure
// does not depend on the worker count either.
//
// ctx cancels the grid between cells: no cell starts after cancellation
// and the context error is returned. A failing cell's error names its
// candidate and period, and its period is not visited.
func Sweep(ctx context.Context, solvers []*Solver, periods []float64, opt Options, spans []*trace.Span, visit func(*SweepPeriod) error) error {
	k := len(solvers)
	if k == 0 {
		return fmt.Errorf("schedule: sweep needs at least one candidate solver")
	}
	if len(spans) != len(periods) {
		return fmt.Errorf("schedule: sweep has %d spans for %d periods", len(spans), len(periods))
	}
	cellSpans := spans
	if k > 1 {
		cellSpans = make([]*trace.Span, len(periods)*k)
		for cell := range cellSpans {
			cellSpans[cell] = spans[cell/k].Start(SpanCandidate, trace.Int("index", cell%k))
		}
	}
	results := make([]*Result, len(periods)*k)
	// unsolved[i] counts period i's cells still to finish; whoever takes
	// it to zero has seen every write to the period's results.
	unsolved := make([]atomic.Int32, len(periods))
	for i := range unsolved {
		unsolved[i].Store(int32(k))
	}
	return parallel.ForEach(ctx, len(results), parallel.Workers(opt.Procs), func(cell int) error {
		i, c := cell/k, cell%k
		o := opt
		o.Trace, o.Procs = cellSpans[cell], 1 // the cells already fill the workers
		res, err := solvers[c].Solve(ctx, periods[i], o)
		if k > 1 {
			cellSpans[cell].End()
		}
		if err != nil {
			return fmt.Errorf("schedule: candidate %d at τin=%g: %w", c, periods[i], err)
		}
		results[cell] = res
		if unsolved[i].Add(-1) > 0 {
			return nil
		}
		sp := SweepPeriod{Index: i, TauIn: periods[i], Results: results[i*k : (i+1)*k], Span: spans[i]}
		for j, r := range sp.Results {
			if better(r, sp.Best()) {
				sp.Winner = j
			}
		}
		err = visit(&sp)
		clear(sp.Results)
		return err
	})
}

// PeriodAxis resolves a requested τin axis against the workload's
// longest task τc, for grid and Pareto explorations alike: a zero end
// of the range defaults to [τc, 5τc], min is clamped up to τc (periods
// under the longest task accumulate unboundedly and are never legal),
// and points == 0 selects defaultPoints. An empty range or a negative
// point count is the caller's mistake (errkind.ErrBadInput).
func PeriodAxis(tauC, min, max float64, points, defaultPoints int) (lo, hi float64, n int, err error) {
	lo, hi, n = min, max, points
	if lo < tauC {
		lo = tauC
	}
	if hi == 0 {
		hi = 5 * tauC
	}
	if n == 0 {
		n = defaultPoints
	}
	if hi < lo {
		return 0, 0, 0, errkind.BadInput("schedule: period range [%g, %g] is empty", lo, hi)
	}
	if n < 1 {
		return 0, 0, 0, errkind.BadInput("schedule: a period axis needs at least 1 point, got %d", n)
	}
	return lo, hi, n, nil
}

// PeriodLadder spreads n periods evenly over [lo, hi], both ends
// included; one point is lo alone.
func PeriodLadder(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = lo
		if n > 1 {
			out[k] = lo + (hi-lo)*float64(k)/float64(n-1)
		}
	}
	return out
}

// PlacementSolvers builds the candidate axis of a placement search over
// p: the explicit placements, then one annealed placement per seed
// (steps moves each, 0 = the alloc package default), and one Solver per
// placement — so the LSD baseline, path candidates and task starts are
// derived once per placement however many periods and windows the
// search probes. Annealing minimizes the squared per-link byte load
// under LSD routing, the contention proxy that decides whether a
// communication schedule exists at tight periods. The searches run on at
// most procs workers (0 = GOMAXPROCS) in seed order, each under an
// explore_anneal span of parent — pre-created serially, so the traced
// structure does not depend on the worker count — and stop when ctx is
// cancelled.
func PlacementSolvers(ctx context.Context, p Problem, parent *trace.Span, placements []*alloc.Assignment, seeds []int64, steps, procs int) ([]*alloc.Assignment, []*Solver, error) {
	spans := make([]*trace.Span, len(seeds))
	for i, seed := range seeds {
		spans[i] = parent.Start(SpanExploreAnneal, trace.Int64("seed", seed), trace.Int("steps", steps))
	}
	defer endSpans(spans)
	annealed, err := parallel.Map(ctx, len(seeds), parallel.Workers(procs), func(i int) (*alloc.Assignment, error) {
		defer spans[i].End()
		as, err := alloc.AnnealContext(ctx, p.Graph, p.Topology, alloc.AnnealOptions{Seed: seeds[i], Steps: steps})
		if err == nil && spans[i].Enabled() {
			spans[i].SetAttrs(trace.Float64("cost", alloc.LinkLoadCost(p.Graph, p.Topology, as)))
		}
		return as, err
	})
	if err != nil {
		return nil, nil, err
	}
	all := append(append([]*alloc.Assignment(nil), placements...), annealed...)
	solvers := make([]*Solver, len(all))
	for i, as := range all {
		prob := p
		prob.Assignment = as
		solvers[i] = NewSolver(prob)
	}
	return all, solvers, nil
}

func endSpans(spans []*trace.Span) {
	for _, sp := range spans {
		sp.End()
	}
}
