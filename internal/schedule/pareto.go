package schedule

import (
	"context"
	"fmt"
	"math"
	"sort"

	"schedroute/internal/alloc"
	"schedroute/internal/parallel"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// This file implements the Pareto-front explorer: the multi-criteria
// search over invocation period × pipeline latency × resource
// footprint that the single-τin pipeline cannot answer. For each
// candidate placement it binary-searches the minimal feasible τin,
// then walks a grid of candidate periods up from that minimum; at each
// period it minimizes the end-to-end latency Λw by binary-searching
// the shortest feasible message window (Λw depends on τin and the
// placement only through which windows still schedule — shrinking the
// window is the latency lever, at the cost of tighter interval
// scheduling), and reads the resource footprint (links used,
// buffer-slot count) off the resulting schedule. Placements are
// co-optimized through the internal/alloc annealer instead of being
// treated as fixed. The candidate evaluations fan out on
// internal/parallel under the deterministic serial-identical contract,
// and each placement's solves share one cached Solver, so the sweep
// amortizes the τin-independent derivations the same way the service's
// batch endpoint does.

// Span names recorded by Explore under ExploreSpec.Trace.
const (
	SpanExplore          = "explore"
	SpanExploreAnneal    = "explore_anneal"
	SpanExplorePlacement = "explore_placement"
	SpanExploreBisect    = "explore_bisect"
	SpanExplorePoint     = "explore_point"
)

// Objective names one axis of the multi-criteria search. All four are
// minimized.
type Objective string

const (
	// ObjTauIn is the invocation period τin (smaller = higher rate).
	ObjTauIn Objective = "tau_in"
	// ObjLatency is the windowed pipeline latency Λw of the schedule.
	ObjLatency Objective = "latency"
	// ObjLinks is the number of distinct physical links the path
	// assignment routes messages over.
	ObjLinks Objective = "links"
	// ObjBuffers is the buffer-slot count: the number of nonzero
	// message-interval reservations p_ik in the allocation, each of
	// which pins a CP buffer for one message in one interval.
	ObjBuffers Objective = "buffers"
)

// AllObjectives lists every objective in canonical order.
var AllObjectives = []Objective{ObjTauIn, ObjLatency, ObjLinks, ObjBuffers}

// ParseObjectives resolves objective names, defaulting to all four on
// an empty list and rejecting unknown or duplicate names.
func ParseObjectives(names []string) ([]Objective, error) {
	if len(names) == 0 {
		return append([]Objective(nil), AllObjectives...), nil
	}
	seen := map[Objective]bool{}
	out := make([]Objective, 0, len(names))
	for _, n := range names {
		ob := Objective(n)
		switch ob {
		case ObjTauIn, ObjLatency, ObjLinks, ObjBuffers:
		default:
			return nil, fmt.Errorf("schedule: unknown objective %q (want tau_in, latency, links or buffers)", n)
		}
		if seen[ob] {
			return nil, fmt.Errorf("schedule: duplicate objective %q", n)
		}
		seen[ob] = true
		out = append(out, ob)
	}
	return out, nil
}

// ExploreSpec configures one Pareto-front exploration. The zero value
// explores the problem's own placement over [τc, 5τc] on all four
// objectives.
type ExploreSpec struct {
	// MinTauIn is the lower bound of the period search (0 = τc; values
	// below τc are clamped to τc — periods under the longest task
	// accumulate unboundedly and are never legal).
	MinTauIn float64
	// MaxTauIn is the upper bound of the period search and the end of
	// the candidate-period grid (0 = 5τc).
	MaxTauIn float64
	// GridPoints is the number of candidate periods evaluated per
	// placement, spread evenly from the placement's minimal feasible
	// τin to MaxTauIn (0 = 5; 1 evaluates only the minimum).
	GridPoints int
	// Tolerance is the absolute bisection tolerance in µs for both the
	// τin and the window search (0 = τc/64).
	Tolerance float64
	// Placements are the candidate task placements to co-optimize
	// over; empty means the problem's own placement. AnnealSeeds adds
	// annealed placements on top.
	Placements []*alloc.Assignment
	// AnnealSeeds adds one simulated-annealing placement per seed
	// (deterministic per seed, built concurrently in seed order).
	AnnealSeeds []int64
	// AnnealSteps tunes the annealer move budget (0 = the alloc
	// package default).
	AnnealSteps int
	// Objectives selects the axes that define domination (empty = all
	// four). Dropping ObjLatency also skips the per-point window
	// minimization, leaving every point at the base window.
	Objectives []Objective
	// Trace, when non-nil, is the parent span the exploration records
	// under: one explore_anneal child per anneal seed, one
	// explore_placement child per candidate placement with its
	// explore_bisect period search, and one explore_point child per
	// evaluated (placement, period) cell. All spans are pre-created
	// serially in index order, so the traced structure is identical for
	// every worker count.
	Trace *trace.Span
}

// ParetoPoint is one schedule on (or near) the explored front.
type ParetoPoint struct {
	// Placement indexes ParetoFront.Placements.
	Placement int
	// TauIn is the invocation period the schedule runs at.
	TauIn float64
	// Window is the message window length the schedule was solved
	// with (the latency-minimal feasible window when ObjLatency is
	// selected, the base window otherwise).
	Window float64
	// Latency is the windowed pipeline latency Λw.
	Latency float64
	// Links and Buffers are the resource footprint (see
	// ResourceFootprint).
	Links   int
	Buffers int
	// Peak is the post-AssignPaths peak link utilization.
	Peak float64
	// Result is the full feasible pipeline outcome backing the point.
	// It is byte-identical to a direct Solver.Solve at this
	// (placement, TauIn, Window).
	Result *Result
}

// PlacementOutcome reports one candidate placement's period search.
type PlacementOutcome struct {
	// Assignment is the candidate placement.
	Assignment *alloc.Assignment
	// Feasible reports whether any period in range schedules; MinTauIn
	// is the bisected minimal feasible period when it does.
	Feasible bool
	MinTauIn float64
}

// ParetoFront is the outcome of one exploration.
type ParetoFront struct {
	// TauC is the workload's longest task time (the load-1 period).
	TauC float64
	// MinTauIn is the smallest feasible period found across all
	// placements (0 when nothing scheduled).
	MinTauIn float64
	// Objectives are the axes that defined domination.
	Objectives []Objective
	// Placements are the candidate placements in evaluation order.
	Placements []PlacementOutcome
	// Points is the non-dominated set, deterministically ordered by
	// (τin, latency, links, buffers, placement). Exact duplicates on
	// every selected objective are collapsed to their first
	// representative.
	Points []ParetoPoint
	// Evaluated counts the feasible schedules considered before
	// domination filtering.
	Evaluated int
}

// value reads one objective off a point.
func (pt *ParetoPoint) value(ob Objective) float64 {
	switch ob {
	case ObjTauIn:
		return pt.TauIn
	case ObjLatency:
		return pt.Latency
	case ObjLinks:
		return float64(pt.Links)
	case ObjBuffers:
		return float64(pt.Buffers)
	}
	return math.NaN()
}

// Dominates reports whether a dominates b on the given objectives:
// a is no worse on every objective and strictly better on at least
// one. All objectives are minimized.
func Dominates(a, b *ParetoPoint, objectives []Objective) bool {
	strictly := false
	for _, ob := range objectives {
		av, bv := a.value(ob), b.value(ob)
		if av > bv {
			return false
		}
		if av < bv {
			strictly = true
		}
	}
	return strictly
}

// sortPoints orders points deterministically: by τin, then latency,
// links, buffers, placement index and window. The order is total for
// points produced by Explore, which makes the filtered front
// independent of evaluation order.
func sortPoints(pts []ParetoPoint) {
	sort.SliceStable(pts, func(i, j int) bool {
		a, b := &pts[i], &pts[j]
		if a.TauIn != b.TauIn {
			return a.TauIn < b.TauIn
		}
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		if a.Links != b.Links {
			return a.Links < b.Links
		}
		if a.Buffers != b.Buffers {
			return a.Buffers < b.Buffers
		}
		if a.Placement != b.Placement {
			return a.Placement < b.Placement
		}
		return a.Window < b.Window
	})
}

// ParetoFilter returns the non-dominated subset of points under the
// given objectives, deterministically ordered. Points equal on every
// selected objective are collapsed to the first in sorted order, so
// two placements reaching the same trade-off contribute one front
// point.
func ParetoFilter(points []ParetoPoint, objectives []Objective) []ParetoPoint {
	if len(objectives) == 0 {
		objectives = AllObjectives
	}
	pts := append([]ParetoPoint(nil), points...)
	sortPoints(pts)
	equalOn := func(a, b *ParetoPoint) bool {
		for _, ob := range objectives {
			if a.value(ob) != b.value(ob) {
				return false
			}
		}
		return true
	}
	var front []ParetoPoint
	for i := range pts {
		dominated := false
		for j := range pts {
			if i == j {
				continue
			}
			if Dominates(&pts[j], &pts[i], objectives) {
				dominated = true
				break
			}
			// Collapse duplicates: only the first of an equal group
			// survives.
			if j < i && equalOn(&pts[j], &pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, pts[i])
		}
	}
	return front
}

// ResourceFootprint measures a feasible schedule's fabric usage: the
// number of distinct physical links its path assignment routes over,
// and the buffer-slot count — nonzero message-interval reservations
// p_ik, each of which holds a CP buffer for one message in one frame
// interval.
func ResourceFootprint(res *Result) (links, buffers int) {
	if res == nil {
		return 0, 0
	}
	if res.Assignment != nil {
		seen := map[topology.LinkID]bool{}
		for _, ls := range res.Assignment.Links {
			for _, l := range ls {
				if !seen[l] {
					seen[l] = true
					links++
				}
			}
		}
	}
	if res.Allocation != nil {
		for _, row := range res.Allocation.P {
			for _, v := range row {
				if v > 0 {
					buffers++
				}
			}
		}
	}
	return links, buffers
}

// minLegalWindow is the shortest window length the time-bound
// derivation accepts for a placement: every non-local message must fit
// its transmission time (plus the clock-skew margin) inside the
// window. Placements with no non-local traffic get a small positive
// floor.
func minLegalWindow(g *tfg.Graph, tm *tfg.Timing, as *alloc.Assignment, margin, tauC float64) float64 {
	w := 0.0
	for _, m := range g.Messages() {
		if as.Node(m.Src) == as.Node(m.Dst) {
			continue
		}
		if x := tm.XmitTime[m.ID]; x > w {
			w = x
		}
	}
	w += margin
	if w <= 0 {
		w = tauC / 1024
	}
	return w
}

// exploreCell is one (placement, candidate period) evaluation slot.
type exploreCell struct {
	placement int
	tauIn     float64
}

// Explore runs the Pareto-front search. Candidate placements are the
// spec's (or the problem's own) plus one annealed placement per
// AnnealSeeds entry; each placement's period bisection and each
// (placement, period) cell evaluation runs on opt.Procs workers
// (0 = GOMAXPROCS) with ordered result slots, so the front is
// byte-identical to a serial run. ctx cancels the fan-out between
// solves.
func Explore(ctx context.Context, p Problem, opt Options, spec ExploreSpec) (*ParetoFront, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Graph == nil || p.Timing == nil || p.Topology == nil {
		return nil, fmt.Errorf("schedule: incomplete problem")
	}
	objectives, err := ParseObjectives(objectiveNames(spec.Objectives))
	if err != nil {
		return nil, err
	}
	tauC := p.Timing.TauC()
	lo, hi, grid, err := PeriodAxis(tauC, spec.MinTauIn, spec.MaxTauIn, spec.GridPoints, 5)
	if err != nil {
		return nil, err
	}
	tol := spec.Tolerance
	if tol <= 0 {
		tol = tauC / 64
	}
	baseWindow := opt.window(p.Timing)
	wantLatency := false
	for _, ob := range objectives {
		if ob == ObjLatency {
			wantLatency = true
		}
	}

	// windowFor clamps the base window into a placement's legal range
	// at one period: at least the longest transmission (the time-bound
	// derivation hard-errors below it), at most the period itself. A
	// period too short to transmit the longest message at all has no
	// legal window and is simply infeasible for that placement.
	windowFor := func(wlo, tauIn float64) (float64, bool) {
		w := baseWindow
		if w < wlo {
			w = wlo
		}
		if w > tauIn {
			w = tauIn
		}
		if w < wlo {
			return 0, false
		}
		return w, true
	}

	// Candidate placements: the explicit (or problem's own) placements
	// first, then one annealed placement per seed.
	placements := spec.Placements
	if len(placements) == 0 {
		if p.Assignment == nil {
			return nil, fmt.Errorf("schedule: explore needs a placement or anneal seeds")
		}
		placements = []*alloc.Assignment{p.Assignment}
	}
	root := spec.Trace.Start(SpanExplore,
		trace.Int("placements", len(placements)+len(spec.AnnealSeeds)), trace.Int("grid", grid))
	defer root.End()
	placements, solvers, err := PlacementSolvers(ctx, p, root, placements, spec.AnnealSeeds, spec.AnnealSteps, opt.Procs)
	if err != nil {
		return nil, err
	}
	wlos := make([]float64, len(placements))
	for i, as := range placements {
		wlos[i] = minLegalWindow(p.Graph, p.Timing, as, opt.SyncMargin, tauC)
	}
	solveAt := func(placement int, sp *trace.Span, tauIn, window float64) (*Result, error) {
		o := opt
		o.Window, o.Trace, o.Procs = window, sp, 1 // the fan-outs already fill the workers
		return solvers[placement].Solve(ctx, tauIn, o)
	}

	// Per-placement spans are pre-created serially in index order;
	// each fan-out worker records only into its own subtree, so the
	// traced structure is worker-count independent.
	pspans := make([]*trace.Span, len(placements))
	bspans := make([]*trace.Span, len(placements))
	for i := range placements {
		pspans[i] = root.Start(SpanExplorePlacement, trace.Int("index", i))
		bspans[i] = pspans[i].Start(SpanExploreBisect,
			trace.Float64("lo", lo), trace.Float64("hi", hi))
	}

	// Phase 1 — per-placement minimal-τin bisection. Feasibility is
	// monotone in the period for the pipeline's purposes (more slack,
	// same structure), so the standard invariant bisection applies:
	// keep lo infeasible and hi feasible, converge to tolerance.
	outcomes := make([]PlacementOutcome, len(placements))
	err = parallel.ForEach(ctx, len(placements), parallel.Workers(opt.Procs), func(i int) error {
		defer bspans[i].End()
		out := PlacementOutcome{Assignment: placements[i]}
		// feasibleAt treats a period with no legal window as plain
		// infeasible: the bracket stays monotone (longer periods admit
		// longer windows) and the bisection converges either way.
		feasibleAt := func(tauIn float64) (bool, error) {
			w, ok := windowFor(wlos[i], tauIn)
			if !ok {
				return false, nil
			}
			res, err := solveAt(i, bspans[i], tauIn, w)
			if err != nil {
				return false, fmt.Errorf("schedule: explore placement %d at τin=%g: %w", i, tauIn, err)
			}
			return res.Feasible, nil
		}
		var err error
		if out.MinTauIn, out.Feasible, err = bisect(lo, hi, tol, feasibleAt); err != nil {
			return err
		}
		bspans[i].SetAttrs(trace.Bool("feasible", out.Feasible),
			trace.Float64("min_tau_in", out.MinTauIn))
		outcomes[i] = out
		return nil
	})
	if err != nil {
		endSpans(pspans)
		return nil, err
	}

	// Phase 2 — grid cells. Each feasible placement contributes
	// GridPoints candidate periods from its own minimal τin up to the
	// range end; every cell is independent, so the flattened list fans
	// out with ordered result slots.
	var cells []exploreCell
	for i, out := range outcomes {
		if !out.Feasible {
			continue
		}
		for _, tauIn := range PeriodLadder(out.MinTauIn, hi, grid) {
			cells = append(cells, exploreCell{placement: i, tauIn: tauIn})
		}
	}
	cspans := make([]*trace.Span, len(cells))
	for k, c := range cells {
		cspans[k] = pspans[c.placement].Start(SpanExplorePoint,
			trace.Int("index", k), trace.Float64("tau_in", c.tauIn))
	}

	points := make([]*ParetoPoint, len(cells))
	err = parallel.ForEach(ctx, len(cells), parallel.Workers(opt.Procs), func(k int) error {
		defer cspans[k].End()
		c := cells[k]
		whi, ok := windowFor(wlos[c.placement], c.tauIn)
		if !ok {
			cspans[k].SetAttrs(trace.Bool("feasible", false))
			return nil
		}
		res, err := solveAt(c.placement, cspans[k], c.tauIn, whi)
		if err != nil {
			return fmt.Errorf("schedule: explore cell τin=%g: %w", c.tauIn, err)
		}
		if !res.Feasible {
			// A heuristic miss above the bisected minimum: drop the cell
			// rather than fail the exploration.
			cspans[k].SetAttrs(trace.Bool("feasible", false))
			return nil
		}
		window := whi
		if wantLatency {
			// Latency minimization: Λw shrinks with the window, so find
			// the shortest window that still schedules at this period.
			// whi was solved above, so the probe answers for it without
			// a second solve.
			window, _, err = bisect(wlos[c.placement], whi, tol, func(w float64) (bool, error) {
				if w == whi {
					return true, nil
				}
				r, err := solveAt(c.placement, cspans[k], c.tauIn, w)
				if err != nil {
					return false, fmt.Errorf("schedule: explore cell τin=%g window=%g: %w", c.tauIn, w, err)
				}
				if r.Feasible {
					res = r
				}
				return r.Feasible, nil
			})
			if err != nil {
				return err
			}
		}
		links, buffers := ResourceFootprint(res)
		points[k] = &ParetoPoint{
			Placement: c.placement,
			TauIn:     c.tauIn,
			Window:    window,
			Latency:   res.Latency,
			Links:     links,
			Buffers:   buffers,
			Peak:      res.Peak,
			Result:    res,
		}
		cspans[k].SetAttrs(trace.Bool("feasible", true),
			trace.Float64("window", window), trace.Float64("latency", res.Latency))
		return nil
	})
	endSpans(pspans)
	if err != nil {
		return nil, err
	}

	front := &ParetoFront{
		TauC:       tauC,
		Objectives: objectives,
		Placements: outcomes,
	}
	for _, out := range outcomes {
		if out.Feasible && (front.MinTauIn == 0 || out.MinTauIn < front.MinTauIn) {
			front.MinTauIn = out.MinTauIn
		}
	}
	var evaluated []ParetoPoint
	for _, pt := range points {
		if pt != nil {
			evaluated = append(evaluated, *pt)
		}
	}
	front.Evaluated = len(evaluated)
	front.Points = ParetoFilter(evaluated, objectives)
	root.SetAttrs(trace.Int("evaluated", front.Evaluated),
		trace.Int("front", len(front.Points)))
	return front, nil
}

// bisect finds the smallest feasible x in [lo, hi] to within tol, for a
// probe that is monotone (infeasible below some threshold, feasible
// above). It probes lo, then hi, then keeps lo infeasible and hi
// feasible until they are tol apart, or adjacent floats with no
// midpoint strictly between them (a tol below their spacing), and
// returns the feasible end; ok is false when even hi is infeasible. The
// last feasible probe is always at the returned x. A probe error aborts
// the search.
func bisect(lo, hi, tol float64, probe func(x float64) (bool, error)) (x float64, ok bool, err error) {
	if ok, err = probe(lo); ok || err != nil {
		return lo, ok, err
	}
	if ok, err = probe(hi); !ok || err != nil {
		return 0, false, err
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if ok, err = probe(mid); err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

func objectiveNames(obs []Objective) []string {
	out := make([]string, len(obs))
	for i, ob := range obs {
		out[i] = string(ob)
	}
	return out
}
