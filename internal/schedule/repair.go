package schedule

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"schedroute/internal/errkind"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// RepairOutcome names the rung of the repair ladder that produced (or
// failed to produce) a schedule for the degraded machine.
type RepairOutcome int

const (
	// RepairUnaffected: no scheduled message crosses a failed element;
	// the existing Ω remains valid as-is.
	RepairUnaffected RepairOutcome = iota
	// RepairIncremental: only the affected messages were rerouted and
	// reallocated; every unaffected reservation kept its allocation.
	RepairIncremental
	// RepairRecomputed: incremental repair was infeasible, but a full
	// pipeline rerun on the residual topology found a schedule at the
	// original rate and window.
	RepairRecomputed
	// RepairDegradedWindow: feasible only after widening the message
	// windows (latency grows; the output rate τout is preserved).
	RepairDegradedWindow
	// RepairDegradedRate: feasible only at a longer invocation period
	// (τout > τin — the constant-rate guarantee holds at a reduced rate).
	RepairDegradedRate
	// RepairInfeasible: no rung produced a schedule; the fault is not
	// survivable for this workload and placement.
	RepairInfeasible
)

// String names the outcome.
func (o RepairOutcome) String() string {
	switch o {
	case RepairUnaffected:
		return "unaffected"
	case RepairIncremental:
		return "incremental"
	case RepairRecomputed:
		return "recomputed"
	case RepairDegradedWindow:
		return "degraded-window"
	case RepairDegradedRate:
		return "degraded-rate"
	case RepairInfeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// windowScales and rateFactors are the graceful-degradation ladders:
// window widening preserves the output rate at higher latency, rate
// reduction trades τout itself. Both are tried in order and the first
// feasible rung wins, so reports are deterministic.
var (
	windowScales = []float64{1.25, 1.5, 2}
	rateFactors  = []float64{1.1, 1.25, 1.5, 2}
)

// RepairReport is the typed outcome of a repair attempt.
type RepairReport struct {
	Outcome RepairOutcome
	// Stage is the pipeline stage that rejected the final attempt when
	// Outcome is RepairInfeasible; StageOK otherwise.
	Stage Stage
	// Faults describes the injected fault population.
	Faults string
	// Affected lists the messages whose paths crossed a failed element.
	Affected []tfg.MessageID
	// Rerouted counts messages whose path changed in the repaired Ω.
	Rerouted int
	// NewPeak is the peak utilization of the repaired assignment.
	NewPeak float64
	// TauOut is the output period of the repaired schedule; it exceeds
	// the problem's TauIn exactly when Outcome is RepairDegradedRate.
	TauOut float64
	// WindowScale is the window widening factor applied (1 unless
	// Outcome is RepairDegradedWindow).
	WindowScale float64
	// LostTasks is true when a failed node hosts an application task, a
	// fault no amount of rerouting can mask (the model has no task
	// migration); the outcome is then RepairInfeasible.
	LostTasks bool
	// Reason carries a one-line diagnosis for infeasible outcomes.
	Reason string
	// Result is the repaired schedule (the base result when Outcome is
	// RepairUnaffected); nil only when Outcome is RepairInfeasible.
	Result *Result
}

// Err returns a typed *InfeasibleRepairError when the repair failed,
// and nil otherwise — the hook for strict sweeps that must abort on the
// first unsurvivable fault.
func (r *RepairReport) Err() error {
	if r.Outcome != RepairInfeasible {
		return nil
	}
	return &InfeasibleRepairError{Faults: r.Faults, Stage: r.Stage, Reason: r.Reason}
}

// InfeasibleRepairError reports an unsurvivable fault: every rung of
// the repair ladder — incremental reroute, full recompute, widened
// windows, reduced rate — was rejected.
type InfeasibleRepairError struct {
	Faults string
	Stage  Stage
	Reason string
}

func (e *InfeasibleRepairError) Error() string {
	msg := fmt.Sprintf("schedule: repair infeasible under %s (last stage: %s)", e.Faults, e.Stage)
	if e.Reason != "" {
		msg += ": " + e.Reason
	}
	return msg
}

// Is places the error in the errkind.ErrInfeasibleRepair family, so one
// classification table can derive both the CLI exit status (3) and the
// service HTTP status (422) without naming this concrete type.
func (e *InfeasibleRepairError) Is(target error) bool {
	return target == errkind.ErrInfeasibleRepair
}

// Repair attempts to restore a valid schedule after the fault set fs
// strikes a machine running the feasible base schedule, descending the
// ladder of the paper's Fig. 3 feedback arrows extended with graceful
// degradation:
//
//  1. incremental — reroute only the affected messages over surviving
//     paths, re-allocate them against the residual per-(link, interval)
//     capacity with every unaffected allocation pinned, and re-run
//     interval scheduling;
//  2. full recompute — the whole pipeline on the residual topology;
//  3. widened windows — full recompute with the message windows scaled
//     up (latency degrades, the output rate does not);
//  4. reduced rate — full recompute at a longer invocation period
//     (τout degrades but stays constant).
//
// Every outcome is a typed RepairReport; an error return signals
// invalid input, cancellation, or an internal inconsistency, never mere
// infeasibility. ctx cancels the ladder between rungs and inside the
// full-recompute solves; a nil ctx is treated as context.Background().
func Repair(ctx context.Context, p Problem, o Options, base *Result, fs *topology.FaultSet) (*RepairReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := o.withDefaults()
	if base == nil || !base.Feasible || base.Omega == nil {
		return nil, fmt.Errorf("schedule: repair needs a feasible base schedule")
	}
	if p.Graph == nil || p.Topology == nil || p.Assignment == nil {
		return nil, fmt.Errorf("schedule: incomplete problem")
	}
	rep := &RepairReport{
		Faults:      fs.String(),
		NewPeak:     base.Peak,
		TauOut:      p.TauIn,
		WindowScale: 1,
	}
	rsp := opt.Trace.Start(SpanRepair, trace.String("faults", rep.Faults))
	defer func() {
		rsp.SetAttrs(trace.String("outcome", rep.Outcome.String()), trace.Int("rerouted", rep.Rerouted))
		rsp.End()
	}()
	if fs.Empty() {
		rep.Outcome = RepairUnaffected
		rep.Result = base
		return rep, nil
	}

	// A dead node that hosts a task kills the application outright: the
	// model has no task migration, so no routing repair applies.
	for t := 0; t < p.Graph.NumTasks(); t++ {
		if fs.NodeFailed(p.Assignment.Node(tfg.TaskID(t))) {
			rep.Outcome = RepairInfeasible
			rep.LostTasks = true
			rep.Reason = fmt.Sprintf("failed node hosts task %d", t)
			return rep, nil
		}
	}

	// Affected messages: their assigned path crosses a failed element.
	for i := range base.Windows {
		if base.Windows[i].Local || len(base.Assignment.Links[i]) == 0 {
			continue
		}
		if !fs.Survives(p.Topology, p.Assignment.Node(p.Graph.Message(tfg.MessageID(i)).Src), base.Assignment.Links[i]) {
			rep.Affected = append(rep.Affected, tfg.MessageID(i))
		}
	}
	if len(rep.Affected) == 0 {
		rep.Outcome = RepairUnaffected
		rep.Result = base
		return rep, nil
	}

	// Rung 1: incremental repair with unaffected reservations pinned.
	// It and the warm half of rung 2 keep the base schedule's time bounds
	// and run only the pipeline's back half over the rerouted assignment.
	arena := arenaPool.Get().(*solveArena)
	defer arenaPool.Put(arena)
	back := backHalf{arena: arena, top: p.Topology, tauIn: p.TauIn, opt: &opt, clock: new(stageClock)}
	var incPA *PathAssignment
	var incPeak float64
	reschedule := func(sp *trace.Span, pin *allocPin) (*Result, error) {
		r := &Result{Windows: base.Windows, Intervals: base.Intervals, Activity: base.Activity,
			PeakLSD: base.PeakLSD, Latency: base.Latency}
		if err := back.run(ctx, sp, r, incPA, incPeak, base.Omega.Starts, pin); err != nil || !r.Feasible {
			return nil, err
		}
		return r, nil
	}
	noRoute := func(err error) (*RepairReport, error) {
		var nre *topology.NoRouteError
		if errors.As(err, &nre) {
			// The residual topology disconnects a message's endpoints;
			// no downstream rung can restore connectivity.
			rep.Outcome = RepairInfeasible
			rep.Reason = nre.Error()
			return rep, nil
		}
		return nil, err
	}

	finish := func(r *Result, outcome RepairOutcome, tauOut, scale float64) (*RepairReport, error) {
		rep.Outcome = outcome
		for i := range r.Assignment.Paths {
			if !base.Windows[i].Local && !slices.Equal(r.Assignment.Links[i], base.Assignment.Links[i]) {
				rep.Rerouted++
			}
		}
		rep.NewPeak = r.Peak
		rep.TauOut = tauOut
		rep.WindowScale = scale
		rep.Result = r
		return rep, nil
	}

	r1 := rsp.Start(SpanRung, trace.String("rung", "incremental"), trace.Int("affected", len(rep.Affected)))
	var res *Result
	incPA, incPeak, err := repairIncremental(arena, p, opt, base, fs, rep.Affected)
	if err == nil && incPA != nil {
		res, err = reschedule(r1, &allocPin{base: base.Allocation, free: func(mi tfg.MessageID) bool {
			_, affected := slices.BinarySearch(rep.Affected, mi) // listed in message order
			return affected
		}})
	}
	r1.SetAttrs(trace.Bool("feasible", err == nil && res != nil))
	r1.End()
	if err != nil {
		return noRoute(err)
	}
	if res != nil {
		// Exactly the affected messages moved: each one's old path is
		// blocked, and nothing else was touched.
		return finish(res, RepairIncremental, p.TauIn, 1)
	}

	// Rung 2, warm half: keep the incrementally rerouted paths (known to
	// sit under peak 1) but re-solve the allocation jointly for every
	// message; this rescues the cases where the pinned base allocation
	// boxed a no-slack detour in.
	if incPA != nil {
		warm := rsp.Start(SpanRung, trace.String("rung", "recompute-warm"))
		r, err := reschedule(warm, nil)
		warm.SetAttrs(trace.Bool("feasible", err == nil && r != nil))
		warm.End()
		if err != nil {
			return nil, err
		}
		if r != nil {
			return finish(r, RepairRecomputed, p.TauIn, 1)
		}
	}

	// Rungs 2-4 all run the full pipeline on the residual topology; one
	// Solver serves every rung, so the fault-aware candidates and LSD
	// baseline are routed once instead of once per (window, rate) trial.
	full := p
	full.Faults = fs
	rungs := repairRungs(p.TauIn, opt.window(p.Timing))
	tried, err := walkRungs(ctx, NewSolver(full), opt, rungs, func(rg rung) *trace.Span {
		return rsp.Start(SpanRung, trace.String("rung", repairRungNames[rg.kind]),
			trace.Float64("tau_out", rg.tauOut), trace.Float64("window", rg.window))
	})
	if err != nil {
		return noRoute(err)
	}
	last := tried[len(tried)-1]
	if last.Feasible {
		rg := rungs[len(tried)-1]
		return finish(last, RepairOutcome(rg.kind), rg.tauOut, rg.scale)
	}
	rep.Outcome = RepairInfeasible
	rep.Stage = last.FailStage
	rep.Reason = "every repair rung rejected the degraded problem"
	return rep, nil
}

// repairRungNames are the "rung" span attributes of the full-pipeline
// repair rungs, by outcome.
var repairRungNames = [...]string{
	RepairRecomputed:     "recompute",
	RepairDegradedWindow: "degraded-window",
	RepairDegradedRate:   "degraded-rate",
}

// repairRungs lists the full-pipeline rungs of the repair ladder: the
// original rate and window on the residual topology, then widened
// windows (latency degrades, τout preserved; a window never outgrows
// the period), then reduced rates (τout degrades but stays constant).
func repairRungs(tauIn, baseWindow float64) []rung {
	rungs := []rung{{int(RepairRecomputed), tauIn, baseWindow, 1}}
	for _, scale := range windowScales {
		w := baseWindow * scale
		if w > tauIn {
			w = tauIn
		}
		rungs = append(rungs, rung{int(RepairDegradedWindow), tauIn, w, w / baseWindow})
	}
	for _, f := range rateFactors {
		rungs = append(rungs, rung{int(RepairDegradedRate), tauIn * f, baseWindow, 1})
	}
	return rungs
}

// rung is one full-pipeline step of a degradation ladder: solve at
// (tauOut, window); kind is the caller's outcome when it is feasible
// and scale the window widening it reports.
type rung struct {
	kind   int
	tauOut float64
	window float64
	scale  float64
}

// walkRungs solves the rungs in order on one Solver, each under the span
// open starts for it, and stops at the first feasible one. It returns
// the Result of every rung tried, so the last is the feasible one when
// any is; which rungs exist and in what order is the caller's policy.
func walkRungs(ctx context.Context, solver *Solver, o Options, rungs []rung, open func(rung) *trace.Span) ([]*Result, error) {
	tried := make([]*Result, 0, len(rungs))
	for _, rg := range rungs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := open(rg)
		o.Window, o.Trace = rg.window, sp
		r, err := solver.Solve(ctx, rg.tauOut, o)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.SetAttrs(trace.Bool("feasible", r.Feasible), trace.Float64("peak", r.Peak))
		if !r.Feasible {
			sp.SetAttrs(trace.String("fail_stage", r.FailStage.String()))
		}
		sp.End()
		tried = append(tried, r)
		if r.Feasible {
			break
		}
	}
	return tried, nil
}

// repairIncremental is the routing half of rung 1: reroute only the
// affected messages onto surviving paths chosen by a deterministic
// greedy peak-minimizing sweep. It returns the repaired assignment and
// its peak, or a nil assignment when the peak stays above 1 (no
// allocation can exist, and the warm-start recompute has nothing to
// reuse). Only structural errors propagate (including
// *topology.NoRouteError for disconnection).
func repairIncremental(a *solveArena, p Problem, opt Options, base *Result, fs *topology.FaultSet, affected []tfg.MessageID) (*PathAssignment, float64, error) {
	top := p.Topology
	ws := base.Windows
	act := base.Activity
	pa := base.Assignment.Clone()

	// Surviving candidates per affected message, the route memo's rows.
	paths := make([][]topology.Path, len(affected))
	links := make([][][]topology.LinkID, len(affected))
	for k, mi := range affected {
		m := p.Graph.Message(mi)
		var err error
		if paths[k], links[k], err = top.SurvivingRoutes(p.Assignment.Node(m.Src), p.Assignment.Node(m.Dst), opt.MaxPaths, fs); err != nil {
			return nil, 0, err
		}
	}

	// Start every affected message on its first surviving path, then
	// greedily sweep: each pass re-evaluates every affected message
	// against all its candidates and keeps the peak-minimizing choice.
	// Candidate order and message order are fixed, so the result is
	// deterministic.
	for k, mi := range affected {
		pa.SetPath(mi, paths[k][0], links[k][0])
	}
	ls := a.loadState(top, pa, ws, act, opt.LinkCap)
	peak := ls.Peak()
	const sweeps = 2
	for s := 0; s < sweeps; s++ {
		improved := false
		for k, mi := range affected {
			if len(links[k]) < 2 {
				continue
			}
			bestCI, bestPeak := -1, peak
			for ci, c := range links[k] {
				if slices.Equal(c, pa.Links[mi]) {
					continue
				}
				if tp, _, _ := ls.EvalReroute(mi, pa.Links[mi], c, bestPeak-timeEps); tp < bestPeak-timeEps {
					bestCI, bestPeak = ci, tp
				}
			}
			if bestCI >= 0 {
				ls.ApplyReroute(mi, pa.Links[mi], links[k][bestCI])
				pa.SetPath(mi, paths[k][bestCI], links[k][bestCI])
				peak = bestPeak
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if peak > 1+timeEps {
		return nil, 0, nil
	}
	// Belt and braces: the repaired paths must avoid every failed
	// element — guaranteed by construction, verified anyway.
	for i, links := range pa.Links {
		if ws[i].Local || len(links) == 0 {
			continue
		}
		if !fs.Survives(top, p.Assignment.Node(p.Graph.Message(tfg.MessageID(i)).Src), links) {
			return nil, 0, fmt.Errorf("schedule: internal: repaired message %d crosses a failed element", i)
		}
	}
	return pa, peak, nil
}
