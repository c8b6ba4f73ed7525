package schedule

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"schedroute/internal/errkind"
	"schedroute/internal/memo"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// SolveStats instruments one Solve call. The counters (Attempts,
// AssignIterations) are deterministic and always filled; the wall-clock
// stage timings are populated only when Options.CollectStats is set, so
// results stay comparable across runs and worker counts (the
// determinism suite DeepEquals whole Results).
type SolveStats struct {
	// Attempts is the number of Fig. 3 feedback iterations run (1 when
	// the first path assignment survived the downstream stages).
	Attempts int
	// AssignIterations totals the utilization evaluations AssignPaths
	// performed across all attempts. Restart 0 reads no seed, so only
	// the first attempt climbs it; later attempts count their seeded
	// restarts alone.
	AssignIterations int

	// Per-stage wall-clock times; zero unless Options.CollectStats.
	WindowsTime  time.Duration
	AssignTime   time.Duration
	AllocateTime time.Duration
	ScheduleTime time.Duration
	OmegaTime    time.Duration
}

// Solver runs the Fig. 3 pipeline repeatedly over one fixed problem
// structure — (Graph, Timing, Topology, Assignment, Faults) — varying
// only the invocation period and options per call. Everything
// τin-independent is computed once and reused: the fault-aware LSD
// baseline and candidate path sets (both depend on the windows only
// through the Local flags, which are fixed by the placement), the
// static task starts per window length, and the placement validation.
// What is keyed by a value a caller chooses (MaxPaths, the window, the
// period) is a bounded memo.Cache; DESIGN §3.11 tabulates every memo.
//
// A Solver is safe for concurrent Solve calls, and Solve results are
// identical to one-shot Compute on the same inputs.
type Solver struct {
	p Problem // TauIn ignored; supplied per Solve

	// starts caches PipelinedStart per window length; sharedStarts
	// caches PipelinedStartShared per (window, τin) since AP-sharing
	// layouts depend on the period too; cands caches
	// BuildCandidatesFault per MaxPaths; validated caches
	// Assignment.Validate's verdict per strictness; lsd caches the
	// FaultRouteAssignment baseline's verdict under its one key. A
	// verdict is kept whether it passes or refuses: neither build takes
	// a context, so a refusal is the structure's answer, not a caller's.
	starts       memo.Cache[float64, []float64]
	sharedStarts memo.Cache[[2]float64, []float64]
	cands        memo.Cache[int, *Candidates]
	validated    memo.Cache[bool, error]
	lsd          memo.Cache[struct{}, baselineVerdict]

	// solves counts Solve calls; the memos count their own builds as
	// misses. Both are kept out of Result on purpose — which Solve call
	// performs a build depends on goroutine arrival order, and Results
	// must stay value-comparable across worker counts.
	solves atomic.Int64
}

// The Solver's memo bounds: a problem is solved at one MaxPaths, a
// ladder or an exploration at a handful of windows (a Pareto cell
// bisects its window in at most seven steps). Past them the least
// recently used entry goes, to be rebuilt to the same value.
const (
	solverCandidateSets = 4
	solverStartTables   = 32
)

// SolverCacheStats reports how much τin-independent structure a Solver
// has actually rebuilt, against how many Solve calls it served.
type SolverCacheStats struct {
	// Solves is the number of Solve calls completed or started.
	Solves int64
	// BaselineBuilds counts FaultRouteAssignment runs (1: its verdict,
	// a refusal included, is kept).
	BaselineBuilds int64
	// CandidateBuilds counts BuildCandidatesFault runs (one per distinct
	// MaxPaths).
	CandidateBuilds int64
	// StartsBuilds counts static task-start computations (one per
	// distinct window length, or per (window, τin) with AP sharing).
	StartsBuilds int64
	// ValidateBuilds counts Assignment.Validate runs (one per
	// strictness level: its verdict, a refusal included, is kept).
	ValidateBuilds int64
}

// CacheStats snapshots the cache instrumentation, so callers (the
// scheduling service, tests) can verify the warm path: after the first
// Solve on a structure, the build counters stop moving while Solves
// keeps climbing. Safe to call concurrently with Solve.
func (s *Solver) CacheStats() SolverCacheStats {
	return SolverCacheStats{
		Solves:          s.solves.Load(),
		BaselineBuilds:  s.lsd.Stats().Misses,
		CandidateBuilds: s.cands.Stats().Misses,
		StartsBuilds:    s.starts.Stats().Misses + s.sharedStarts.Stats().Misses,
		ValidateBuilds:  s.validated.Stats().Misses,
	}
}

// arenaPool recycles solve arenas across Solve calls and Solvers; each
// Solve borrows one arena for its whole pipeline, so concurrent Solves
// never share scratch.
var arenaPool = sync.Pool{New: func() any { return new(solveArena) }}

// NewSolver fixes the problem structure. p.TauIn is ignored — the
// period is an argument to Solve.
func NewSolver(p Problem) *Solver {
	return &Solver{
		p:            p,
		starts:       memo.New[float64, []float64](solverStartTables),
		sharedStarts: memo.New[[2]float64, []float64](solverStartTables),
		cands:        memo.New[int, *Candidates](solverCandidateSets),
		validated:    memo.New[bool, error](2),
		lsd:          memo.New[struct{}, baselineVerdict](1),
	}
}

// Compute runs the scheduled-routing pipeline of the paper's Fig. 3:
// time bounds → path assignment → message-interval allocation →
// interval scheduling → node switching schedules. Infeasibility at any
// stage is reported in the Result; an error return signals invalid
// input or an internal inconsistency. It is a one-shot, uncancellable
// wrapper over Solver; callers evaluating many periods of one problem
// should build the Solver once, and callers needing cancellation should
// use Solver.Solve with their context.
func Compute(p Problem, o Options) (*Result, error) {
	return NewSolver(p).Solve(context.Background(), p.TauIn, o)
}

// validate caches Assignment.Validate's verdict per strictness level.
func (s *Solver) validate(exclusive bool) error {
	verdict, _, _ := s.validated.Get(exclusive, func() (error, error) {
		return s.p.Assignment.Validate(s.p.Graph, s.p.Topology, exclusive), nil
	})
	return verdict
}

// taskStarts returns the static task start times for the given window,
// cached per window length (and per period when AP sharing is on).
func (s *Solver) taskStarts(window, tauIn float64, shared bool) (starts []float64, err error) {
	if shared {
		starts, _, err = s.sharedStarts.Get([2]float64{window, tauIn}, func() ([]float64, error) {
			nodeOf := make([]int, s.p.Graph.NumTasks())
			for t := range nodeOf {
				nodeOf[t] = int(s.p.Assignment.Node(tfg.TaskID(t)))
			}
			// An AP the period cannot fit is the request's fault.
			starts, err := s.p.Graph.PipelinedStartShared(s.p.Timing, window, nodeOf, tauIn)
			return starts, errkind.Mark(err, errkind.ErrBadInput)
		})
		return starts, err
	}
	starts, _, err = s.starts.Get(window, func() ([]float64, error) {
		return s.p.Graph.PipelinedStart(s.p.Timing, window), nil
	})
	return starts, err
}

// baselineVerdict is what FaultRouteAssignment answered for a Solver's
// structure: the baseline, or the error it refused with (a
// *topology.NoRouteError on a disconnected machine).
type baselineVerdict struct {
	pa  *PathAssignment
	err error
}

// lsdBaseline returns the fault-aware deterministic assignment, built
// once: FaultRouteAssignment reads the windows only through the Local
// flags, which depend on the placement alone, so the baseline — or its
// refusal, which every later Solve on a disconnected machine returns
// without a re-walk — is the same for every period and window.
// The boolean reports whether this call performed the build (false on a
// cache hit), feeding the trace span's "cached" attribute.
func (s *Solver) lsdBaseline(ws []Window) (*PathAssignment, bool, error) {
	v, hit, _ := s.lsd.Get(struct{}{}, func() (baselineVerdict, error) {
		pa, err := FaultRouteAssignment(s.p.Graph, s.p.Topology, s.p.Assignment, ws, s.p.Faults)
		return baselineVerdict{pa, err}, nil
	})
	return v.pa, !hit, v.err
}

// candidates returns the per-message equivalent-path sets, built once
// per MaxPaths for the same reason as lsdBaseline. The Candidates are
// immutable and shared across Solve calls.
func (s *Solver) candidates(ws []Window, maxPaths int) (*Candidates, bool, error) {
	c, hit, err := s.cands.Get(maxPaths, func() (*Candidates, error) {
		return BuildCandidatesFault(s.p.Graph, s.p.Topology, s.p.Assignment, ws, maxPaths, s.p.Faults)
	})
	return c, !hit, err
}

// Solve runs the pipeline for one invocation period. The output is
// identical — bit for bit — to Compute on the same problem and
// options: the cached structures are exactly the values a fresh run
// would rebuild.
//
// ctx cancels the solve between pipeline stages and between feedback
// attempts; a cancelled call returns ctx.Err(). A nil ctx is treated as
// context.Background().
func (s *Solver) Solve(ctx context.Context, tauIn float64, o Options) (*Result, error) {
	return s.solve(ctx, tauIn, o, 0)
}

// solve is Solve with AssignPaths climbing on climbers workers, or on
// climbWorkers' choice for o.Procs when climbers is 0.
func (s *Solver) solve(ctx context.Context, tauIn float64, o Options, climbers int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := o.withDefaults()
	p := s.p
	if p.Graph == nil || p.Timing == nil || p.Topology == nil || p.Assignment == nil {
		return nil, fmt.Errorf("schedule: incomplete problem")
	}
	if opt.LinkCap != nil && len(opt.LinkCap) != p.Topology.Links() {
		return nil, fmt.Errorf("schedule: LinkCap has %d entries for %d links", len(opt.LinkCap), p.Topology.Links())
	}
	s.solves.Add(1)
	// Without AP sharing, SR's static task starts assume one task per
	// application processor.
	if err := s.validate(!opt.AllowSharedNodes); err != nil {
		return nil, err
	}
	window := opt.window(p.Timing)
	sameNode := func(m tfg.Message) bool {
		return p.Assignment.Node(m.Src) == p.Assignment.Node(m.Dst)
	}

	clock := stageClock{on: opt.CollectStats}
	if clock.on {
		clock.t = time.Now()
	}

	sp := opt.Trace.Start(SpanSolve, trace.Float64("tau_in", tauIn), trace.Int64("seed", opt.Seed))
	defer sp.End()

	arena := arenaPool.Get().(*solveArena)
	defer arenaPool.Put(arena)

	tb := sp.Start(SpanTimeBounds)
	starts, err := s.taskStarts(window, tauIn, opt.AllowSharedNodes)
	if err != nil {
		return nil, err
	}
	ws, err := ComputeWindowsFromStarts(p.Graph, p.Timing, tauIn, window, starts, sameNode)
	if err != nil {
		return nil, err
	}
	if opt.SyncMargin > 0 {
		if err := applySyncMargin(ws, opt.SyncMargin); err != nil {
			return nil, err
		}
	}
	var set *IntervalSet
	set, arena.pts = buildIntervals(ws, tauIn, arena.pts)
	act := BuildActivity(ws, set)
	tb.SetAttrs(trace.Int("windows", len(ws)))
	tb.End()
	clock.stamp(&clock.WindowsTime)

	res := &Result{
		Windows:   ws,
		Intervals: set,
		Activity:  act,
		Latency:   p.Graph.LatencyOf(p.Timing, starts),
	}

	ls := sp.Start(SpanLSDBaseline)
	lsd, lsdBuilt, err := s.lsdBaseline(ws)
	if err != nil {
		return nil, err
	}
	// The baseline may end up in the Result (LSDOnly, or when no
	// reroute improves on it); hand each Solve its own slice headers so
	// callers can't alias each other through the cache.
	lsd = lsd.Clone()
	res.PeakLSD = arena.loadState(p.Topology, lsd, ws, act, opt.LinkCap).Peak()
	ls.SetAttrs(trace.Bool("cached", !lsdBuilt), trace.Float64("peak", res.PeakLSD))
	ls.End()

	var cands *Candidates
	if !opt.LSDOnly {
		cs := sp.Start(SpanCandidates, trace.Int("max_paths", opt.MaxPaths))
		var candsBuilt bool
		cands, candsBuilt, err = s.candidates(ws, opt.MaxPaths)
		if err != nil {
			return nil, err
		}
		cs.SetAttrs(trace.Bool("cached", !candsBuilt))
		cs.End()
	}

	// The Fig. 3 pipeline, with feedback: on a downstream rejection the
	// path assignment is recomputed from a fresh seed and the later
	// stages retried. Each attempt pays only for what its seed changes
	// (DESIGN §3.4): rec holds restart 0's fold, which attempt 0 climbs
	// and every later attempt starts from, and failed[i] is attempt i's
	// assignment and verdict, taken again by an attempt that lands on the
	// same assignment.
	if climbers == 0 && cands != nil {
		climbers = climbWorkers(cands, opt.Procs)
	}
	back := backHalf{arena: arena, top: p.Topology, tauIn: tauIn, opt: &opt, clock: &clock}
	rec := &arena.rec
	*rec = assignRecord{}
	var failed []failedAttempt
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		clock.Attempts = attempt + 1
		asp := sp.Start(SpanAttempt, trace.Int("attempt", attempt))
		ap := asp.Start(SpanAssignPaths)
		pa, peak := lsd, res.PeakLSD
		if !opt.LSDOnly {
			ar, err := rec.assign(ctx, arena, lsd, cands, p.Topology, ws, act, opt.Seed+int64(attempt), opt.MaxOuter, opt.MaxInner, opt.LinkCap, climbers)
			if err != nil {
				return nil, err
			}
			clock.AssignIterations += ar.evals
			pa, peak = ar.pa, ar.spot.peak
			if peak > res.PeakLSD {
				// AssignPaths starts from LSD, so it can never be worse.
				pa, peak = lsd, res.PeakLSD
			}
			ap.SetAttrs(trace.Int("iterations", ar.evals),
				trace.Int("tentative_computed", ar.computed),
				trace.Int("tentative_reused", ar.reused))
		}
		ap.SetAttrs(trace.Float64("peak", peak))
		ap.End()
		clock.stamp(&clock.AssignTime)
		if attempt == 0 || peak < res.Peak {
			res.Assignment = pa
			res.Peak = peak
		}

		// The later stages read nothing of an attempt but its assignment.
		if i := slices.IndexFunc(failed, func(f failedAttempt) bool { return f.pa.sameLinks(pa) }); i >= 0 {
			res.FailStage = failed[i].stage
			asp.SetAttrs(trace.Int("repeats", i))
		} else if err := back.run(ctx, asp, res, pa, peak, starts, nil); err != nil {
			return nil, err
		}
		if !res.Feasible {
			asp.SetAttrs(trace.String("fail_stage", res.FailStage.String()))
		}
		asp.End()
		if !res.Feasible && attempt < opt.Retries && !opt.LSDOnly {
			failed = append(failed, failedAttempt{pa, res.FailStage})
			continue
		}
		res.Stats = clock.SolveStats
		sp.End()
		res.Trace = sp.Tree()
		return res, nil
	}
}

// failedAttempt is a Fig. 3 attempt the later stages rejected: its path
// assignment and the stage that rejected it.
type failedAttempt struct {
	pa    *PathAssignment
	stage Stage
}

// stageClock is one Solve's SolveStats and the wall clock behind its
// stage timings: each stamp charges a stage the time since the previous
// stamp. Off (the zero value) it never reads the clock.
type stageClock struct {
	SolveStats
	on bool
	t  time.Time
}

func (c *stageClock) stamp(d *time.Duration) {
	if !c.on {
		return
	}
	now := time.Now()
	*d += now.Sub(c.t)
	c.t = now
}

// backHalf is the Fig. 3 pipeline after path assignment — peak check →
// maximal subsets → allocation LP → interval scheduling → Ω emission →
// validation — with its stage spans and SolveStats stamps. Solve runs
// it once per feedback attempt; the repair ladder runs it on a greedily
// rerouted assignment over the base schedule's time bounds.
type backHalf struct {
	arena *solveArena
	top   *topology.Topology
	tauIn float64
	opt   *Options // LinkCap, Engine, SyncMargin; defaults applied
	clock *stageClock
}

// run schedules the assignment pa (of relative peak utilization peak)
// over res.Windows / res.Activity and records the verdict in res: the
// rejecting stage in FailStage, or Feasible with the assignment,
// allocation, slices and validated Ω. A non-nil pin holds every message
// it does not free at its base allocation row. Stage spans are children
// of sp. An error is an internal inconsistency, never infeasibility.
// starts (the task starts Ω records) is an argument, not a field: it
// outlives the call inside Ω, and escape analysis would send everything
// else b points at — opt, clock — to the heap with it on every Solve.
func (b *backHalf) run(ctx context.Context, sp *trace.Span, res *Result, pa *PathAssignment, peak float64, starts []float64, pin *allocPin) error {
	ws, act, opt := res.Windows, res.Activity, b.opt
	if peak > 1+timeEps {
		res.FailStage = StageUtilization
		return nil
	}
	ms := sp.Start(SpanSubsets)
	subsets := maximalSubsets(b.arena, pa, ws, act)
	ms.End()

	al := sp.Start(SpanAllocation)
	allocation, err := allocateIntervals(ctx, b.arena, subsets, pa, ws, act, opt.LinkCap, pin)
	al.SetAttrs(trace.Bool("feasible", err == nil), trace.Int("lp.pivots", b.arena.alloc.pivots))
	al.End()
	b.clock.stamp(&b.clock.AllocateTime)
	if err != nil {
		if errors.As(err, new(*ErrAllocationInfeasible)) {
			res.FailStage = StageAllocation
			return nil
		}
		return err
	}

	is := sp.Start(SpanIntervalSched)
	slices, err := scheduleIntervals(ctx, b.arena, allocation, pa, act, opt.Engine, 2*opt.SyncMargin)
	is.SetAttrs(trace.Bool("feasible", err == nil), trace.Int("slices", len(slices)))
	is.End()
	b.clock.stamp(&b.clock.ScheduleTime)
	if err != nil {
		if errors.As(err, new(*ErrIntervalInfeasible)) {
			res.FailStage = StageIntervalSchedule
			return nil
		}
		return err
	}

	om := sp.Start(SpanOmega)
	omega := buildOmega(&b.arena.omega, slices, pa, ws, b.top.Nodes(), b.tauIn, res.Latency)
	omega.Starts = starts
	if err := omega.Validate(b.top); err != nil {
		return fmt.Errorf("schedule: internal: emitted schedule failed validation: %w", err)
	}
	om.SetAttrs(trace.Int("commands", omega.NumCommands()))
	om.End()
	b.clock.stamp(&b.clock.OmegaTime)

	res.Feasible = true
	res.FailStage = StageOK
	res.Assignment = pa
	res.Peak = peak
	res.Allocation = allocation
	res.Slices = slices
	res.Omega = omega
	return nil
}
