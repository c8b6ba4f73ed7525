package schedule

import (
	"fmt"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// Problem bundles the inputs fixed before scheduled routing runs:
// the application (TFG + timing), the machine (topology), the placement
// (allocation) and the invocation period.
type Problem struct {
	Graph      *tfg.Graph
	Timing     *tfg.Timing
	Topology   *topology.Topology
	Assignment *alloc.Assignment
	// TauIn is the invocation period τin >= τc.
	TauIn float64
	// Faults, when non-empty, restricts routing to the residual
	// topology: the deterministic baseline keeps each LSD route whose
	// links FaultSet.Survives and takes the first surviving route
	// otherwise (FaultRouteAssignment), and path candidates come from
	// SurvivingRoutes, so every emitted Ω avoids the failed links and
	// nodes. A nil or empty set is the perfect machine.
	Faults *topology.FaultSet
}

// Options tunes the Compute pipeline; the zero value selects the
// defaults used throughout the reproduction.
type Options struct {
	// Seed drives AssignPaths' random restarts (deterministic per seed).
	Seed int64
	// MaxPaths caps the equivalent shortest paths enumerated per message
	// (default 24).
	MaxPaths int
	// MaxOuter is the number of AssignPaths random restarts (default 6).
	MaxOuter int
	// MaxInner caps iterative-improvement steps per restart (default 60).
	MaxInner int
	// Engine selects the interval-scheduling algorithm.
	Engine Engine
	// Window overrides the message window length (default τc, the
	// paper's choice).
	Window float64
	// LSDOnly skips AssignPaths and keeps the deterministic LSD-to-MSD
	// paths; used as the Fig. 5/6 baseline.
	LSDOnly bool
	// SyncMargin implements the paper's Section 7 clock-skew guard:
	// every CP lets at least this interval (at least twice the maximum
	// clock difference) elapse after a message's nominal release before
	// transmission may start, shrinking each window accordingly. The
	// allocation and interval-scheduling formulations see the reduced
	// windows, exactly as the paper prescribes.
	SyncMargin float64
	// Retries implements the feedback arrows of the paper's Fig. 3:
	// when message-interval allocation or interval scheduling rejects a
	// path assignment, AssignPaths is re-run with a fresh seed and the
	// later stages are retried, up to this many times. A retry climbs
	// only its seeded restarts, from restart 0's outcome in the first
	// attempt, and one whose assignment an earlier attempt already failed
	// with takes that attempt's verdict without re-running the later
	// stages; the result is what independent attempts would give.
	Retries int
	// AllowSharedNodes admits placements with several tasks per node:
	// the mapping chain's "node scheduling" step then packs each
	// application processor's tasks into disjoint sub-intervals of the
	// frame (tfg.PipelinedStartShared), usually at the cost of extra
	// latency. Without it, placements must be exclusive.
	AllowSharedNodes bool
	// Procs bounds the worker goroutines of a call. The search entry
	// points (ComputeBestAllocation, Sweep, Explore) run their solves on
	// that many, each solve climbing on one; a solve on its own climbs
	// AssignPaths' random restarts on that many once the problem has 512
	// multi-path messages. 0 selects GOMAXPROCS and 1 forces a serial
	// run; results are independent of Procs.
	Procs int
	// CollectStats fills the wall-clock stage timings of Result.Stats.
	// Off by default so Results stay value-comparable across runs (the
	// deterministic counters are filled either way).
	CollectStats bool
	// LinkCap, when non-nil, caps the bandwidth fraction this solve may
	// use on each link: LinkCap[j] ∈ [0, 1] is the share of link j left
	// to this problem, and the utilization scores seen by AssignPaths
	// and the allocation LP are taken relative to that share
	// (U_j / LinkCap[j]; allocation rows get RHS LinkCap[j]·|A_k|). This
	// is how multi-tenant co-scheduling expresses the residual fabric: a
	// tenant solves against the capacity not reserved by earlier
	// admissions, under the guaranteed-rate TDM link-sharing model of
	// DESIGN §10. It must have length Topology.Links(). nil means the
	// whole machine (all ones) and takes a bit-identical fast path; the
	// hot-spot counts U_jk are integer message counts and are not
	// rescaled (each tenant's virtual link preserves slack structure).
	LinkCap []float64

	// Trace, when non-nil, is the parent span the solve records itself
	// under: one child span per pipeline stage (see PipelineStages),
	// carrying durations and small typed attributes. The finished solve
	// subtree is also snapshotted onto Result.Trace. A nil Trace is the
	// disabled tracer — every span site is a nil-receiver no-op, so the
	// hot path pays ~nothing.
	Trace *trace.Span
}

// window is the message window length: the override, or the paper's
// choice τc.
func (o *Options) window(tm *tfg.Timing) float64 {
	if o.Window != 0 {
		return o.Window
	}
	return tm.TauC()
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxPaths == 0 {
		out.MaxPaths = 24
	}
	if out.MaxOuter == 0 {
		out.MaxOuter = 6
	}
	if out.MaxInner == 0 {
		out.MaxInner = 60
	}
	return out
}

// Span names used by the tracer for the Fig. 3 pipeline and its
// supporting computations. The five PipelineStages are the paper's
// pipeline proper — time bounds (§4) → path assignment (§5.1, Fig. 4)
// → message-interval allocation (§5.2) → interval scheduling (§5.3) →
// Ω emission (§5.4) — and a traced feasible first-attempt solve names
// each exactly once (see DESIGN §7).
const (
	SpanSolve         = "solve"
	SpanTimeBounds    = "time_bounds"
	SpanLSDBaseline   = "lsd_baseline"
	SpanCandidates    = "candidate_search"
	SpanAttempt       = "attempt"
	SpanAssignPaths   = "assign_paths"
	SpanSubsets       = "maximal_subsets"
	SpanAllocation    = "interval_allocation"
	SpanIntervalSched = "interval_scheduling"
	SpanOmega         = "omega_emission"
	SpanRepair        = "repair"
	SpanRung          = "rung"
	SpanAllocSearch   = "allocation_search"
	SpanCandidate     = "candidate"

	// Admission-control stages (multi-tenant co-scheduling, DESIGN §10):
	// one admit span per TenantSet.Admit call, with a residual-capacity
	// computation, one rung span per degradation-ladder attempt, an
	// eviction span per preempted tenant, and a reserve span when the
	// candidate's link shares are committed.
	SpanAdmit         = "admit"
	SpanAdmitResidual = "admit_residual"
	SpanAdmitRung     = "admit_rung"
	SpanAdmitEvict    = "admit_evict"
	SpanAdmitReserve  = "admit_reserve"
)

// PipelineStages lists the Fig. 3 stage span names in pipeline order.
var PipelineStages = []string{
	SpanTimeBounds, SpanAssignPaths, SpanAllocation, SpanIntervalSched, SpanOmega,
}

// Stage identifies where the pipeline stopped.
type Stage int

const (
	// StageOK means a full schedule was computed and validated.
	StageOK Stage = iota
	// StageUtilization means no path assignment reached peak
	// utilization <= 1, so the communication requirements exceed the
	// link capacity (the paper's Fig. 5/6 high-load regime).
	StageUtilization
	// StageAllocation means message-interval allocation was infeasible
	// (the failure marked by arrows in the paper's Fig. 9).
	StageAllocation
	// StageIntervalSchedule means some interval could not be decomposed
	// into link-feasible sets within its length.
	StageIntervalSchedule
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageOK:
		return "ok"
	case StageUtilization:
		return "utilization"
	case StageAllocation:
		return "message-interval allocation"
	case StageIntervalSchedule:
		return "interval scheduling"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Result is the outcome of the full Fig. 3 pipeline. When Feasible is
// false, FailStage says which step rejected the problem; the structural
// fields up to that step remain populated for diagnosis.
type Result struct {
	Feasible  bool
	FailStage Stage

	Windows   []Window
	Intervals *IntervalSet
	Activity  *Activity

	// PeakLSD is the peak utilization under LSD-to-MSD routing;
	// Peak is the peak after AssignPaths (equal when LSDOnly).
	PeakLSD float64
	Peak    float64

	Assignment *PathAssignment
	Allocation *Allocation
	Slices     []Slice
	Omega      *Omega

	// Latency is the windowed pipeline latency Λ_w of every invocation.
	Latency float64

	// Stats instruments the Solve call that produced this result.
	Stats SolveStats

	// Trace is the solve's span tree, set only when Options.Trace was
	// non-nil. Wall-clock spans are inherently run-dependent, so traced
	// Results are not value-comparable; the determinism suite compares
	// Trace structurally (span names) and DeepEquals the rest.
	Trace *trace.Tree
}

// applySyncMargin shrinks every non-local window by the Section 7
// clock-skew margin at the deadline side: transmissions are scheduled
// to finish at least margin before the nominal deadline, leaving room
// for the per-slice guard waits (source CPs delaying up to margin after
// each scheduled start, see internal/cpsim) without missing the real
// deadline.
func applySyncMargin(ws []Window, margin float64) error {
	for i := range ws {
		if ws[i].Local {
			continue
		}
		newLen := ws[i].Length - margin
		if newLen < ws[i].Xmit-timeEps {
			return errkind.BadInput("schedule: sync margin %g leaves message %d a window of %g below its transmission time %g", margin, i, newLen, ws[i].Xmit)
		}
		ws[i].Length = newLen
	}
	return nil
}
