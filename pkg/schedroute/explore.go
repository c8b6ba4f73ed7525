package schedroute

// This file is the unified exploration vocabulary: one schema-versioned
// request shape — objectives + axes — behind which the sweep surfaces
// that grew independently (period grids, the experiments sweep configs,
// and schedule.ComputeBestAllocation's candidate-placement search)
// consolidate.
//
//   - No objectives, τin axis only: a period grid, one solve per point.
//   - No objectives, τin + placement axes: the best-allocation search
//     at every grid point (feasible beats infeasible, then lower peak),
//     with the winning placement reported per point.
//   - Objectives named: the Pareto-front explorer — minimal feasible
//     τin per placement by bisection, then latency (window) and
//     resource minimization per candidate period, dominated points
//     eliminated.

import (
	"slices"

	"schedroute/internal/errkind"
)

// TauInAxis spans the candidate invocation periods of an exploration.
type TauInAxis struct {
	// Points is the number of candidate periods: the grid size in grid
	// mode (0 = 12, the paper's grid), or the per-placement candidate
	// periods above the bisected minimum in Pareto mode (0 = 5).
	Points int `json:"points,omitempty"`
	// Min and Max bound the period range in µs (0 = τc and 5τc). In both
	// modes Min is clamped up to τc — shorter periods are never feasible
	// — and a range left empty is refused (schedule.PeriodAxis owns the
	// rule).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// PlacementAxis adds candidate task placements beyond the problem's
// own, turning the exploration into a placement co-optimization.
type PlacementAxis struct {
	// Allocators names extra candidate placements by allocator spec
	// ("rr", "greedy", "random", "anneal"), each resolved with the
	// problem's alloc_seed; a name given twice is refused.
	Allocators []string `json:"allocators,omitempty"`
	// AnnealSeeds adds one simulated-annealing placement per seed,
	// deterministic per seed.
	AnnealSeeds []int64 `json:"anneal_seeds,omitempty"`
	// AnnealSteps tunes the annealer move budget (0 = default).
	AnnealSteps int `json:"anneal_steps,omitempty"`
}

// ExploreAxes selects the dimensions an exploration varies.
type ExploreAxes struct {
	// TauIn spans invocation periods; absent means the default grid.
	TauIn *TauInAxis `json:"tau_in,omitempty"`
	// Placement adds candidate placements; absent means the problem's
	// own placement only.
	Placement *PlacementAxis `json:"placement,omitempty"`
}

// ExploreModeGrid and ExploreModePareto are the two exploration modes,
// reported in ExploreResult.Mode.
const (
	ExploreModeGrid   = "grid"
	ExploreModePareto = "pareto"
)

// ExploreRequest asks for one multi-criteria exploration: a problem, a
// set of axes to vary, and the objectives that define domination. Empty
// objectives select grid mode (every axis point reported); naming
// objectives selects Pareto mode (dominated points eliminated).
type ExploreRequest struct {
	Problem Problem `json:"problem"`
	Options Options `json:"options,omitempty"`
	// Tenant scopes the exploration (v2); absent means the default
	// tenant.
	Tenant *Tenant `json:"tenant,omitempty"`
	// Objectives are the minimized axes among "tau_in", "latency",
	// "links", "buffers". Empty means grid mode.
	Objectives []string `json:"objectives,omitempty"`
	// Axes select what varies; the zero value is the default τin grid
	// over [τc, 5τc] at the problem's own placement.
	Axes ExploreAxes `json:"axes,omitempty"`
	// Tolerance is the Pareto bisection tolerance in µs (0 = τc/64).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Execute replays each feasible grid point's Ω through the
	// deterministic executor (grid mode only).
	Execute bool `json:"execute,omitempty"`
	// Invocations is the executor run length (0 = 8, else 2 to
	// MaxInvocations; only with Execute).
	Invocations int `json:"invocations,omitempty"`
}

// MaxInvocations bounds the executor run length a request may ask for.
// The executor's output is periodic, so a longer replay measures
// nothing a short one does not, while its cost grows with the count.
const MaxInvocations = 4096

// The largest solve options a request may ask for, each at least ten
// times what any caller, example or benchmark pool uses (defaults 24 /
// 6 / 60 / 0, pools retries 2). Each multiplies work: max_paths sizes
// the shortest-path enumeration per message, which takes no context
// (and is a key of the Topology's route memo), max_outer × max_inner
// the AssignPaths hill-climb, retries whole pipeline attempts.
const (
	MaxPathsLimit = 256
	MaxOuterLimit = 64
	MaxInnerLimit = 1024
	RetriesLimit  = 32
)

// checkInvocations refuses an executor run length outside
// {0} ∪ [2, MaxInvocations]: one invocation has no output interval to
// check.
func checkInvocations(what string, n int) error {
	if n < 0 || n == 1 || n > MaxInvocations {
		return errkind.BadInput("%s: invocations %d out of range (0 for the default, else 2..%d)", what, n, MaxInvocations)
	}
	return nil
}

// Mode reports which exploration the request selects.
func (r ExploreRequest) Mode() string {
	if len(r.Objectives) > 0 {
		return ExploreModePareto
	}
	return ExploreModeGrid
}

// TauInAxisOrDefault resolves the request's period axis, never nil.
func (r ExploreRequest) TauInAxisOrDefault() TauInAxis {
	if r.Axes.TauIn == nil {
		return TauInAxis{}
	}
	return *r.Axes.TauIn
}

// Validate checks the exploration shape beyond what problem building
// covers. Objective names are validated downstream by the solver's
// parser, which owns the vocabulary.
func (r ExploreRequest) Validate() error {
	ax := r.TauInAxisOrDefault()
	if ax.Min < 0 || ax.Max < 0 {
		return errkind.BadInput("explore: axes.tau_in min/max must be non-negative")
	}
	if ax.Min > 0 && ax.Max > 0 && ax.Max < ax.Min {
		return errkind.BadInput("explore: axes.tau_in range [%g, %g] is empty", ax.Min, ax.Max)
	}
	if ax.Points < 0 || ax.Points > 100000 {
		return errkind.BadInput("explore: axes.tau_in points %d out of range [0,100000]", ax.Points)
	}
	if r.Tolerance < 0 {
		return errkind.BadInput("explore: tolerance must be non-negative")
	}
	if r.Mode() == ExploreModePareto && r.Execute {
		return errkind.BadInput("explore: execute applies to grid mode only")
	}
	if err := checkInvocations("explore", r.Invocations); err != nil {
		return err
	}
	if p := r.Axes.Placement; p != nil {
		if p.AnnealSteps < 0 {
			return errkind.BadInput("explore: axes.placement.anneal_steps must be non-negative, got %d", p.AnnealSteps)
		}
		// A name resolves with the problem's alloc_seed to one placement,
		// so a repeat would only repeat its work (an anneal each).
		for i, a := range p.Allocators {
			switch a {
			case "rr", "greedy", "random", "anneal":
			default:
				return errkind.BadInput("explore: unknown placement allocator %q (want rr, greedy, random or anneal)", a)
			}
			if slices.Contains(p.Allocators[:i], a) {
				return errkind.BadInput("explore: placement allocator %q named twice", a)
			}
		}
	}
	return nil
}

// ParetoPoint is one schedule on the explored front: a deployable
// (placement, period, window) triple with its latency and fabric
// footprint. All objective fields are minimized.
type ParetoPoint struct {
	// Placement indexes ExploreResult.Placements.
	Placement int `json:"placement"`
	// TauIn is the invocation period in µs; Load is τc/τin.
	TauIn float64 `json:"tau_in"`
	Load  float64 `json:"load"`
	// Window is the message window the point was solved with — the
	// latency-minimal feasible window when "latency" is an objective.
	Window float64 `json:"window"`
	// Latency is the windowed pipeline latency Λw in µs.
	Latency float64 `json:"latency"`
	// Links is the distinct physical links routed over; Buffers is the
	// buffer-slot count (nonzero message-interval reservations).
	Links   int `json:"links"`
	Buffers int `json:"buffers"`
	// Peak is the post-AssignPaths peak link utilization.
	Peak float64 `json:"peak"`
}

// PlacementOutcome reports one candidate placement's period search.
type PlacementOutcome struct {
	// Source says where the candidate came from: "problem" (the
	// request's own placement), "allocator:NAME", or "anneal:SEED".
	Source string `json:"source"`
	// Feasible reports whether any period in range scheduled; MinTauIn
	// is the bisected minimal feasible period when it did (Pareto mode).
	Feasible bool    `json:"feasible"`
	MinTauIn float64 `json:"min_tau_in,omitempty"`
}

// ExploreResult is the outcome of one exploration. Grid mode fills
// Points (and Winners when a placement axis was given); Pareto mode
// fills MinTauIn, Objectives, Placements, Evaluated and Front.
type ExploreResult struct {
	SchemaVersion int     `json:"schema_version"`
	Mode          string  `json:"mode"`
	TauC          float64 `json:"tau_c"`
	TauM          float64 `json:"tau_m"`

	// MinTauIn is the smallest feasible period found across all
	// placements (Pareto mode; 0 when nothing scheduled).
	MinTauIn float64 `json:"min_tau_in,omitempty"`
	// Objectives echoes the resolved objective set (Pareto mode).
	Objectives []string `json:"objectives,omitempty"`
	// Placements are the candidate placements in evaluation order.
	Placements []PlacementOutcome `json:"placements,omitempty"`
	// Evaluated counts the feasible schedules considered before
	// domination filtering (Pareto mode).
	Evaluated int `json:"evaluated,omitempty"`
	// Front is the non-dominated set, deterministically ordered.
	Front []ParetoPoint `json:"front,omitempty"`

	// Points are the grid-mode samples, one per τin axis point.
	Points []SweepPoint `json:"points,omitempty"`
	// Winners, parallel to Points, is the winning placement index per
	// point when a placement axis was explored in grid mode (feasible
	// beats infeasible, then lower peak — the best-allocation order).
	Winners []int `json:"winners,omitempty"`

	// Trace is the exploration's span tree, attached only under
	// ?debug=trace; last field for the same strip-and-compare reason as
	// ScheduleResult.Trace.
	Trace *TraceEnvelope `json:"trace,omitempty"`
}
