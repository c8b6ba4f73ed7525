// Package schedroute is the stable public API facade of the
// scheduled-routing reproduction: the wire-level request and response
// types shared by the srschedd HTTP service and the command-line tools,
// plus the spec parsers and builders that turn a wire Problem into the
// internal solver inputs.
//
// Everything here carries explicit JSON tags and a schema_version, so a
// saved request, a service response, and a CLI invocation all speak the
// same versioned vocabulary. The internal packages stay free to evolve;
// this package is the compatibility surface.
package schedroute

import (
	"encoding/json"
	"fmt"
	"time"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/trace"
)

// SchemaVersion is the wire schema this build speaks. Requests may
// carry 0 (meaning "current"), SchemaVersionV1, or this exact value;
// responses always carry it. Unknown versions are rejected with an
// errkind.ErrUnknownVersion error.
//
// v2 added the tenant dimension: a Tenant block on schedule, repair,
// sweep, watch and batch requests, the /v1/admit vocabulary, and the
// Detail/Admit fields of ErrorResponse. Every v1 payload is a valid v2
// payload — an absent Tenant means the default tenant — so v1 clients
// round-trip unchanged.
const SchemaVersion = 2

// SchemaVersionV1 is the tenant-less wire schema. Requests carrying it
// are accepted and read as the default tenant's.
const SchemaVersionV1 = 1

// CheckSchemaVersion validates a request's schema_version field.
func CheckSchemaVersion(v int) error {
	if v != 0 && v != SchemaVersion && v != SchemaVersionV1 {
		return errkind.Mark(
			fmt.Errorf("schedroute: schema_version %d not supported (this build speaks %d and accepts %d)",
				v, SchemaVersion, SchemaVersionV1),
			errkind.ErrUnknownVersion)
	}
	return nil
}

// DefaultTenantID is the tenant every v1 (or tenant-less v2) request
// belongs to. It exists so the tenant dimension is total: metrics
// labels, batch group keys and admission registries never need a
// "no tenant" case.
const DefaultTenantID = "default"

// Tenant identifies the owner of a request in the multi-tenant
// co-scheduler and carries its QoS contract. Absent (nil) on a request
// it means the default tenant with no guarantee — exactly the v1
// semantics.
type Tenant struct {
	// ID names the tenant. Empty is normalized to DefaultTenantID.
	ID string `json:"id,omitempty"`
	// Priority orders the admission eviction ladder: a candidate may
	// evict only tenants with strictly lower priority. Default 0.
	Priority int `json:"priority,omitempty"`
	// RateGuarantee is the minimum acceptable output rate as a fraction
	// of the requested rate, in (0, 1]: admission may degrade the
	// tenant's rate to no less than RateGuarantee·(1/τin). 0 means no
	// guarantee (any degradation rung is acceptable).
	RateGuarantee float64 `json:"rate_guarantee,omitempty"`
}

// TenantOrDefault resolves an optional wire tenant to its effective
// value: nil or an empty ID becomes the default tenant.
func TenantOrDefault(t *Tenant) Tenant {
	if t == nil {
		return Tenant{ID: DefaultTenantID}
	}
	out := *t
	if out.ID == "" {
		out.ID = DefaultTenantID
	}
	return out
}

// Validate checks a wire tenant's QoS fields.
func (t Tenant) Validate() error {
	if t.RateGuarantee < 0 || t.RateGuarantee > 1 {
		return errkind.BadInput("tenant %q: rate_guarantee must be in [0, 1], got %g",
			t.ID, t.RateGuarantee)
	}
	return nil
}

// Problem is the wire form of a scheduling problem: the application,
// the machine, and the invocation period, all as specs the builders in
// this package resolve. The zero values select the defaults the CLIs
// have always used (bandwidth 64 bytes/µs, uniform 50 µs tasks,
// round-robin placement, τin = τc).
type Problem struct {
	SchemaVersion int `json:"schema_version,omitempty"`
	// TFG is a generator spec: "dvb:N", "chain:N", "fan:N", "fft:N",
	// "stencil:N" or "layered:seed,widths...,density" — never a path.
	TFG string `json:"tfg,omitempty"`
	// TFGInline carries a tfggen JSON document itself: how a graph in a
	// file travels. Exactly one of TFG and TFGInline must be set.
	TFGInline json.RawMessage `json:"tfg_inline,omitempty"`
	// Topology is a spec like "cube:6", "ghc:4,4,4", "torus:8,8",
	// "mesh:4,4".
	Topology string `json:"topology"`
	// Bandwidth is the link bandwidth in bytes/µs (0 = 64).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Speed is the processor speed in ops/µs (0 = uniform 50 µs tasks).
	Speed float64 `json:"speed,omitempty"`
	// TauIn is the invocation period in µs (0 = τc, maximum load).
	TauIn float64 `json:"tau_in,omitempty"`
	// Allocator places tasks on nodes: "rr" (default), "greedy",
	// "random", or "anneal".
	Allocator string `json:"allocator,omitempty"`
	// AllocSeed drives the "random" and "anneal" allocators.
	AllocSeed int64 `json:"alloc_seed,omitempty"`
}

// Options is the wire form of schedule.Options (the per-solve tuning
// knobs; zero values select the pipeline defaults).
type Options struct {
	Seed     int64 `json:"seed,omitempty"`
	MaxPaths int   `json:"max_paths,omitempty"`
	MaxOuter int   `json:"max_outer,omitempty"`
	MaxInner int   `json:"max_inner,omitempty"`
	// Engine is "auto", "greedy" or "exact"; exact means the LP over
	// maximal sets wherever enumeration stays within 4096 sets, greedy
	// past it.
	Engine           string  `json:"engine,omitempty"`
	Window           float64 `json:"window,omitempty"`
	LSDOnly          bool    `json:"lsd_only,omitempty"`
	SyncMargin       float64 `json:"sync_margin,omitempty"`
	Retries          int     `json:"retries,omitempty"`
	AllowSharedNodes bool    `json:"allow_shared_nodes,omitempty"`
	// CollectStats asks for wall-clock per-stage timings in the result
	// stats (the deterministic counters are reported either way).
	CollectStats bool `json:"collect_stats,omitempty"`
	// Stats is the wire-level alias for CollectStats: `"stats": true`
	// asks the service to return attempts, AssignPaths evaluations, and
	// per-stage times in the response. Either field enables the timings;
	// Stats reads better in hand-written requests.
	Stats bool `json:"stats,omitempty"`
}

// WantStats reports whether the request asked for wall-clock stage
// timings on the wire, under either spelling.
func (o Options) WantStats() bool { return o.Stats || o.CollectStats }

// ToSchedule resolves the wire options into schedule.Options, refusing
// an unknown engine and any count above its limit (MaxPathsLimit and
// its neighbours).
func (o Options) ToSchedule() (schedule.Options, error) {
	for _, f := range [...]struct {
		name     string
		v, limit int
	}{
		{"max_paths", o.MaxPaths, MaxPathsLimit}, {"max_outer", o.MaxOuter, MaxOuterLimit},
		{"max_inner", o.MaxInner, MaxInnerLimit}, {"retries", o.Retries, RetriesLimit},
	} {
		if f.v > f.limit {
			return schedule.Options{}, errkind.BadInput("options: %s %d above the limit %d", f.name, f.v, f.limit)
		}
	}
	out := schedule.Options{
		Seed: o.Seed, MaxPaths: o.MaxPaths, MaxOuter: o.MaxOuter, MaxInner: o.MaxInner,
		Window: o.Window, LSDOnly: o.LSDOnly, SyncMargin: o.SyncMargin, Retries: o.Retries,
		AllowSharedNodes: o.AllowSharedNodes, CollectStats: o.WantStats(),
	}
	switch o.Engine {
	case "", "auto":
		out.Engine = schedule.EngineAuto
	case "greedy":
		out.Engine = schedule.EngineGreedy
	case "exact":
		out.Engine = schedule.EngineExact
	default:
		return out, errkind.BadInput("schedroute: unknown engine %q (want auto, greedy or exact)", o.Engine)
	}
	return out, nil
}

// FaultSpec names failed elements: links as "u-v" node pairs and nodes
// by id.
type FaultSpec struct {
	Links []string `json:"links,omitempty"`
	Nodes []int    `json:"nodes,omitempty"`
}

// Empty reports whether no fault is named.
func (f FaultSpec) Empty() bool { return len(f.Links) == 0 && len(f.Nodes) == 0 }

// ScheduleRequest asks for one schedule computation.
type ScheduleRequest struct {
	Problem Problem `json:"problem"`
	Options Options `json:"options,omitempty"`
	// Tenant scopes the request in the multi-tenant co-scheduler (v2);
	// absent means the default tenant.
	Tenant *Tenant `json:"tenant,omitempty"`
	// IncludeOmega embeds the full Ω artifact (the versioned JSON the
	// -save flag writes) in the response.
	IncludeOmega bool `json:"include_omega,omitempty"`
}

// SolveStats is the wire form of schedule.SolveStats. The wall-clock
// fields are nanoseconds and stay zero unless CollectStats was set.
type SolveStats struct {
	Attempts         int   `json:"attempts"`
	AssignIterations int   `json:"assign_iterations"`
	WindowsNS        int64 `json:"windows_ns,omitempty"`
	AssignNS         int64 `json:"assign_ns,omitempty"`
	AllocateNS       int64 `json:"allocate_ns,omitempty"`
	ScheduleNS       int64 `json:"schedule_ns,omitempty"`
	OmegaNS          int64 `json:"omega_ns,omitempty"`
}

func statsToWire(st schedule.SolveStats) *SolveStats {
	return &SolveStats{
		Attempts:         st.Attempts,
		AssignIterations: st.AssignIterations,
		WindowsNS:        int64(st.WindowsTime / time.Nanosecond),
		AssignNS:         int64(st.AssignTime / time.Nanosecond),
		AllocateNS:       int64(st.AllocateTime / time.Nanosecond),
		ScheduleNS:       int64(st.ScheduleTime / time.Nanosecond),
		OmegaNS:          int64(st.OmegaTime / time.Nanosecond),
	}
}

// ScheduleResult is the stable outcome of one schedule computation.
// An infeasible problem is a valid result (Feasible false, FailStage
// naming the rejecting stage), not an error.
type ScheduleResult struct {
	SchemaVersion int    `json:"schema_version"`
	Feasible      bool   `json:"feasible"`
	FailStage     string `json:"fail_stage,omitempty"`

	TauC  float64 `json:"tau_c"`
	TauM  float64 `json:"tau_m"`
	TauIn float64 `json:"tau_in"`
	Load  float64 `json:"load"`

	PeakLSD float64 `json:"peak_lsd"`
	Peak    float64 `json:"peak"`
	Latency float64 `json:"latency,omitempty"`

	Intervals int `json:"intervals,omitempty"`
	Slices    int `json:"slices,omitempty"`
	// Commands is Ω's switching-command count over every CP. A command
	// spans one or more consecutive slices: one run of a message's
	// transmission at one node.
	Commands int `json:"commands,omitempty"`

	// Omega is the versioned Ω JSON artifact (present only when the
	// request set IncludeOmega and the problem was feasible).
	Omega json.RawMessage `json:"omega,omitempty"`
	Stats *SolveStats     `json:"stats,omitempty"`

	// Trace is the solve's span tree, attached only under ?debug=trace.
	// Deliberately the LAST field: encoding/json emits struct fields in
	// declaration order, so stripping the trailing trace object from a
	// traced response yields exactly the untraced bytes (pinned by
	// TestScheduleDebugTraceGolden).
	Trace *TraceEnvelope `json:"trace,omitempty"`
}

// TraceEnvelope is the schema-versioned wire wrapper around a span
// tree, attached to responses only when the request asked for
// ?debug=trace.
type TraceEnvelope struct {
	SchemaVersion int         `json:"schema_version"`
	Root          *trace.Tree `json:"root"`
}

// NewTraceEnvelope wraps a snapshot for the wire; nil in, nil out.
func NewTraceEnvelope(t *trace.Tree) *TraceEnvelope {
	if t == nil {
		return nil
	}
	return &TraceEnvelope{SchemaVersion: SchemaVersion, Root: t}
}

// RepairRequest asks for a schedule and its repair under a fault: the
// base schedule is computed (or recalled from the service's solver
// cache) for the fault-free problem, then the degradation ladder runs
// against the fault.
type RepairRequest struct {
	Problem Problem   `json:"problem"`
	Options Options   `json:"options,omitempty"`
	Fault   FaultSpec `json:"fault"`
	// Tenant scopes the repair in the multi-tenant co-scheduler (v2);
	// absent means the default tenant.
	Tenant *Tenant `json:"tenant,omitempty"`
	// IncludeOmega embeds the repaired Ω in the response.
	IncludeOmega bool `json:"include_omega,omitempty"`
}

// RepairResult is the wire form of schedule.RepairReport.
type RepairResult struct {
	SchemaVersion int `json:"schema_version"`
	// Outcome is the repair-ladder rung: "unaffected", "incremental",
	// "recomputed", "degraded-window", "degraded-rate", "infeasible".
	Outcome string `json:"outcome"`
	// Stage names the pipeline stage that rejected the final attempt
	// when Outcome is "infeasible".
	Stage       string  `json:"stage,omitempty"`
	Faults      string  `json:"faults"`
	Affected    int     `json:"affected"`
	Rerouted    int     `json:"rerouted"`
	NewPeak     float64 `json:"new_peak"`
	TauOut      float64 `json:"tau_out"`
	WindowScale float64 `json:"window_scale"`
	LostTasks   bool    `json:"lost_tasks,omitempty"`
	Reason      string  `json:"reason,omitempty"`
	// Omega is the repaired Ω (present only when the request set
	// IncludeOmega and the repair succeeded).
	Omega json.RawMessage `json:"omega,omitempty"`
	// Trace is the repair ladder's span tree, attached only under
	// ?debug=trace; last field for the same strip-and-compare reason as
	// ScheduleResult.Trace.
	Trace *TraceEnvelope `json:"trace,omitempty"`
}

// SweepPoint is one τin sample of a grid-mode exploration
// (ExploreResult.Points).
type SweepPoint struct {
	TauIn     float64 `json:"tau_in"`
	Load      float64 `json:"load"`
	Feasible  bool    `json:"feasible"`
	FailStage string  `json:"fail_stage,omitempty"`
	PeakLSD   float64 `json:"peak_lsd"`
	Peak      float64 `json:"peak"`
	Latency   float64 `json:"latency,omitempty"`
	// Executed marks that the emitted Ω was replayed; ThroughputMid is
	// the mid normalized throughput and OI flags output inconsistency.
	Executed      bool    `json:"executed,omitempty"`
	ThroughputMid float64 `json:"throughput_mid,omitempty"`
	OI            bool    `json:"oi,omitempty"`
}

// ErrorEnvelope is the shared {error, kind, detail} triple every
// failure surface emits: top-level error responses, per-item batch
// errors, and watch error frames all derive it from the same errkind
// table, so a client parses one shape everywhere.
type ErrorEnvelope struct {
	// Error is the concrete error message.
	Error string `json:"error"`
	// Kind is the errkind table label ("bad_input",
	// "infeasible_repair", "admission_rejected", "internal", ...).
	Kind string `json:"kind"`
	// Detail is the table's stable one-line description of the kind.
	Detail string `json:"detail,omitempty"`
}

// NewErrorEnvelope classifies err through the errkind table. It is the
// only constructor: every error body in the service funnels through
// here so the three surfaces cannot drift.
func NewErrorEnvelope(err error) ErrorEnvelope {
	c, _ := errkind.Classify(err)
	return ErrorEnvelope{Error: err.Error(), Kind: c.Name, Detail: c.Detail}
}

// ErrorResponse is the JSON body of every non-2xx service response:
// the shared envelope plus the schema header and any structured report
// explaining the rejection.
type ErrorResponse struct {
	SchemaVersion int `json:"schema_version"`
	ErrorEnvelope
	// Repair carries the full degradation-ladder report when an
	// infeasible repair is the reason for the failure status.
	Repair *RepairResult `json:"repair,omitempty"`
	// Admit carries the full admission report when a rejected tenant
	// admission is the reason for the failure status (HTTP 422).
	Admit *AdmitResult `json:"admit,omitempty"`
}
