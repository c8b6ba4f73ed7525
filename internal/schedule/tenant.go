package schedule

import (
	"context"
	"fmt"
	"sync"

	"schedroute/internal/errkind"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// This file implements multi-tenant co-scheduling with QoS guarantees
// (DESIGN §10): several independently owned problems share one fabric
// through per-tenant link-bandwidth reservations in the guaranteed-rate
// TDM link-sharing model of Even & Fais. Each admitted tenant owns a
// share of every link it crosses; a candidate is admitted only if it
// fits inside the residual shares, so admission can never perturb an
// admitted tenant's Ω — the already-emitted schedules are simply never
// re-solved.

// Tenant is one co-scheduling candidate: a complete scheduling problem
// plus its QoS contract.
type Tenant struct {
	// ID names the tenant; unique within a TenantSet.
	ID string
	// Priority orders eviction: a candidate may evict admitted tenants
	// of strictly lower priority when it does not fit otherwise. Higher
	// means more important; the default 0 evicts nobody and is evicted
	// first.
	Priority int
	// RateGuarantee is the minimum acceptable output-rate fraction
	// τin/τout in (0, 1]: the degraded-rate admission rung only tries
	// period factors f with 1/f >= RateGuarantee. 0 means best-effort
	// (every rung is acceptable); 1 demands the full requested rate.
	RateGuarantee float64
	// Problem is the tenant's scheduling problem; Problem.TauIn is the
	// requested invocation period. Problem.Faults must be nil (a tenant
	// is admitted on the healthy machine; faults are RepairTenant's
	// what-ifs) and Options.LinkCap is owned by the TenantSet.
	Problem Problem
	// Options tunes the tenant's solves (seed, engine, retries, ...).
	Options Options
}

// AdmitOutcome names the admission rung that accepted (or rejected) a
// candidate tenant.
type AdmitOutcome int

const (
	// AdmitReserved: the candidate fits the residual shares at its
	// requested rate and window.
	AdmitReserved AdmitOutcome = iota
	// AdmitDegradedWindow: admitted only with widened message windows
	// (latency grows; the output rate is preserved).
	AdmitDegradedWindow
	// AdmitDegradedRate: admitted only at a longer invocation period
	// compatible with the tenant's RateGuarantee.
	AdmitDegradedRate
	// AdmitRejected: no rung fit, even after any permitted evictions.
	AdmitRejected
)

// String names the outcome.
func (o AdmitOutcome) String() string {
	switch o {
	case AdmitReserved:
		return "reserved"
	case AdmitDegradedWindow:
		return "degraded-window"
	case AdmitDegradedRate:
		return "degraded-rate"
	case AdmitRejected:
		return "rejected"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// AdmitReport is the typed outcome of one admission attempt.
type AdmitReport struct {
	TenantID string
	Admitted bool
	Outcome  AdmitOutcome
	// TauOut is the granted output period (> the requested τin exactly
	// when Outcome is AdmitDegradedRate; 0 when rejected).
	TauOut float64
	// WindowScale is the window widening factor applied (1 unless
	// Outcome is AdmitDegradedWindow).
	WindowScale float64
	// Peak is the admitted schedule's peak utilization relative to the
	// residual shares the candidate solved against; for a rejection it
	// is the best (lowest) peak any rung reached.
	Peak float64
	// Evicted lists tenants preempted to make room, in eviction order.
	Evicted []string
	// BottleneckLink and BottleneckShare describe the tightest link of
	// the residual the candidate solved against (the link with the
	// least capacity left), for capacity-planning diagnostics.
	BottleneckLink  topology.LinkID
	BottleneckShare float64
	// Reason carries a one-line diagnosis for rejections.
	Reason string
	// Result is the admitted schedule; nil when rejected.
	Result *Result
}

// Err returns a typed admission-rejected error when the candidate was
// not admitted, and nil otherwise.
func (r *AdmitReport) Err() error {
	if r.Admitted {
		return nil
	}
	return errkind.Mark(
		fmt.Errorf("schedule: tenant %q rejected: %s", r.TenantID, r.Reason),
		errkind.ErrAdmissionRejected)
}

// TenantState is one admitted tenant's standing within a TenantSet. It
// never changes after the admission that committed it.
type TenantState struct {
	Tenant Tenant
	// Report is the admission report that admitted this tenant.
	Report *AdmitReport
	// Base is the admitted schedule.
	Base *Result
	// Reserve[j] is the bandwidth fraction of link j reserved for this
	// tenant: the raw per-link utilization of its admitted schedule.
	Reserve []float64

	// session answers RepairTenant from Base, inside the residual shares
	// the tenant was admitted against.
	session *RepairSession
}

// TenantRepair reports one tenant's standing at a queried fault state.
type TenantRepair struct {
	TenantID string
	// MemoHit is true when the session answered from its fault-keyed
	// memo without running the ladder.
	MemoHit bool
	Report  *RepairReport
}

// TenantSet co-schedules tenants onto one shared fabric. Admission is
// serialized; admitted tenants are never re-solved by later admissions
// or rejections, so after any sequence of admit/reject/release events an
// admitted tenant's Ω is exactly the Ω it would hold had it been the
// only tenant solved against the same residual (for the first admitted
// tenant the residual is the whole machine, making its Ω byte-identical
// to a solo solve).
type TenantSet struct {
	nl int // links in the shared fabric

	// admitting serializes Admit and Release, the only writers of
	// admitted; mu guards admitted and is held only to read it or to
	// commit, never across a ladder, so Lookup and RepairTenant do not
	// wait for an admission to finish.
	admitting sync.Mutex
	mu        sync.Mutex
	admitted  []*TenantState // admission order
}

// NewTenantSet creates an empty set over a fabric with the given
// topology. Every tenant's Problem.Topology must have the same link
// count (tenants address the shared links by LinkID).
func NewTenantSet(top *topology.Topology) *TenantSet {
	return &TenantSet{nl: top.Links()}
}

// Tenants snapshots the admitted tenants in admission order.
func (ts *TenantSet) Tenants() []*TenantState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]*TenantState(nil), ts.admitted...)
}

// Lookup returns the admitted tenant with the given ID, or nil.
func (ts *TenantSet) Lookup(id string) *TenantState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.lookupLocked(id)
}

func (ts *TenantSet) lookupLocked(id string) *TenantState {
	for _, st := range ts.admitted {
		if st.Tenant.ID == id {
			return st
		}
	}
	return nil
}

// residualOf computes the capacity left on every link by the given
// tenants' reservations, clamped to [0, 1]. It returns nil when
// nothing is reserved — the whole-machine fast path, which keeps the
// first admission bit-identical to a solo solve.
func residualOf(nl int, admitted []*TenantState) []float64 {
	any := false
	res := make([]float64, nl)
	for j := range res {
		res[j] = 1
	}
	for _, st := range admitted {
		for j, r := range st.Reserve {
			if r > 0 {
				any = true
				res[j] -= r
				if res[j] < 0 {
					res[j] = 0
				}
			}
		}
	}
	if !any {
		return nil
	}
	return res
}

// bottleneck reports the tightest link of a residual vector.
func bottleneck(res []float64) (topology.LinkID, float64) {
	if res == nil {
		return 0, 1
	}
	link, share := topology.LinkID(0), res[0]
	for j := 1; j < len(res); j++ {
		if res[j] < share {
			link, share = topology.LinkID(j), res[j]
		}
	}
	return link, share
}

// reserveOf extracts the raw per-link bandwidth shares a schedule
// occupies — the reservation an admitted tenant holds: ComputeUtilization's
// LinkU, read off a pooled arena's LoadState, so the slice it returns is
// all it allocates.
func reserveOf(top *topology.Topology, r *Result) []float64 {
	a := arenaPool.Get().(*solveArena)
	defer arenaPool.Put(a)
	return a.loadState(top, r.Assignment, r.Windows, r.Activity, nil).linkU()
}

// Admit runs the admission check for one candidate tenant: solve the
// candidate against the residual capacity left by the admitted
// tenants, descending the degradation ladder — requested rate and
// window, widened windows, reduced rate (bounded by the candidate's
// RateGuarantee) — and, when even that fails, evict strictly
// lower-priority tenants one at a time (lowest priority first, later
// admissions first among equals) and retry. Admitted tenants that
// survive are untouched: their Ω, reservation, and repair sessions are
// exactly as admitted. The returned report is also recorded in the set
// when the candidate is admitted; a rejection leaves the set exactly
// as it was (evictions are rolled back). Admissions wait for each other
// and for Release; Lookup, Tenants and RepairTenant never wait for one.
//
// tr, when non-nil, receives one "admit" span with children naming the
// admission stages: "admit_residual" per residual computation,
// "admit_rung" per ladder attempt, "admit_evict" per preemption, and
// "admit_reserve" when the reservation is committed.
func (ts *TenantSet) Admit(ctx context.Context, t Tenant, tr *trace.Span) (*AdmitReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.ID == "" {
		return nil, errkind.BadInput("schedule: tenant needs an ID")
	}
	if t.RateGuarantee < 0 || t.RateGuarantee > 1 {
		return nil, errkind.BadInput("schedule: tenant %q: rate guarantee %g outside (0, 1]", t.ID, t.RateGuarantee)
	}
	if t.Problem.Topology == nil || t.Problem.Topology.Links() != ts.nl {
		return nil, errkind.BadInput("schedule: tenant %q: topology does not match the shared fabric", t.ID)
	}
	if t.Options.LinkCap != nil {
		return nil, errkind.BadInput("schedule: tenant %q: Options.LinkCap is owned by the tenant set", t.ID)
	}
	if t.Problem.Faults != nil {
		return nil, errkind.BadInput("schedule: tenant %q: Problem.Faults must be nil (a tenant is admitted on the healthy machine)", t.ID)
	}

	// Only Admit and Release write ts.admitted, under ts.admitting: the
	// snapshot stays current until the commit below.
	ts.admitting.Lock()
	defer ts.admitting.Unlock()
	ts.mu.Lock()
	survivors, held := ts.admitted, ts.lookupLocked(t.ID) != nil
	ts.mu.Unlock()
	if held {
		return nil, errkind.BadInput("schedule: tenant %q already admitted", t.ID)
	}

	sp := tr.Start(SpanAdmit, trace.String("tenant", t.ID), trace.Int("priority", t.Priority))
	defer sp.End()

	// One Solver spans every rung and eviction retry of this call, and no
	// longer: a later Admit under the same ID may bring another problem.
	solver := NewSolver(t.Problem)
	rungs := admitRungs(t)

	report := &AdmitReport{TenantID: t.ID, WindowScale: 1}
	var evicted []string

	for {
		rs := sp.Start(SpanAdmitResidual, trace.Int("tenants", len(survivors)))
		residual := residualOf(ts.nl, survivors)
		bl, bs := bottleneck(residual)
		rs.SetAttrs(trace.Float64("bottleneck_share", bs), trace.Int("bottleneck_link", int(bl)))
		rs.End()
		report.BottleneckLink, report.BottleneckShare = bl, bs

		res, err := admitLadder(ctx, solver, t, rungs, residual, sp, report)
		if err != nil {
			return nil, err
		}
		if res != nil {
			st := &TenantState{Tenant: t, Report: report, Base: res}
			rsv := sp.Start(SpanAdmitReserve)
			st.Reserve = reserveOf(t.Problem.Topology, res)
			sessP := t.Problem
			sessP.TauIn = report.TauOut
			sessO := t.Options
			sessO.LinkCap = residual
			sessO.Window = admitWindow(t, report.WindowScale)
			st.session, err = NewRepairSession(sessP, sessO, res)
			rsv.End()
			if err != nil {
				return nil, err
			}
			report.Admitted = true
			report.Evicted = evicted
			report.Result = res
			ts.mu.Lock()
			ts.admitted = append(survivors, st)
			ts.mu.Unlock()
			sp.SetAttrs(trace.Bool("admitted", true), trace.String("outcome", report.Outcome.String()))
			return report, nil
		}

		// Eviction rung: preempt the weakest strictly-lower-priority
		// survivor and retry the whole ladder against the freed shares.
		victim := -1
		for i, st := range survivors {
			if st.Tenant.Priority >= t.Priority {
				continue
			}
			if victim < 0 ||
				st.Tenant.Priority < survivors[victim].Tenant.Priority ||
				(st.Tenant.Priority == survivors[victim].Tenant.Priority && i > victim) {
				victim = i
			}
		}
		if victim < 0 {
			report.Outcome = AdmitRejected
			report.TauOut = 0
			if report.Reason == "" {
				report.Reason = fmt.Sprintf("no admission rung fits the residual fabric (bottleneck link %d has share %.3g)", bl, bs)
			}
			sp.SetAttrs(trace.Bool("admitted", false), trace.String("reason", report.Reason))
			return report, nil
		}
		ev := sp.Start(SpanAdmitEvict, trace.String("tenant", survivors[victim].Tenant.ID),
			trace.Int("priority", survivors[victim].Tenant.Priority))
		ev.End()
		evicted = append(evicted, survivors[victim].Tenant.ID)
		pruned := make([]*TenantState, 0, len(survivors)-1)
		pruned = append(pruned, survivors[:victim]...)
		pruned = append(pruned, survivors[victim+1:]...)
		survivors = pruned
	}
}

// admitWindow is the message-window length rung attempts use: the
// tenant's configured window (default τc) times the widening scale.
func admitWindow(t Tenant, scale float64) float64 {
	return t.Options.window(t.Problem.Timing) * scale
}

// admitRungs lists the candidate's degradation ladder: the requested
// rate and window, then widened windows (latency degrades, τout
// preserved; a scale whose window would outgrow the period is dropped),
// then reduced rates as far as the tenant's RateGuarantee allows.
func admitRungs(t Tenant) []rung {
	tauIn := t.Problem.TauIn
	rungs := []rung{{int(AdmitReserved), tauIn, admitWindow(t, 1), 1}}
	for _, scale := range windowScales {
		if w := admitWindow(t, scale); w <= tauIn {
			rungs = append(rungs, rung{int(AdmitDegradedWindow), tauIn, w, scale})
		}
	}
	for _, f := range rateFactors {
		if t.RateGuarantee > 0 && 1/f < t.RateGuarantee-timeEps {
			break // factors grow monotonically; later ones are worse
		}
		rungs = append(rungs, rung{int(AdmitDegradedRate), tauIn * f, admitWindow(t, 1), 1})
	}
	return rungs
}

// admitLadder descends the degradation ladder for one candidate
// against one residual. It returns the first feasible result (filling
// the report's outcome fields), or nil when every rung was rejected.
func admitLadder(ctx context.Context, solver *Solver, t Tenant, rungs []rung, residual []float64, sp *trace.Span, report *AdmitReport) (*Result, error) {
	o := t.Options
	o.LinkCap = residual
	tried, err := walkRungs(ctx, solver, o, rungs, func(rg rung) *trace.Span {
		return sp.Start(SpanAdmitRung, trace.String("rung", AdmitOutcome(rg.kind).String()),
			trace.Float64("tau_out", rg.tauOut), trace.Float64("window_scale", rg.scale))
	})
	if err != nil {
		return nil, err
	}
	rg, last := rungs[len(tried)-1], tried[len(tried)-1]
	if last.Feasible {
		report.Outcome = AdmitOutcome(rg.kind)
		report.TauOut = rg.tauOut
		report.WindowScale = rg.scale
		report.Peak = last.Peak
		report.Reason = "" // an earlier eviction round's reason no longer applies
		return last, nil
	}
	report.Reason = fmt.Sprintf("rung %s rejected at stage %s", AdmitOutcome(rg.kind), last.FailStage)
	report.Peak = last.Peak
	for _, r := range tried {
		if r.Peak < report.Peak {
			report.Peak = r.Peak
		}
	}
	return nil, nil
}

// Release removes an admitted tenant, freeing its reservations. The
// remaining tenants are untouched. It reports whether the tenant was
// present.
func (ts *TenantSet) Release(id string) bool {
	ts.admitting.Lock()
	defer ts.admitting.Unlock()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i, st := range ts.admitted {
		if st.Tenant.ID == id {
			ts.admitted = append(ts.admitted[:i:i], ts.admitted[i+1:]...)
			return true
		}
	}
	return false
}

// RepairTenant evaluates one admitted tenant at an arbitrary fault
// state — a what-if that moves nothing: not the tenant's standing, not
// anyone else's. The ladder runs from the tenant's admitted base inside
// its admission-time link shares, memoized per fault state by the
// tenant's session, so the answer depends only on (the tenant's base,
// the queried faults) — not on the other tenants or on query order.
func (ts *TenantSet) RepairTenant(ctx context.Context, id string, fs *topology.FaultSet, tr *trace.Span) (*TenantRepair, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := ts.Lookup(id)
	if st == nil {
		return nil, errkind.Mark(fmt.Errorf("schedule: tenant %q not admitted", id), errkind.ErrNotFound)
	}
	rep, hit, err := st.session.Apply(ctx, fs, tr)
	if err != nil {
		return nil, err
	}
	return &TenantRepair{TenantID: id, MemoHit: hit, Report: rep}, nil
}
