package service

import (
	"sync"
	"sync/atomic"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/pkg/schedroute"
)

// Multi-tenant admission (v2): POST /v1/admit runs the co-scheduler's
// admission check and, on success, registers the tenant so its later
// /v1/schedule, /v1/repair and /v1/watch requests are answered from
// its admitted standing (call.tenant) instead of a fresh solve.
// The daemon schedules one machine: every tenant shares one fabric (one
// schedule.TenantSet), whose link-bandwidth reservations are what make
// an admission unable to perturb the tenants already in.

// maxTenants bounds the registry: past it an admission is refused as
// unavailable before its ladder runs.
const maxTenants = 1024

// fabric is the daemon's machine. Its topology spec and bandwidth are
// pinned by the first admitted tenant — a reserved link share is a
// fraction of the physical link, which is only meaningful when everyone
// agrees what the physical link is and carries.
type fabric struct {
	topoSpec  string
	bandwidth float64
	set       *schedule.TenantSet
}

// tenantEntry is the service-side record of one admitted tenant: the
// built problem (for wire conversions) and the admission outcome.
type tenantEntry struct {
	built  *schedroute.Built
	tenant schedroute.Tenant
	report *schedule.AdmitReport
	// structure is the admitted problem's StructureKey; tenant-scoped
	// requests must name the same problem they were admitted with.
	structure string
}

// tenantRegistry maps tenant IDs to their admitted standing on the
// daemon's one fabric. fab is nil until the first admission commits and
// never changes after; mu guards tenants.
type tenantRegistry struct {
	fab     atomic.Pointer[fabric]
	mu      sync.Mutex
	tenants map[string]*tenantEntry
}

func newTenantRegistry() *tenantRegistry {
	return &tenantRegistry{tenants: map[string]*tenantEntry{}}
}

func (tr *tenantRegistry) lookup(id string) *tenantEntry {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.tenants[id]
}

// fabricFor returns the fabric a candidate for a built problem runs its
// ladder on: the daemon's, which it must match, or — while no tenant is
// admitted — a fabric of its own, which commit pins if it is admitted.
func (tr *tenantRegistry) fabricFor(b *schedroute.Built, limit int) (*fabric, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.tenants) >= limit {
		return nil, unavailable("admit: the daemon holds %d tenants, its limit", limit)
	}
	fab := tr.fab.Load()
	switch {
	case fab == nil:
		return &fabric{topoSpec: b.Spec.Topology, bandwidth: b.Spec.Bandwidth, set: schedule.NewTenantSet(b.Topology)}, nil
	case fab.topoSpec != b.Spec.Topology:
		return nil, errkind.BadInput("admit: the daemon's fabric is %q, request says %q (one topology per daemon)", fab.topoSpec, b.Spec.Topology)
	case fab.bandwidth != b.Spec.Bandwidth:
		return nil, errkind.BadInput("admit: fabric %q runs at bandwidth %g, request says %g (link shares are fractions of the physical link; all tenants must agree)",
			fab.topoSpec, fab.bandwidth, b.Spec.Bandwidth)
	}
	return fab, nil
}

// commit records an admission on fab, pinning it as the daemon's fabric
// if none is, and returns how many tenants are now admitted (the
// /metrics gauge). It reports false, recording nothing, when another
// fabric was pinned while this admission ran. Admissions commit in
// whatever order their requests finish, so the index is reconciled with
// what the set holds now: an entry whose admission the set no longer
// holds — one this admission evicted, or this one, evicted by a later
// admission that committed first — is dropped.
func (tr *tenantRegistry) commit(fab *fabric, ent *tenantEntry) (int, bool) {
	if !tr.fab.CompareAndSwap(nil, fab) && tr.fab.Load() != fab {
		return 0, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.tenants[ent.tenant.ID] = ent
	standing := map[*schedule.AdmitReport]bool{}
	for _, st := range fab.set.Tenants() {
		standing[st.Report] = true
	}
	for id, e := range tr.tenants {
		if !standing[e.report] {
			delete(tr.tenants, id)
		}
	}
	return len(tr.tenants), true
}

// admit is POST /v1/admit: run the admission ladder for one candidate
// tenant and reserve its link shares on success. A rejection is 422
// admission_rejected with the full admission report riding on the
// error; tenants already in the fabric are untouched either way, and a
// rejection on a daemon with no tenant leaves no fabric behind.
func (s *Server) admit(c *call, req schedroute.AdmitRequest) (*schedroute.AdmitResult, error) {
	ten := schedroute.TenantOrDefault(req.Tenant)
	if err := ten.Validate(); err != nil {
		return nil, err
	}
	c.tenantID = ten.ID
	if err := c.queue(); err != nil {
		return nil, err
	}
	defer s.release()

	// The structure cache is shared with /v1/schedule: admitting a
	// tenant for a problem someone already solved reuses its Built.
	ent, tauIn, err := c.structure(req.Problem)
	if err != nil {
		return nil, err
	}
	b := ent.built
	fab, err := s.tenants.fabricFor(b, s.maxTenants)
	if err != nil {
		return nil, err
	}
	opts, err := req.Options.ToSchedule()
	if err != nil {
		return nil, err
	}

	cand := schedule.Tenant{
		ID:            ten.ID,
		Priority:      ten.Priority,
		RateGuarantee: ten.RateGuarantee,
		Problem:       b.ScheduleProblemAt(tauIn),
		Options:       opts,
	}
	for {
		report, err := fab.set.Admit(c.r.Context(), cand, c.root)
		if err != nil {
			return nil, err
		}
		s.metrics.add(mAdmissions, 1, report.Outcome.String())
		wire, err := schedroute.NewAdmitResult(b, report, req.IncludeOmega)
		if err != nil {
			return nil, err
		}
		if !report.Admitted {
			return nil, &reportError{err: report.Err(), admit: wire}
		}
		entry := &tenantEntry{built: b, tenant: ten, report: report, structure: c.key}
		if n, ok := s.tenants.commit(fab, entry); ok {
			s.metrics.add(mTenantEvictions, int64(len(report.Evicted)))
			s.metrics.set(mTenants, int64(n))
			return wire, nil
		}
		// A concurrent first admission pinned another fabric while this
		// one ran on a fabric of its own: run again on the daemon's, or
		// be refused by it.
		if fab, err = s.tenants.fabricFor(b, s.maxTenants); err != nil {
			return nil, err
		}
	}
}
