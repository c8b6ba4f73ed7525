package service

import (
	"fmt"
	"sync"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/pkg/schedroute"
)

// Multi-tenant admission (v2): POST /v1/admit runs the co-scheduler's
// admission check and, on success, registers the tenant so its later
// /v1/schedule, /v1/repair and /v1/watch requests are answered from
// its admitted standing (call.tenant) instead of a fresh solve.
// Tenants naming the same topology spec share one fabric (one
// schedule.TenantSet); the fabric's link-bandwidth reservations are
// what make an admission unable to perturb the tenants already in.

// fabric is one shared machine: every tenant admitted against the same
// topology spec lands in the same TenantSet and competes for the same
// link shares. Bandwidth is pinned by the first admission — a reserved
// link share is a fraction of the physical link, which is only
// meaningful when everyone agrees what the physical link carries.
type fabric struct {
	topoSpec  string
	bandwidth float64
	set       *schedule.TenantSet
}

// tenantEntry is the service-side record of one admitted tenant: the
// built problem (for wire conversions), the admission outcome, and the
// fabric it lives on.
type tenantEntry struct {
	built  *schedroute.Built
	tenant schedroute.Tenant
	report *schedule.AdmitReport
	// structure is the admitted problem's StructureKey; tenant-scoped
	// requests must name the same problem they were admitted with.
	structure string
	fab       *fabric
}

// tenantRegistry maps tenant IDs to their admitted standing. An ID is
// held by one fabric at a time: admitting serializes admissions across
// fabrics, so the check that refuses an ID held elsewhere and the
// commit after the ladder see the same index (within a fabric the
// TenantSet serializes them anyway). mu only guards the maps.
type tenantRegistry struct {
	admitting sync.Mutex

	mu      sync.Mutex
	fabrics map[string]*fabric
	tenants map[string]*tenantEntry
}

func newTenantRegistry() *tenantRegistry {
	return &tenantRegistry{fabrics: map[string]*fabric{}, tenants: map[string]*tenantEntry{}}
}

func (tr *tenantRegistry) lookup(id string) *tenantEntry {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.tenants[id]
}

// fabricFor returns (creating if needed) the fabric for a built
// problem, enforcing the equal-bandwidth contract.
func (tr *tenantRegistry) fabricFor(b *schedroute.Built) (*fabric, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fab := tr.fabrics[b.Spec.Topology]
	if fab == nil {
		fab = &fabric{
			topoSpec:  b.Spec.Topology,
			bandwidth: b.Spec.Bandwidth,
			set:       schedule.NewTenantSet(b.Topology),
		}
		tr.fabrics[b.Spec.Topology] = fab
		return fab, nil
	}
	if fab.bandwidth != b.Spec.Bandwidth {
		return nil, badInput("admit: fabric %q runs at bandwidth %g, request says %g (link shares are fractions of the physical link; all tenants must agree)",
			fab.topoSpec, fab.bandwidth, b.Spec.Bandwidth)
	}
	return fab, nil
}

// commit records an admission, dropping any tenants it evicted, and
// returns how many are now admitted (the /metrics gauge).
func (tr *tenantRegistry) commit(ent *tenantEntry, evicted []string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, id := range evicted {
		delete(tr.tenants, id)
	}
	tr.tenants[ent.tenant.ID] = ent
	return len(tr.tenants)
}

// admit is POST /v1/admit: run the admission ladder for one candidate
// tenant and reserve its link shares on success. A rejection is 422
// admission_rejected with the full admission report riding on the
// error; tenants already in the fabric are untouched either way.
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
	fab, err := s.tenants.fabricFor(b)
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
	s.tenants.admitting.Lock()
	defer s.tenants.admitting.Unlock()
	// The index holds one entry per ID, so a second fabric's entry would
	// overwrite the first and leave its link shares reserved with no way
	// to reach or release them. (The same fabric says "already admitted".)
	if held := s.tenants.lookup(ten.ID); held != nil && held.fab != fab {
		return nil, badInput("admit: tenant %q is already admitted on fabric %q", ten.ID, held.fab.topoSpec)
	}
	report, err := fab.set.Admit(c.r.Context(), cand, c.root)
	if err != nil {
		return nil, err
	}
	s.metrics.add(mAdmissions, 1, report.Outcome.String())
	s.metrics.add(mTenantEvictions, int64(len(report.Evicted)))
	wire, err := schedroute.NewAdmitResult(b, report, req.IncludeOmega)
	if err != nil {
		return nil, err
	}
	if !report.Admitted {
		return nil, &reportError{err: report.Err(), admit: wire}
	}
	n := s.tenants.commit(&tenantEntry{
		built:     b,
		tenant:    ten,
		report:    report,
		structure: c.key,
		fab:       fab,
	}, report.Evicted)
	s.metrics.set(mTenants, int64(n))
	return wire, nil
}

// tenantSchedule answers a tenant-scoped /v1/schedule from the
// tenant's standing at the fabric's current state: the admitted (or
// repaired) schedule, at the granted τout — never a fresh solve, which
// is exactly why serving it cannot disturb anyone.
func (s *Server) tenantSchedule(ent *tenantEntry, includeOmega, wantStats bool) (*schedroute.ScheduleResult, error) {
	st := ent.fab.set.Lookup(ent.tenant.ID)
	if st == nil || st.Current == nil {
		return nil, errkind.Mark(
			fmt.Errorf("tenant %q has no schedule in force at the current fault state", ent.tenant.ID),
			errkind.ErrInfeasibleRepair)
	}
	return schedroute.NewScheduleResult(ent.built, st.Current, ent.report.TauOut, includeOmega, wantStats)
}
