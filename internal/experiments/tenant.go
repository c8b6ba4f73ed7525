package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"schedroute/internal/alloc"
	"schedroute/internal/parallel"
	"schedroute/internal/schedule"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// Tenant survivability: the two-tenant variant of the single-link
// fault sweep. A bystander tenant is admitted first at a fixed light
// load, then a victim tenant is admitted at each grid load against the
// residual bandwidth. Faults strike only links the victim's paths use
// exclusively, so every repair the ladder performs happens inside the
// victim's reservation — and the sweep checks, per scenario, that the
// bystander's repair at the same fault leaves it unaffected, its Ω
// byte-identical to its admitted one. This is the co-scheduling
// isolation claim of the admission design measured end to end, not
// just asserted in unit tests.
//
// The victim runs the same DVB application placed half a machine away
// (every task's node shifted by N/2). Identical placements cannot
// co-schedule: a distance-1 message has exactly one path — its direct
// link — and the bystander's allocation pins its own direct links at
// share 1, so the victim's forced links must differ. The shift is an
// automorphism on the hypercube (XOR of the top address bit), making
// the victim's workload exactly isomorphic to the bystander's.

// Span names for the tenant sweep (nested under SpanPoint like the
// single-tenant sweep's fault spans).
const SpanTenantSweep = "tenant_survivability_sweep"

// TenantSurvivabilityPoint is one grid load point of the two-tenant
// sweep.
type TenantSurvivabilityPoint struct {
	Load  float64
	TauIn float64

	// VictimOutcome is the victim's admission rung at this load:
	// "reserved", "degraded-window", "degraded-rate", or "rejected".
	VictimOutcome string
	// VictimTauOut is the victim's granted output period (0 when
	// rejected); repairs measure their degradation against it.
	VictimTauOut float64

	// Scenarios is the number of victim-only single-link faults
	// evaluated (links the victim's paths use and the bystander's do
	// not), and the tally the victim's repairs' outcomes. 0 when the
	// victim was rejected or the path sets fully overlap.
	Scenarios int
	LadderTally

	// WorstTauOutRatio is the worst repaired τout over the granted
	// VictimTauOut (1 unless some fault forced a further rate cut).
	WorstTauOutRatio float64

	// BystanderIntact counts scenarios where the bystander came through
	// the victim's fault untouched: repair outcome unaffected and Ω
	// byte-identical to its admitted schedule. The isolation invariant
	// holds exactly when BystanderIntact == Scenarios at every point.
	BystanderIntact int
}

// TenantSurvivabilitySeries is one config's tenant sweep.
type TenantSurvivabilitySeries struct {
	Config string
	// BystanderLoad is the fixed load the bystander was admitted at.
	BystanderLoad float64
	Points        []TenantSurvivabilityPoint
}

// TenantSurvivabilitySweep runs the two-tenant fault sweep. Each load
// point builds its own fabric (a fresh TenantSet): the bystander is
// admitted on the empty machine at the grid's lightest load, the victim
// against the residual at the point's load, and each victim-only link
// is one FaultSet both tenants' RepairTenant what-ifs are asked about.
// Points fan out on cfg.Procs workers.
func TenantSurvivabilitySweep(ctx context.Context, c Config) (*TenantSurvivabilitySeries, error) {
	sw, err := newGridSweep(c, SpanTenantSweep)
	if err != nil {
		return nil, err
	}
	defer sw.end()
	cfg, as, pts, spans, problem := sw.cfg, sw.base.Assignment, sw.pts, sw.spans, sw.problem
	bystanderTauIn := pts[len(pts)-1].TauIn // lightest grid load
	// The admissions already run on the fan-out's workers.
	opts := schedule.Options{Seed: cfg.Seed, Procs: 1}

	// The victim's placement: every task shifted N/2 nodes. Shifting all
	// tasks by one constant preserves one-task-per-node exclusivity.
	n := cfg.Topology.Nodes()
	vicAs := &alloc.Assignment{NodeOf: make([]topology.NodeID, len(as.NodeOf))}
	for t, nd := range as.NodeOf {
		vicAs.NodeOf[t] = topology.NodeID((int(nd) + n/2) % n)
	}

	series := &TenantSurvivabilitySeries{
		Config:        cfg.Name,
		BystanderLoad: sw.base.Timing.TauC() / bystanderTauIn,
		Points:        make([]TenantSurvivabilityPoint, len(pts)),
	}
	err = parallel.ForEach(ctx, len(pts), parallel.Workers(cfg.Procs), func(pi int) error {
		defer spans[pi].End()
		pt := TenantSurvivabilityPoint{Load: pts[pi].Load, TauIn: pts[pi].TauIn, WorstTauOutRatio: 1}
		set := schedule.NewTenantSet(cfg.Topology)

		bys, err := set.Admit(ctx, schedule.Tenant{
			ID: "bystander", Priority: 1,
			Problem: problem(bystanderTauIn, as), Options: opts,
		}, spans[pi])
		if err != nil {
			return fmt.Errorf("experiments: %s load %.4f: bystander: %w", cfg.Name, pts[pi].Load, err)
		}
		if !bys.Admitted {
			return fmt.Errorf("experiments: %s load %.4f: bystander rejected on an empty machine: %s",
				cfg.Name, pts[pi].Load, bys.Reason)
		}
		baseline, err := schedule.MarshalOmega(bys.Result.Omega)
		if err != nil {
			return err
		}

		vic, err := set.Admit(ctx, schedule.Tenant{
			ID: "victim", Priority: 1,
			Problem: problem(pts[pi].TauIn, vicAs), Options: opts,
		}, spans[pi])
		if err != nil {
			return fmt.Errorf("experiments: %s load %.4f: victim: %w", cfg.Name, pts[pi].Load, err)
		}
		pt.VictimOutcome = vic.Outcome.String()
		pt.VictimTauOut = vic.TauOut
		if !vic.Admitted {
			series.Points[pi] = pt
			return nil
		}

		// Victim-only links: used by the victim's paths, untouched by
		// the bystander's — a fault there is a fault in one tenant's
		// slice of the machine.
		bysRes := set.Lookup("bystander").Reserve
		vicRes := set.Lookup("victim").Reserve
		var links []int
		for j := range vicRes {
			if vicRes[j] > 0 && bysRes[j] == 0 {
				links = append(links, j)
			}
		}
		if cfg.MaxFaults > 0 && cfg.MaxFaults < len(links) {
			links = links[:cfg.MaxFaults]
		}
		pt.Scenarios = len(links)

		for _, l := range links {
			fsp := spans[pi].Start(SpanFault, trace.Int("link", l))
			fs := topology.NewFaultSet()
			fs.FailLink(topology.LinkID(l))
			vrep, err := set.RepairTenant(ctx, "victim", fs, fsp)
			var brep *schedule.TenantRepair
			if err == nil {
				brep, err = set.RepairTenant(ctx, "bystander", fs, fsp)
			}
			fsp.End()
			if err != nil {
				return fmt.Errorf("experiments: %s load %.4f link %d: %w", cfg.Name, pts[pi].Load, l, err)
			}
			pt.Add(vrep.Report.Outcome)
			if vrep.Report.Outcome != schedule.RepairInfeasible {
				pt.WorstTauOutRatio = max(pt.WorstTauOutRatio, vrep.Report.TauOut/vic.TauOut)
			} else if cfg.StrictRepair {
				return vrep.Report.Err()
			}
			if brep.Report.Outcome == schedule.RepairUnaffected && brep.Report.Result != nil {
				got, err := schedule.MarshalOmega(brep.Report.Result.Omega)
				if err != nil {
					return err
				}
				if bytes.Equal(got, baseline) {
					pt.BystanderIntact++
				}
			}
		}
		series.Points[pi] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// WriteText renders the tenant sweep as a text table.
func (s *TenantSurvivabilitySeries) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# tenant survivability (faults on victim-only links): %s, bystander at load %.2f\n",
		s.Config, s.BystanderLoad); err != nil {
		return err
	}
	header := fmt.Sprintf("%-8s %-16s %-6s %-6s %-6s %-7s %-6s %-6s %-7s %-9s %-10s",
		"load", "victim", "n", "unaff", "incr", "recomp", "degW", "degR", "infeas", "tout/tin", "bystander")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, p := range s.Points {
		if p.Scenarios == 0 {
			if _, err := fmt.Fprintf(w, "%-8.4f %-16s %-6d\n", p.Load, p.VictimOutcome, 0); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%-8.4f %-16s %-6d %-6d %-6d %-7d %-6d %-6d %-7d %-9.4f %d/%d\n",
			p.Load, p.VictimOutcome, p.Scenarios, p.Unaffected, p.Incremental, p.Recomputed,
			p.DegradedWindow, p.DegradedRate, p.Infeasible,
			p.WorstTauOutRatio, p.BystanderIntact, p.Scenarios); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the tenant sweep as CSV.
func (s *TenantSurvivabilitySeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "config,load,victim_outcome,victim_tau_out,scenarios,unaffected,incremental,recomputed,degraded_window,degraded_rate,infeasible,worst_tauout_ratio,bystander_intact\n"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%q,%.6f,%q,%.6f,%d,%d,%d,%d,%d,%d,%d,%.6f,%d\n",
			s.Config, p.Load, p.VictimOutcome, p.VictimTauOut, p.Scenarios,
			p.Unaffected, p.Incremental, p.Recomputed, p.DegradedWindow, p.DegradedRate, p.Infeasible,
			p.WorstTauOutRatio, p.BystanderIntact); err != nil {
			return err
		}
	}
	return nil
}
