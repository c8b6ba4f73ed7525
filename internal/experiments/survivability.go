package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"schedroute/internal/cpsim"
	"schedroute/internal/parallel"
	"schedroute/internal/schedule"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// LadderTally counts repair-ladder outcomes, one field per
// schedule.RepairOutcome, over the fault scenarios of one load point.
type LadderTally struct {
	Unaffected     int
	Incremental    int
	Recomputed     int
	DegradedWindow int
	DegradedRate   int
	Infeasible     int
}

// Add counts one repair's outcome.
func (t *LadderTally) Add(o schedule.RepairOutcome) {
	switch o {
	case schedule.RepairUnaffected:
		t.Unaffected++
	case schedule.RepairIncremental:
		t.Incremental++
	case schedule.RepairRecomputed:
		t.Recomputed++
	case schedule.RepairDegradedWindow:
		t.DegradedWindow++
	case schedule.RepairDegradedRate:
		t.DegradedRate++
	case schedule.RepairInfeasible:
		t.Infeasible++
	}
}

// SurvivabilityPoint summarizes, for one load point, how the schedule
// survives every single-link fault: the count of faults resolved at
// each rung of the repair ladder, the worst residual peak utilization,
// the worst output-period degradation, and (when Config.VerifyFaults
// is set) the end-to-end packet-level verification tally.
type SurvivabilityPoint struct {
	Load  float64
	TauIn float64

	// BaseFeasible reports whether the fault-free schedule exists at
	// this load; when false the fault fan-out is skipped and BaseStage
	// names the rejecting pipeline stage.
	BaseFeasible bool
	BaseStage    schedule.Stage

	// Scenarios is the number of single-link faults evaluated, and the
	// tally their repairs' outcomes.
	Scenarios int
	LadderTally

	// WorstPeak is the highest repaired peak utilization over the
	// survivable scenarios.
	WorstPeak float64
	// WorstTauOutRatio is the worst τout/τin over the survivable
	// scenarios (1 unless some fault forced a rate degradation).
	WorstTauOutRatio float64

	// Verified counts scenarios whose repaired Ω replayed mid-run
	// fault injection without violations; VerifyViolations sums the
	// violations observed (0 on a correct repair pipeline). Both stay 0
	// unless Config.VerifyFaults is set.
	Verified         int
	VerifyViolations int
}

// SurvivabilitySeries is one config's survivability sweep across the
// twelve load points.
type SurvivabilitySeries struct {
	Config string
	Points []SurvivabilityPoint
}

// faultOutcome is one (load point, link fault) repair result, kept in
// an ordered slot so parallel sweeps tally identically to serial ones.
type faultOutcome struct {
	outcome    schedule.RepairOutcome
	peak       float64
	ratio      float64
	verified   bool
	violations int
	err        error
}

// SurvivabilitySweep measures schedule survivability under every
// single-link fault at each of the twelve load points: the base
// schedule is computed per point, then each (point, fault) pair runs
// the repair ladder — incremental reroute, full recompute, widened
// windows, reduced rate — and, optionally, a packet-level mid-run
// fault-injection verification of the repaired Ω. Both stages fan out
// on cfg.Procs workers with ordered result slots, so the series is
// byte-identical for every worker count. ctx cancels both fan-outs
// between jobs and the repair ladder between rungs.
func SurvivabilitySweep(ctx context.Context, c Config) (*SurvivabilitySeries, error) {
	sw, err := newGridSweep(c, SpanSurvivabilitySweep)
	if err != nil {
		return nil, err
	}
	defer sw.end()
	cfg, pts, spans := sw.cfg, sw.pts, sw.spans
	opts := schedule.Options{Seed: cfg.Seed, Procs: 1} // stage 2's repairs run on the fan-out's workers

	// Stage 1: the fault-free base schedule per load point. The point
	// spans stay open: stage 2 nests its fault spans under them.
	base := make([]*schedule.Result, len(pts))
	err = sw.solve(ctx, func(i int, res *schedule.Result, _ *trace.Span) error {
		base[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Single-link faults, one per link in link order, each named for
	// its fault span and errors.
	scenarios := make([]string, cfg.Topology.Links())
	if cfg.MaxFaults > 0 && cfg.MaxFaults < len(scenarios) {
		scenarios = scenarios[:cfg.MaxFaults]
	}
	for l := range scenarios {
		lk := cfg.Topology.Link(topology.LinkID(l))
		scenarios[l] = fmt.Sprintf("link%d(%d-%d)", l, lk.A, lk.B)
	}

	// Stage 2: the repair fan-out over every (feasible point, fault)
	// pair, each writing its ordered slot.
	type job struct{ pi, si int }
	var jobs []job
	var jobSpans []*trace.Span
	outcomes := make([][]faultOutcome, len(pts))
	for pi := range pts {
		if base[pi].Feasible {
			outcomes[pi] = make([]faultOutcome, len(scenarios))
			for si := range scenarios {
				jobs = append(jobs, job{pi, si})
				// Fault spans are pre-created here, serially in job order
				// under their point span, like the point spans themselves.
				jobSpans = append(jobSpans, spans[pi].Start(SpanFault,
					trace.String("fault", scenarios[si])))
			}
		}
	}
	err = parallel.ForEach(ctx, len(jobs), parallel.Workers(cfg.Procs), func(j int) error {
		pi, si := jobs[j].pi, jobs[j].si
		defer jobSpans[j].End()
		fs := topology.NewFaultSet()
		fs.FailLink(topology.LinkID(si))
		ro := opts
		ro.Trace = jobSpans[j]
		rep, err := schedule.Repair(ctx, sw.problem(pts[pi].TauIn, sw.base.Assignment), ro, base[pi], fs)
		if err != nil {
			return fmt.Errorf("experiments: %s load %.4f fault %s: %w",
				cfg.Name, pts[pi].Load, scenarios[si], err)
		}
		out := faultOutcome{
			outcome: rep.Outcome,
			peak:    rep.NewPeak,
			ratio:   rep.TauOut / pts[pi].TauIn,
			err:     rep.Err(),
		}
		if cfg.VerifyFaults && rep.Result != nil {
			sim, err := cpsim.Run(cpsim.Config{
				Omega: base[pi].Omega, Graph: sw.base.Graph, Topology: cfg.Topology,
				PacketBytes: 64, Bandwidth: cfg.Bandwidth, Invocations: 4,
				Fault: &cpsim.FaultInjection{
					Faults: fs, FailAt: 1,
					Repaired: rep.Result.Omega, RepairAt: 2,
				},
			})
			if err != nil {
				return fmt.Errorf("experiments: %s load %.4f fault %s: cpsim: %w",
					cfg.Name, pts[pi].Load, scenarios[si], err)
			}
			out.violations = len(sim.RepairViolations)
			out.verified = out.violations == 0
		}
		outcomes[pi][si] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Tally serially in (point, scenario) order.
	series := &SurvivabilitySeries{Config: cfg.Name, Points: make([]SurvivabilityPoint, len(pts))}
	for pi, lp := range pts {
		pt := SurvivabilityPoint{
			Load: lp.Load, TauIn: lp.TauIn,
			BaseFeasible: base[pi].Feasible, BaseStage: base[pi].FailStage,
			WorstTauOutRatio: 1,
		}
		if base[pi].Feasible {
			pt.Scenarios = len(scenarios)
			for _, out := range outcomes[pi] {
				pt.Add(out.outcome)
				if out.outcome == schedule.RepairInfeasible {
					if cfg.StrictRepair {
						return nil, out.err
					}
				} else {
					if out.peak > pt.WorstPeak {
						pt.WorstPeak = out.peak
					}
					if out.ratio > pt.WorstTauOutRatio {
						pt.WorstTauOutRatio = out.ratio
					}
					if out.verified {
						pt.Verified++
					}
					pt.VerifyViolations += out.violations
				}
			}
		}
		series.Points[pi] = pt
	}
	return series, nil
}

// WriteText renders a survivability sweep as a text table:
// one row per load point with the repair-ladder outcome counts.
func (s *SurvivabilitySeries) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# survivability under single-link faults: %s\n", s.Config); err != nil {
		return err
	}
	header := fmt.Sprintf("%-8s %-10s %-6s %-6s %-6s %-7s %-6s %-6s %-7s %-8s %-9s %-9s",
		"load", "base", "n", "unaff", "incr", "recomp", "degW", "degR", "infeas", "worstU", "tout/tin", "verified")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, p := range s.Points {
		if !p.BaseFeasible {
			if _, err := fmt.Fprintf(w, "%-8.4f %-10s %-6s\n", p.Load, failTag(p.BaseStage), "-"); err != nil {
				return err
			}
			continue
		}
		verified := "-"
		if p.Verified > 0 || p.VerifyViolations > 0 {
			verified = fmt.Sprintf("%d/%d", p.Verified, p.Scenarios-p.Infeasible)
		}
		if _, err := fmt.Fprintf(w, "%-8.4f %-10s %-6d %-6d %-6d %-7d %-6d %-6d %-7d %-8.4f %-9.4f %-9s\n",
			p.Load, "feasible", p.Scenarios, p.Unaffected, p.Incremental, p.Recomputed,
			p.DegradedWindow, p.DegradedRate, p.Infeasible,
			p.WorstPeak, p.WorstTauOutRatio, verified); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders a survivability sweep as CSV for external plotting.
func (s *SurvivabilitySeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "config,load,base_stage,scenarios,unaffected,incremental,recomputed,degraded_window,degraded_rate,infeasible,worst_peak,worst_tauout_ratio,verified,verify_violations\n"); err != nil {
		return err
	}
	for _, p := range s.Points {
		worstPeak, ratio := p.WorstPeak, p.WorstTauOutRatio
		if !p.BaseFeasible {
			worstPeak, ratio = math.NaN(), math.NaN()
		}
		if _, err := fmt.Fprintf(w, "%q,%.6f,%q,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%d,%d\n",
			s.Config, p.Load, p.BaseStage.String(), p.Scenarios,
			p.Unaffected, p.Incremental, p.Recomputed, p.DegradedWindow, p.DegradedRate, p.Infeasible,
			worstPeak, ratio, p.Verified, p.VerifyViolations); err != nil {
			return err
		}
	}
	return nil
}
