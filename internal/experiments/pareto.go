package experiments

import (
	"context"
	"fmt"
	"io"

	"schedroute/internal/schedule"
	"schedroute/internal/trace"
)

// SpanParetoSweep is recorded under Config.Trace around one
// configuration's Pareto exploration.
const SpanParetoSweep = "pareto_sweep"

// ParetoSeries is one configuration's multi-criteria front: the
// capacity-planning view the single-figure sweeps cannot give. Each
// front point is a deployable schedule — a (placement, τin, window)
// triple with its latency and fabric footprint — and no point on the
// front is beaten on every objective by another.
type ParetoSeries struct {
	Config string
	Front  *schedule.ParetoFront
}

// ParetoSweep explores the period × latency × resource trade-off for
// one standard configuration. The spec's zero fields pick the
// experiment defaults: candidate placements are the config's
// round-robin baseline plus two annealed placements seeded off
// cfg.Seed, four candidate periods per placement, and all four
// objectives. cfg.Procs bounds the fan-out workers; the front is
// byte-identical for every worker count.
func ParetoSweep(ctx context.Context, c Config, spec schedule.ExploreSpec) (*ParetoSeries, error) {
	cfg := c.withDefaults()
	p, err := workload(cfg)
	if err != nil {
		return nil, err
	}
	if len(spec.AnnealSeeds) == 0 && len(spec.Placements) == 0 {
		spec.AnnealSeeds = []int64{cfg.Seed + 1, cfg.Seed + 2}
	}
	if spec.GridPoints == 0 {
		spec.GridPoints = 4
	}
	sweep := cfg.Trace.Start(SpanParetoSweep, trace.String("config", cfg.Name))
	defer sweep.End()
	if cfg.Trace != nil {
		spec.Trace = sweep
	}
	front, err := schedule.Explore(ctx, p, schedule.Options{Seed: cfg.Seed, Procs: cfg.Procs}, spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s pareto: %w", cfg.Name, err)
	}
	return &ParetoSeries{Config: cfg.Name, Front: front}, nil
}

// WriteText renders a Pareto front as a text table: the placement
// outcomes first (which candidates schedule at all, and how fast), then
// one row per front point with its load, period, window, latency and
// fabric footprint.
func (s *ParetoSeries) WriteText(w io.Writer) error {
	f := s.Front
	if _, err := fmt.Fprintf(w, "# %s (τc %.1f µs, min τin %.2f µs, %d evaluated, %d on front)\n",
		s.Config, f.TauC, f.MinTauIn, f.Evaluated, len(f.Points)); err != nil {
		return err
	}
	for i, out := range f.Placements {
		status := "infeasible in range"
		if out.Feasible {
			status = fmt.Sprintf("min τin %.2f µs (load %.4f)", out.MinTauIn, f.TauC/out.MinTauIn)
		}
		if _, err := fmt.Fprintf(w, "# placement %d: %s\n", i, status); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-6s %-10s %-10s %-10s %-12s %-7s %-9s %-8s\n",
		"plc", "load", "tau_in", "window", "latency", "links", "buffers", "peak"); err != nil {
		return err
	}
	for _, pt := range f.Points {
		if _, err := fmt.Fprintf(w, "%-6d %-10.4f %-10.2f %-10.2f %-12.2f %-7d %-9d %-8.4f\n",
			pt.Placement, f.TauC/pt.TauIn, pt.TauIn, pt.Window, pt.Latency,
			pt.Links, pt.Buffers, pt.Peak); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders a Pareto front as CSV for external plotting.
func (s *ParetoSeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "config,placement,load,tau_in,window,latency,links,buffers,peak\n"); err != nil {
		return err
	}
	f := s.Front
	for _, pt := range f.Points {
		if _, err := fmt.Fprintf(w, "%q,%d,%.6f,%.6f,%.6f,%.6f,%d,%d,%.6f\n",
			s.Config, pt.Placement, f.TauC/pt.TauIn, pt.TauIn, pt.Window, pt.Latency,
			pt.Links, pt.Buffers, pt.Peak); err != nil {
			return err
		}
	}
	return nil
}
