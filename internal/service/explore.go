package service

import (
	"context"
	"fmt"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// SpanExplorePoint is recorded per grid point under a traced /v1/explore
// request (Pareto mode records the solver's own explore span family).
const SpanExplorePoint = "explore_point"

// explore is POST /v1/explore: grid mode (the consolidated sweep /
// best-allocation search) or Pareto mode (the multi-criteria front),
// selected by the request's objectives. The fan-out borrows idle worker
// slots, so concurrent explorations share the server-wide Workers
// bound; results are byte-identical for every worker count. It is a
// what-if: the tenant is a metrics label, its standing never consulted.
func (s *Server) explore(c *call, req schedroute.ExploreRequest) (*schedroute.ExploreResult, error) {
	c.tenantID = schedroute.TenantOrDefault(req.Tenant).ID
	if err := c.queue(); err != nil {
		return nil, err
	}
	defer s.release()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	opts, err := req.Options.ToSchedule()
	if err != nil {
		return nil, err
	}
	opts.CollectStats = true
	ent, _, err := c.structure(req.Problem)
	if err != nil {
		return nil, err
	}

	extra, releaseExtra := s.claimExtraWorkers(s.cfg.Workers - 1)
	defer releaseExtra()
	workers := 1 + extra

	ctx := c.r.Context()
	var out *schedroute.ExploreResult
	if req.Mode() == schedroute.ExploreModePareto {
		out, err = s.explorePareto(ctx, req, ent.built, opts, workers, c.root)
	} else {
		out, err = s.exploreGrid(ctx, req, ent, opts, workers, c.root)
	}
	if err != nil {
		return nil, err
	}
	s.metrics.add(mExploreRuns, 1, out.Mode)
	s.metrics.add(mExplorePoints, int64(len(out.Points)+out.Evaluated))
	s.metrics.add(mExploreFront, int64(len(out.Front)))
	return out, nil
}

// candidates is a request's placement axis resolved: the problem's own
// placement and the named allocators', then the annealer's seeds and
// move budget for the placements schedule.PlacementSolvers appends after
// them — sources labels all of them in that order.
type candidates struct {
	placements []*alloc.Assignment
	sources    []string
	seeds      []int64
	steps      int
}

func exploreCandidates(req schedroute.ExploreRequest, b *schedroute.Built) (candidates, error) {
	c := candidates{placements: []*alloc.Assignment{b.Assignment}, sources: []string{"problem"}}
	p := req.Axes.Placement
	if p == nil {
		return c, nil
	}
	for _, name := range p.Allocators {
		as, err := schedroute.ParseAllocator(name, b.Graph, b.Topology, b.Spec.AllocSeed)
		if err != nil {
			return c, err
		}
		c.placements = append(c.placements, as)
		c.sources = append(c.sources, "allocator:"+name)
	}
	c.seeds, c.steps = p.AnnealSeeds, p.AnnealSteps
	for _, seed := range c.seeds {
		c.sources = append(c.sources, fmt.Sprintf("anneal:%d", seed))
	}
	return c, nil
}

// explorePareto runs the solver's Pareto-front search and projects the
// outcome onto the wire.
func (s *Server) explorePareto(ctx context.Context, req schedroute.ExploreRequest, b *schedroute.Built, opts schedule.Options, workers int, root *trace.Span) (*schedroute.ExploreResult, error) {
	objectives, err := schedule.ParseObjectives(req.Objectives)
	if err != nil {
		return nil, errkind.Mark(err, errkind.ErrBadInput)
	}
	cands, err := exploreCandidates(req, b)
	if err != nil {
		return nil, err
	}
	ax := req.TauInAxisOrDefault()
	opts.Procs = workers
	front, err := schedule.Explore(ctx, b.ScheduleProblem(), opts, schedule.ExploreSpec{
		MinTauIn:    ax.Min,
		MaxTauIn:    ax.Max,
		GridPoints:  ax.Points,
		Tolerance:   req.Tolerance,
		Placements:  cands.placements,
		AnnealSeeds: cands.seeds,
		AnnealSteps: cands.steps,
		Objectives:  objectives,
		Trace:       root,
	})
	if err != nil {
		return nil, err
	}

	out := &schedroute.ExploreResult{
		SchemaVersion: schedroute.SchemaVersion,
		Mode:          schedroute.ExploreModePareto,
		TauC:          front.TauC,
		TauM:          b.Timing.TauM(),
		MinTauIn:      front.MinTauIn,
		Evaluated:     front.Evaluated,
	}
	for _, ob := range front.Objectives {
		out.Objectives = append(out.Objectives, string(ob))
	}
	for i, po := range front.Placements {
		out.Placements = append(out.Placements, schedroute.PlacementOutcome{
			Source:   cands.sources[i],
			Feasible: po.Feasible,
			MinTauIn: po.MinTauIn,
		})
	}
	for _, pt := range front.Points {
		out.Front = append(out.Front, schedroute.ParetoPoint{
			Placement: pt.Placement,
			TauIn:     pt.TauIn,
			Load:      front.TauC / pt.TauIn,
			Window:    pt.Window,
			Latency:   pt.Latency,
			Links:     pt.Links,
			Buffers:   pt.Buffers,
			Peak:      pt.Peak,
		})
	}
	return out, nil
}

// exploreGrid samples the τin axis point by point: one schedule.Sweep
// over the resolved periods and the candidate placements, projected
// onto the wire. With a placement axis every point reports its winner
// in the best-allocation order (feasible beats infeasible, then lower
// peak).
func (s *Server) exploreGrid(ctx context.Context, req schedroute.ExploreRequest, ent *solverEntry, opts schedule.Options, workers int, root *trace.Span) (*schedroute.ExploreResult, error) {
	b := ent.built
	tauC := b.Timing.TauC()
	ax := req.TauInAxisOrDefault()
	lo, hi, n, err := schedule.PeriodAxis(tauC, ax.Min, ax.Max, ax.Points, 12)
	if err != nil {
		return nil, err
	}
	cands, err := exploreCandidates(req, b)
	if err != nil {
		return nil, err
	}
	_, solvers, err := schedule.PlacementSolvers(ctx, b.ScheduleProblem(), root, cands.placements, cands.seeds, cands.steps, workers)
	if err != nil {
		return nil, err
	}
	// The problem's own placement keeps the cache entry's solver, warm
	// from earlier requests on the structure.
	solvers[0] = ent.solver

	// Per-point spans are pre-created serially in index order (no-ops on
	// an untraced request), so a traced grid has a worker-count
	// independent structure.
	spans := make([]*trace.Span, n)
	for i := range spans {
		spans[i] = root.Start(SpanExplorePoint, trace.Int("index", i))
	}
	points := make([]schedroute.SweepPoint, n)
	winners := make([]int, n)
	opts.Procs = workers
	err = schedule.Sweep(ctx, solvers, schedule.PeriodLadder(lo, hi, n), opts, spans, func(sp *schedule.SweepPeriod) error {
		defer sp.Span.End()
		for _, r := range sp.Results {
			s.metrics.countSolve(r.Stats)
		}
		res := sp.Best()
		winners[sp.Index] = sp.Winner
		pt := schedroute.SweepPoint{
			TauIn:   sp.TauIn,
			Load:    tauC / sp.TauIn,
			PeakLSD: res.PeakLSD,
			Peak:    res.Peak,
		}
		if res.Feasible {
			pt.Feasible = true
			pt.Latency = res.Latency
			if req.Execute {
				out, err := schedule.CheckOutput(res.Omega, b.Graph, b.Timing, sp.TauIn, req.Invocations)
				if err != nil {
					return fmt.Errorf("explore: execute at τin=%g: %w", sp.TauIn, err)
				}
				pt.Executed = true
				pt.ThroughputMid = out.Throughput.Mid
				pt.OI = out.OI
			}
		} else {
			pt.FailStage = res.FailStage.String()
		}
		points[sp.Index] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &schedroute.ExploreResult{
		SchemaVersion: schedroute.SchemaVersion,
		Mode:          schedroute.ExploreModeGrid,
		TauC:          tauC,
		TauM:          b.Timing.TauM(),
		Points:        points,
	}
	if len(solvers) > 1 {
		out.Winners = winners
		for i, src := range cands.sources {
			po := schedroute.PlacementOutcome{Source: src}
			for j, w := range winners {
				if w == i && points[j].Feasible {
					po.Feasible = true
					break
				}
			}
			out.Placements = append(out.Placements, po)
		}
	}
	return out, nil
}
