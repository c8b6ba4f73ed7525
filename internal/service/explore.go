package service

import (
	"context"
	"fmt"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/metrics"
	"schedroute/internal/parallel"
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
	if err := c.route(req, c.structureKey(req.Problem)); err != nil {
		return nil, err
	}
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

// explorePlacements resolves the request's candidate placements beyond
// the problem's own: named allocators first, then the annealed seeds
// (which schedule.Explore itself builds, appended after the explicit
// list — the source labels here must mirror that order).
func explorePlacements(req schedroute.ExploreRequest, b *schedroute.Built) (placements []*alloc.Assignment, sources []string, annealSeeds []int64, err error) {
	placements = []*alloc.Assignment{b.Assignment}
	sources = []string{"problem"}
	if p := req.Axes.Placement; p != nil {
		for _, name := range p.Allocators {
			as, err := schedroute.ParseAllocator(name, b.Graph, b.Topology, b.Spec.AllocSeed)
			if err != nil {
				return nil, nil, nil, err
			}
			placements = append(placements, as)
			sources = append(sources, "allocator:"+name)
		}
		annealSeeds = p.AnnealSeeds
		for _, seed := range annealSeeds {
			sources = append(sources, fmt.Sprintf("anneal:%d", seed))
		}
	}
	return placements, sources, annealSeeds, nil
}

// explorePareto runs the solver's Pareto-front search and projects the
// outcome onto the wire.
func (s *Server) explorePareto(ctx context.Context, req schedroute.ExploreRequest, b *schedroute.Built, opts schedule.Options, workers int, root *trace.Span) (*schedroute.ExploreResult, error) {
	objectives, err := schedule.ParseObjectives(req.Objectives)
	if err != nil {
		return nil, errkind.Mark(err, errkind.ErrBadInput)
	}
	placements, sources, annealSeeds, err := explorePlacements(req, b)
	if err != nil {
		return nil, err
	}
	ax := req.TauInAxisOrDefault()
	opts.Procs = workers
	spec := schedule.ExploreSpec{
		MinTauIn:    ax.Min,
		MaxTauIn:    ax.Max,
		GridPoints:  ax.Points,
		Tolerance:   req.Tolerance,
		Placements:  placements,
		AnnealSeeds: annealSeeds,
		Objectives:  objectives,
		Trace:       root,
	}
	if p := req.Axes.Placement; p != nil {
		spec.AnnealSteps = p.AnnealSteps
	}
	front, err := schedule.Explore(ctx, b.ScheduleProblem(), opts, spec)
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
			Source:   sources[i],
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

// exploreGrid samples the τin axis point by point. With a placement
// axis, every point additionally runs the best-allocation search across
// the candidates (feasible beats infeasible, then lower peak —
// schedule.ComputeBestAllocation's order) and reports the winner per
// point.
func (s *Server) exploreGrid(ctx context.Context, req schedroute.ExploreRequest, ent *solverEntry, opts schedule.Options, workers int, root *trace.Span) (*schedroute.ExploreResult, error) {
	b := ent.built
	tauC := b.Timing.TauC()
	ax := req.TauInAxisOrDefault()
	n := ax.Points
	if n == 0 {
		n = 12
	}
	invocations := req.Invocations
	if invocations == 0 {
		invocations = 8
	}
	min, max := ax.Min, ax.Max
	if min == 0 {
		min = tauC
	}
	if max == 0 {
		max = 5 * tauC
	}
	if min <= 0 || max < min {
		return nil, badInput("explore: bad period range [%g, %g]", min, max)
	}

	// Candidate solvers: the cache entry's solver serves the problem's
	// own placement; extra candidates each get one solver shared by all
	// their points, so the τin-independent derivations run once per
	// placement no matter the grid size.
	placements, sources, annealSeeds, err := explorePlacements(req, b)
	if err != nil {
		return nil, err
	}
	if len(annealSeeds) > 0 {
		annealed, err := schedule.AnnealPlacements(ctx, root, b.Graph, b.Topology, annealSeeds, req.Axes.Placement.AnnealSteps, workers)
		if err != nil {
			return nil, err
		}
		placements = append(placements, annealed...)
	}
	solvers := make([]*schedule.Solver, len(placements))
	solvers[0] = ent.solver
	for i := 1; i < len(placements); i++ {
		prob := b.ScheduleProblem()
		prob.Assignment = placements[i]
		solvers[i] = schedule.NewSolver(prob)
	}
	multi := len(placements) > 1

	// Per-point spans are pre-created serially in index order (no-ops on
	// an untraced request), so a traced fan-out has a worker-count
	// independent structure.
	spans := make([]*trace.Span, n)
	for i := range spans {
		spans[i] = root.Start(SpanExplorePoint, trace.Int("index", i))
	}

	points := make([]schedroute.SweepPoint, n)
	winners := make([]int, n)
	err = parallel.ForEach(ctx, n, workers, func(i int) error {
		defer spans[i].End()
		tauIn := min
		if n > 1 {
			tauIn = min + (max-min)*float64(i)/float64(n-1)
		}
		o := opts
		o.Trace = spans[i]
		res, err := solvers[0].Solve(ctx, tauIn, o)
		if err != nil {
			return err
		}
		s.metrics.countSolve(res.Stats)
		winner := 0
		for c := 1; c < len(solvers); c++ {
			cres, err := solvers[c].Solve(ctx, tauIn, o)
			if err != nil {
				return err
			}
			s.metrics.countSolve(cres.Stats)
			if schedule.Better(cres, res) {
				res, winner = cres, c
			}
		}
		winners[i] = winner
		pt := schedroute.SweepPoint{
			TauIn:   tauIn,
			Load:    tauC / tauIn,
			PeakLSD: res.PeakLSD,
			Peak:    res.Peak,
		}
		if res.Feasible {
			pt.Feasible = true
			pt.Latency = res.Latency
			if req.Execute {
				exec, err := schedule.Execute(res.Omega, b.Graph, b.Timing, tauC, invocations)
				if err != nil {
					return fmt.Errorf("explore: execute at τin=%g: %w", tauIn, err)
				}
				ivs := metrics.Intervals(exec.OutputCompletions)
				th, err := metrics.NormalizedThroughput(tauIn, ivs)
				if err != nil {
					return fmt.Errorf("explore: throughput at τin=%g: %w", tauIn, err)
				}
				pt.Executed = true
				pt.ThroughputMid = th.Mid
				pt.OI = metrics.OutputInconsistent(tauIn, ivs, 1e-6)
			}
		} else {
			pt.FailStage = res.FailStage.String()
		}
		points[i] = pt
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
	if multi {
		out.Winners = winners
		for i, src := range sources {
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
