package schedule

import (
	"context"
	"fmt"

	"schedroute/internal/alloc"
	"schedroute/internal/parallel"
	"schedroute/internal/trace"
)

// SearchResult reports which allocation candidate won the coupled
// search and with what outcome.
type SearchResult struct {
	// Result is the best schedule found.
	Result *Result
	// Chosen is the index of the winning candidate allocation.
	Chosen int
}

// ComputeBestAllocation implements the coupling of task allocation with
// path assignment that the paper's Section 7 calls out as future work
// ("coupling it with path assignment so as to set up less stringent
// constraints for SR computation should be explored"): the full
// pipeline is run for each candidate placement and the best outcome is
// kept — a feasible schedule with the lowest peak utilization if any
// candidate succeeds, otherwise the failure with the lowest peak. It is
// the one-period case of Sweep, which see for the worker, seed, tracing
// and cancellation contract: an allocation_search span with one
// candidate child per placement.
func ComputeBestAllocation(ctx context.Context, p Problem, opt Options, candidates []*alloc.Assignment) (*SearchResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("schedule: no candidate allocations")
	}
	search := opt.Trace.Start(SpanAllocSearch, trace.Int("candidates", len(candidates)))
	defer search.End()
	_, solvers, err := PlacementSolvers(ctx, p, nil, candidates, nil, 0, opt.Procs)
	if err != nil {
		return nil, err
	}
	var best *SearchResult
	err = Sweep(ctx, solvers, []float64{p.TauIn}, opt, []*trace.Span{search}, func(sp *SweepPeriod) error {
		best = &SearchResult{Result: sp.Best(), Chosen: sp.Winner}
		search.SetAttrs(trace.Int("chosen", sp.Winner))
		return nil
	})
	return best, err
}

// DefaultCandidates builds the standard candidate set for
// ComputeBestAllocation: round-robin, greedy, and seeds of random
// placements. The placements are independent, so they are built
// concurrently; slot order (round-robin, greedy, randoms in seed order)
// matches the serial construction.
func DefaultCandidates(ctx context.Context, p Problem, randomSeeds ...int64) ([]*alloc.Assignment, error) {
	builders := []func() (*alloc.Assignment, error){
		func() (*alloc.Assignment, error) { return alloc.RoundRobin(p.Graph, p.Topology) },
		func() (*alloc.Assignment, error) { return alloc.Greedy(p.Graph, p.Topology) },
	}
	for _, seed := range randomSeeds {
		seed := seed
		builders = append(builders, func() (*alloc.Assignment, error) {
			return alloc.Random(p.Graph, p.Topology, seed)
		})
	}
	out, err := parallel.Map(ctx, len(builders), parallel.Workers(0),
		func(i int) (*alloc.Assignment, error) { return builders[i]() })
	if err != nil {
		return nil, err
	}
	return out, nil
}
