package service

import (
	"schedroute/internal/memo"
	"schedroute/internal/schedule"
	"schedroute/pkg/schedroute"
)

// solverEntry is one cached problem structure: the resolved machine
// and workload plus the schedule.Solver amortizing every
// τin-independent derivation (LSD baseline, path candidates, task
// starts, validation) across requests.
type solverEntry struct {
	built  *schedroute.Built
	solver *schedule.Solver
}

// newSolverEntry gives a built problem (NewProblem's results) its Solver.
func newSolverEntry(b *schedroute.Built, err error) (*solverEntry, error) {
	if err != nil {
		return nil, err
	}
	return &solverEntry{built: b, solver: schedule.NewSolver(b.ScheduleProblem())}, nil
}

// solverCache is the LRU of Config.MaxSolvers solverEntry keyed by
// schedroute.Problem.StructureKey. A hit means a request skips spec
// parsing, workload construction, and — through the Solver — the
// τin-independent halves of the pipeline; one on an entry still
// mid-build waits for the build, and a failed build is not kept, so a
// corrected retry rebuilds.
type solverCache = memo.Cache[string, *solverEntry]

// newSolverCache makes m's four solver-cache rows read the cache's own
// counters: hits and misses by whether a request found an entry,
// evictions at capacity (not failed builds), and the size.
func newSolverCache(capacity int, m *Metrics) *solverCache {
	c := memo.New[string, *solverEntry](capacity)
	m.bind(mCacheHits, func() int64 { return c.Stats().Hits })
	m.bind(mCacheMisses, func() int64 { return c.Stats().Misses })
	m.bind(mCacheEvictions, func() int64 { return c.Stats().Evictions })
	m.bind(mCacheSize, func() int64 { return int64(c.Stats().Len) })
	return &c
}
