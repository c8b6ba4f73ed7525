package schedule

import (
	"context"
	"fmt"
	"sync"

	"schedroute/internal/memo"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// RepairSession runs the repair ladder repeatedly over one feasible
// base schedule as a fault state evolves — the engine behind the
// streaming reconfiguration service, where a subscription pushes
// fault / fault-repaired events and each event yields a repaired Ω.
//
// Every application repairs from the *base* (fault-free) schedule to
// the full current fault set, never from the previously repaired
// schedule: the reported Ω for a fault state is therefore independent
// of the event order that reached it, and byte-identical to a cold
// schedule.Repair call at the same state (the request/response
// /v1/repair path). What the session adds over calling Repair directly
// is memoization keyed on the canonical fault population: a
// fault → repaired → re-fault sequence hits the memo on the re-fault,
// and a single-link fault that rung 1 absorbs re-runs only the
// incremental reroute/re-validate — no full pipeline solve — which the
// SessionStats counters make observable.
//
// A RepairSession is safe for concurrent Apply calls; memoized
// reports are shared and must be treated as read-only, exactly like
// coalesced solve results.
type RepairSession struct {
	p    Problem
	opts Options
	base *Result

	// memo is keyed by FaultSet.String(), which renders failed links and
	// nodes in sorted order (and a nil set as an empty one): two sets
	// reached through different event sequences key identically.
	memo memo.Cache[string, *RepairReport]

	mu    sync.Mutex
	stats SessionStats
}

// sessionMemo bounds the reports a session keeps. The memo exists for
// the fault → repaired → re-fault pattern, which revisits the last few
// states, while the states a long-lived subscription or tenant can be
// asked about are combinatorial (18 336 two-link sets on a 6-cube, a
// report each): beyond the bound the least recently asked-about state
// goes, and one that comes back after that re-runs the same
// deterministic ladder.
const sessionMemo = 16

// SessionStats counts what a session's Apply calls actually cost.
type SessionStats struct {
	// Applies is the number of Apply calls completed.
	Applies int64
	// MemoHits counts Applies answered from the fault-keyed memo
	// without running any repair work.
	MemoHits int64
	// Incremental counts ladder runs that settled without a full
	// pipeline solve: outcome unaffected or incremental (rung 1).
	Incremental int64
	// FullSolves counts ladder runs that descended into the
	// full-recompute rungs (recomputed, degraded-window, degraded-rate,
	// or infeasible after trying them).
	FullSolves int64
}

// NewRepairSession pins the problem, options, and feasible base result
// the session repairs from. The base must satisfy the same contract as
// schedule.Repair's base argument.
func NewRepairSession(p Problem, o Options, base *Result) (*RepairSession, error) {
	if base == nil || !base.Feasible || base.Omega == nil {
		return nil, fmt.Errorf("schedule: repair session needs a feasible base schedule")
	}
	return &RepairSession{p: p, opts: o, base: base, memo: memo.New[string, *RepairReport](sessionMemo)}, nil
}

// Stats snapshots the session counters.
func (s *RepairSession) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Apply repairs the base schedule to the given fault state, memoized on
// the canonical fault population: concurrent Applies of one state run
// one ladder and share its report. The boolean reports a memo hit. The
// fault set is cloned before the ladder runs, so the caller may keep
// mutating its own set across events. tr, when non-nil, receives the
// repair ladder's span tree (a memo hit records nothing under it).
func (s *RepairSession) Apply(ctx context.Context, fs *topology.FaultSet, tr *trace.Span) (*RepairReport, bool, error) {
	rep, hit, err := s.memo.Get(fs.String(), func() (*RepairReport, error) {
		opt := s.opts
		opt.Trace = tr
		return Repair(ctx, s.p, opt, s.base, fs.Clone())
	})
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	s.stats.Applies++
	switch {
	case hit:
		s.stats.MemoHits++
	case rep.Outcome == RepairUnaffected || rep.Outcome == RepairIncremental:
		s.stats.Incremental++
	default:
		s.stats.FullSolves++
	}
	s.mu.Unlock()
	return rep, hit, nil
}
