package schedule

import (
	"context"
	"math/rand"
	"slices"
	"sync"

	"schedroute/internal/parallel"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// assignPosition identifies where the peak utilization sits, used by the
// heuristic's "reposition the peak" move and its termination test.
type assignPosition struct {
	link     topology.LinkID
	interval int
}

// AssignPathsResult reports the heuristic's outcome.
type AssignPathsResult struct {
	Assignment *PathAssignment
	// Util is Assignment's utilization, built once the climb is over.
	Util *Utilization
	// Iterations counts utilization evaluations performed.
	Iterations int
	// TentativeComputed and TentativeReused split the per-link
	// tentative scores behind those evaluations into the ones worked
	// out and the ones the LoadState memo answered.
	TentativeComputed, TentativeReused int
}

// AssignPaths is the Fig. 4 iterative-improvement heuristic: starting
// from the given assignment, repeatedly locate the peak link or
// hot-spot, evaluate rerouting each multi-path message crossing it onto
// each of its equivalent shortest paths, apply the reroute with the
// largest peak reduction (or, failing that, one that repositions the
// same peak elsewhere), and on convergence restart from a random
// assignment to escape local minima. The best assignment ever seen is
// returned. The computation is deterministic for a fixed seed.
//
// Candidate moves are scored through an incremental LoadState rather
// than a from-scratch ComputeUtilization per trial; the delta scores
// are bit-identical to full evaluation wherever a move could be chosen,
// so the move sequence — and hence the result for a fixed seed — is
// unchanged. From 512 multi-path messages on (climbGate), the restarts
// are climbed on GOMAXPROCS workers, with the same result.
func AssignPaths(initial *PathAssignment, cands *Candidates, top *topology.Topology, ws []Window, act *Activity, seed int64, maxOuter, maxInner int) *AssignPathsResult {
	var a solveArena
	var rec assignRecord
	o, _ := rec.assign(context.Background(), &a, initial, cands, top, ws, act, seed, maxOuter, maxInner, nil, climbWorkers(cands, 0)) // Background is never done
	return &AssignPathsResult{
		Assignment:        o.pa,
		Util:              a.loadState(top, o.pa, ws, act, nil).Utilization(),
		Iterations:        o.evals,
		TentativeComputed: o.computed,
		TentativeReused:   o.reused,
	}
}

// peakSpot is a peak score and where it sits: what the restart fold
// keeps of an assignment's Utilization, and all Solve reads of it.
type peakSpot struct {
	peak float64
	pos  assignPosition
}

// peakAt is the state's peak and its position (PeakPosition).
func (ls *LoadState) peakAt() peakSpot {
	peak, link, interval := ls.PeakPosition()
	return peakSpot{peak, assignPosition{link, interval}}
}

// assignOutcome is AssignPathsResult as assign returns it: the peak's
// spot in place of the Utilization, which only AssignPaths builds.
type assignOutcome struct {
	pa               *PathAssignment
	spot             peakSpot
	evals            int
	computed, reused int // tentative scores
}

// climbGate is the fewest multi-path messages at which an AssignPaths
// call climbs its restarts on several workers. Each extra worker pays
// for a pooled arena, its LoadState and the clones of restarts that
// finish out of order, which a short climb does not earn back; the gate
// sits above the largest climb of the compile_lp workload (460
// multi-path messages), whose solves took 9.7 % more memory under a
// gate of 64, and below the 1 101 and 1 123 of compile_large's machines.
const climbGate = 512

// climbWorkers is how many workers climb the restarts of an AssignPaths
// call over cands under a Procs request (0 = GOMAXPROCS): one below
// climbGate.
func climbWorkers(cands *Candidates, procs int) int {
	multi := 0
	for _, list := range cands.LinksOf {
		if len(list) >= 2 {
			multi++
		}
	}
	if multi < climbGate {
		return 1
	}
	return parallel.Workers(procs)
}

// assignRecord carries AssignPaths from one seed to the next over the
// same inputs. Restart 0 climbs from the starting assignment and reads
// no seed, so its outcome is the same for every seed: the first assign
// climbs it and records the fold of the start and restart 0, and every
// later assign starts from that fold and climbs only its seeded
// restarts. The fold is kept in the arena of the first assign (its
// best), so every assign over one record takes the same arena. The zero
// value has climbed nothing.
type assignRecord struct {
	best     *PathAssignment // the fold of the start and restart 0; nil until restart 0 is climbed
	bestSpot peakSpot        // best's peak

	// onClimb, when set, is called after every restart's climb, on the
	// worker that climbed it, with the restart's index, its LoadState and
	// its final assignment: how tests hold each restart's incremental
	// state to a full recompute.
	onClimb func(restart int, ls *LoadState, pa *PathAssignment)
}

// assign is AssignPaths on a pooled arena against a per-link capacity
// vector (see Options.LinkCap): the hill-climb minimizes the
// capacity-relative peak max_j U_j / linkCap[j], steering traffic away
// from links with little residual share. nil is the whole machine.
// Restart 0 runs on the record's first call only (see assignRecord);
// the result's counts are of the work this call performed. ctx is
// looked at once per restart; a done one is the only error.
//
// Up to workers goroutines climb the restarts, each on its own arena:
// a, and one from arenaPool per extra worker. The result is the same
// for every worker count (see restarts); one climbs them all on the
// calling goroutine. The fold's assignment lives in a's storage until
// the call ends, so the returned assignment is the one it clones.
func (r *assignRecord) assign(ctx context.Context, a *solveArena, initial *PathAssignment, cands *Candidates, top *topology.Topology, ws []Window, act *Activity, seed int64, maxOuter, maxInner int, linkCap []float64, workers int) (assignOutcome, error) {
	maxOuter, maxInner = max(maxOuter, 1), max(maxInner, 1)
	rs := &a.restarts
	*rs = restarts{
		ctx: ctx, rec: r, initial: initial, cands: cands, top: top, ws: ws, act: act, linkCap: linkCap, maxInner: maxInner,
		rng:  a.rand(seed),
		stop: maxOuter,
		fold: &a.fold,
		kept: &a.best,
		res:  assignOutcome{pa: r.best, spot: r.bestSpot},
	}
	if r.best != nil {
		rs.first = 1
		if r.bestSpot.peak <= timeEps {
			rs.stop = 1 // cannot improve on zero
		}
	}
	rs.next, rs.folded = rs.first, rs.first
	a.outs = zeroed(a.outs, rs.stop-rs.first)
	rs.out = a.outs
	if workers = min(workers, len(rs.out)); workers <= 1 {
		rs.work(a)
	} else if err := parallel.ForEach(ctx, workers, workers, func(w int) error {
		wa := a
		if w > 0 {
			wa = arenaPool.Get().(*solveArena)
			defer arenaPool.Put(wa)
		}
		rs.work(wa)
		return nil
	}); err != nil {
		return assignOutcome{}, err // a worker that never started
	}
	if rs.err != nil {
		return assignOutcome{}, rs.err
	}
	rs.res.pa = rs.res.pa.Clone()
	return rs.res, nil
}

// restarts is one assign call's restarts, climbed by one or more
// workers and folded into res exactly as a serial loop would.
//
// A worker claims the next restart and draws its random escape from rng
// under mu, so the generator is consumed in restart order whoever
// climbs what. Finished restarts are folded in restart order as soon as
// every earlier one is: a restart replaces the best when its peak is
// more than timeEps below it, restart 0's fold is the record's, and a
// fold at or below timeEps ends the call — no later restart is claimed,
// and one already climbing is dropped. Iterations and the tentative
// counts are those of the folded restarts.
//
// The fold's assignment is copied into fold and the record's into kept,
// both arena storage, and only the one assign returns is cloned. A
// restart folded as it finishes is copied from its worker's working
// assignment. One that finishes while an earlier restart still climbs
// keeps a clone of its assignment, but only while it may still be
// folded in: while it ends more than timeEps below the fold so far and
// no earlier finished restart ends at or below it.
type restarts struct {
	ctx      context.Context
	rec      *assignRecord
	initial  *PathAssignment
	cands    *Candidates
	top      *topology.Topology
	ws       []Window
	act      *Activity
	linkCap  []float64
	maxInner int

	mu     sync.Mutex
	rng    *rand.Rand
	first  int              // the first restart this call climbs: 0, or 1 after a record
	next   int              // the next restart to claim
	stop   int              // no restart at or past stop is claimed or folded
	folded int              // the restarts before folded are in res
	out    []restartOutcome // out[k-first] is restart k's
	fold   *PathAssignment  // arena storage for the fold's assignment
	kept   *PathAssignment  // arena storage for the record's
	res    assignOutcome    // the fold so far; res.pa is nil until the start is in it
	err    error            // the context error of the first restart folded that saw one
}

// restartOutcome is a finished restart as the fold needs it.
type restartOutcome struct {
	done             bool
	err              error
	peak             float64
	evals            int
	computed, reused int             // tentative scores
	pa               *PathAssignment // nil once the restart cannot be folded in
	spot             peakSpot        // the final state's peak, set with pa
}

// work claims and climbs restarts on arena a until none is left. a.cur
// starts as the initial assignment: restart 0 climbs from it, and a
// random escape reassigns every multi-path message, the only ones a
// climb moves.
func (rs *restarts) work(a *solveArena) {
	a.cur.copyFrom(rs.initial)
	for {
		rs.mu.Lock()
		k := rs.next
		if k >= rs.stop {
			rs.mu.Unlock()
			return
		}
		rs.next++
		if k > 0 {
			randomize(&a.cur, rs.cands, rs.rng) // Fig. 4's escape from local minima
		}
		rs.mu.Unlock()
		rs.finish(k, rs.climb(a, k))
	}
}

// climb climbs restart k from a.cur on a's LoadState.
func (rs *restarts) climb(a *solveArena, k int) restartOutcome {
	if err := rs.ctx.Err(); err != nil {
		return restartOutcome{err: err}
	}
	ls := a.loadState(rs.top, &a.cur, rs.ws, rs.act, rs.linkCap)
	computed0, reused0 := ls.tentComputed, ls.tentReused // a pooled state carries earlier climbs' counts
	var o restartOutcome
	if k == 0 {
		// The start is the fold's first entry, and one evaluation.
		rs.mu.Lock()
		rs.fold.copyFrom(&a.cur)
		rs.res.pa, rs.res.spot = rs.fold, ls.peakAt()
		rs.res.evals++
		rs.mu.Unlock()
	}
	o.peak = a.climb(ls, rs.cands, rs.act, rs.maxInner, &o.evals)
	o.computed, o.reused = ls.tentComputed-computed0, ls.tentReused-reused0
	if rs.rec.onClimb != nil {
		rs.rec.onClimb(k, ls, &a.cur)
	}
	if fold, next := rs.mayFold(k, o.peak); fold {
		// The next restart to fold is folded as it finishes, before
		// this worker moves a.cur again; any other is kept as a clone.
		o.pa, o.spot = &a.cur, ls.peakAt()
		if !next {
			o.pa = a.cur.Clone()
		}
	}
	return o
}

// mayFold reports whether restart k, ending on peak, may still be folded
// in, and whether every earlier restart is folded, so that finish folds
// k at once. Once every earlier restart is folded it is the fold's own
// test.
func (rs *restarts) mayFold(k int, peak float64) (fold, next bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.res.pa != nil && !(peak < rs.res.spot.peak-timeEps) {
		return false, false
	}
	for i := rs.folded; i < k; i++ {
		if o := &rs.out[i-rs.first]; o.done && o.peak <= peak {
			return false, false
		}
	}
	return true, k == rs.folded
}

// finish records restart k's outcome and folds every restart it
// completes the prefix of.
func (rs *restarts) finish(k int, o restartOutcome) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	o.done = true
	rs.out[k-rs.first] = o
	if o.err != nil {
		rs.stop = min(rs.stop, k+1)
	}
	for i := k + 1; i < rs.next; i++ {
		if later := &rs.out[i-rs.first]; later.done && later.peak >= o.peak {
			later.pa = nil
		}
	}
	res := &rs.res
	for ; rs.folded < rs.stop; rs.folded++ {
		f := &rs.out[rs.folded-rs.first]
		if !f.done {
			return
		}
		if f.err != nil {
			rs.err, rs.stop = f.err, rs.folded
			return
		}
		res.evals += f.evals
		res.computed += f.computed
		res.reused += f.reused
		if f.peak < res.spot.peak-timeEps {
			rs.fold.copyFrom(f.pa)
			res.pa, res.spot = rs.fold, f.spot
		}
		f.pa = nil
		if rs.folded == 0 {
			rs.kept.copyFrom(res.pa)
			res.pa = rs.kept
			rs.rec.best, rs.rec.bestSpot = res.pa, res.spot
		}
		if res.spot.peak <= timeEps {
			rs.stop = rs.folded + 1 // cannot improve on zero
		}
	}
}

// climb is one restart of the hill-climb: it moves a.cur, whose
// accumulators ls holds, until no move reduces the peak or repositions
// it somewhere not yet visited, or maxInner moves were made. It adds
// the utilization evaluations it performs to *evals and returns the
// peak it ends on.
func (a *solveArena) climb(ls *LoadState, cands *Candidates, act *Activity, maxInner int, evals *int) float64 {
	current := &a.cur
	*evals++
	curPeak, curLink, curInterval := ls.PeakPosition()
	visited := map[assignPosition]bool{}
	for inner := 0; inner < maxInner; inner++ {
		pos := assignPosition{curLink, curInterval}
		visited[pos] = true
		a.msgBuf = reroutable(cands, act, ls, pos, a.msgBuf[:0])
		// Evaluate every alternative path of every peak message.
		type move struct {
			msg      tfg.MessageID
			cand     int
			peak     float64
			link     topology.LinkID
			interval int
		}
		var bestReduce, bestRepos move
		haveReduce, haveRepos := false, false
		for _, mi := range a.msgBuf {
			cur, links := current.Links[mi], cands.LinksOf[mi]
			for ci, c := range links {
				if slices.Equal(c, cur) {
					continue
				}
				*evals++
				// The loosest limit that still decides this move: a
				// candidate must beat the best reduction, or reduce at
				// all once a reposition is in hand, or else reposition.
				limit := curPeak + timeEps
				if haveReduce {
					limit = bestReduce.peak
				} else if haveRepos {
					limit = curPeak - timeEps
				}
				tp, tl, tk := ls.EvalReroute(mi, cur, c, limit)
				if tp < curPeak-timeEps {
					if !haveReduce || tp < bestReduce.peak {
						bestReduce = move{msg: mi, cand: ci, peak: tp, link: tl, interval: tk}
						haveReduce = true
					}
				} else if tp <= curPeak+timeEps {
					np := assignPosition{tl, tk}
					if np != pos && !visited[np] && !haveRepos {
						bestRepos = move{msg: mi, cand: ci, peak: tp, link: tl, interval: tk}
						haveRepos = true
					}
				}
			}
		}
		chosen := bestReduce
		if !haveReduce {
			chosen = bestRepos
		}
		if !haveReduce && !haveRepos {
			break // inner convergence: no reduction, no fresh reposition
		}
		p, links := cands.PathsOf[chosen.msg][chosen.cand], cands.LinksOf[chosen.msg][chosen.cand]
		ls.ApplyReroute(chosen.msg, current.Links[chosen.msg], links)
		current.SetPath(chosen.msg, p, links)
		curPeak, curLink, curInterval = chosen.peak, chosen.link, chosen.interval
	}
	return curPeak
}

// reroutable lists the multi-path messages that cross the peak link
// (and, for a hot-spot peak, are active in the peak interval), reading
// the peak link's member list from the LoadState instead of scanning
// every message's link list.
func reroutable(cands *Candidates, act *Activity, ls *LoadState, pos assignPosition, buf []tfg.MessageID) []tfg.MessageID {
	out := buf
	for _, i := range ls.members(int(pos.link)) {
		if len(cands.LinksOf[i]) < 2 {
			continue
		}
		if pos.interval >= 0 && !act.Active[i][pos.interval] {
			continue
		}
		out = append(out, tfg.MessageID(i))
	}
	return out
}

// randomize assigns every multi-path message a uniformly random
// candidate path.
func randomize(pa *PathAssignment, cands *Candidates, rng *rand.Rand) {
	for i, list := range cands.LinksOf {
		if len(list) < 2 {
			continue
		}
		c := rng.Intn(len(list))
		pa.SetPath(tfg.MessageID(i), cands.PathsOf[i][c], list[c])
	}
}
