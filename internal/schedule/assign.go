package schedule

import (
	"context"
	"math/rand"
	"slices"

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
	Util       *Utilization
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
// unchanged.
func AssignPaths(initial *PathAssignment, cands *Candidates, top *topology.Topology, ws []Window, act *Activity, seed int64, maxOuter, maxInner int) *AssignPathsResult {
	var a solveArena
	var rec assignRecord
	res, _ := rec.assign(context.Background(), &a, initial, cands, top, ws, act, seed, maxOuter, maxInner, nil) // Background is never done
	return res
}

// assignRecord carries AssignPaths from one seed to the next over the
// same inputs. Restart 0 climbs from the starting assignment and reads
// no seed, so its outcome is the same for every seed: the first assign
// climbs it and records the fold of the start and restart 0, and every
// later assign starts from that fold and climbs only its seeded
// restarts. The zero value has climbed nothing.
type assignRecord struct {
	best  *PathAssignment // the fold of the start and restart 0
	bestU *Utilization    // best's utilization; nil until restart 0 is climbed
	// current is the climb's working assignment. Only multi-path
	// messages ever move, and a random restart reassigns every one of
	// them, so what a seeded restart starts from depends on its seed
	// alone. Held by value, so a record on its caller's stack costs no
	// allocation.
	current PathAssignment
	msgBuf  []tfg.MessageID
}

// assign is AssignPaths on a pooled arena against a per-link capacity
// vector (see Options.LinkCap): the hill-climb minimizes the
// capacity-relative peak max_j U_j / linkCap[j], steering traffic away
// from links with little residual share. nil is the whole machine.
// Restart 0 runs on the record's first call only (see assignRecord);
// the result's counts are of the work this call performed. ctx is
// looked at once per restart; a done one is the only error.
func (r *assignRecord) assign(ctx context.Context, a *solveArena, initial *PathAssignment, cands *Candidates, top *topology.Topology, ws []Window, act *Activity, seed int64, maxOuter, maxInner int, linkCap []float64) (*AssignPathsResult, error) {
	maxOuter, maxInner = max(maxOuter, 1), max(maxInner, 1)
	rng := a.rand(seed)
	res := &AssignPathsResult{Assignment: r.best, Util: r.bestU}
	outer := 0
	if r.bestU != nil {
		outer = 1
	}
	for ; outer < maxOuter; outer++ {
		if outer > 0 {
			if res.Util.Peak <= timeEps {
				break // cannot improve on zero
			}
			// Random restart (Fig. 4's escape from local minima).
			randomize(&r.current, cands, rng)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if outer == 0 {
			r.current = PathAssignment{
				Paths: slices.Clone(initial.Paths),
				Links: slices.Clone(initial.Links),
			}
		}
		ls := a.loadState(top, &r.current, ws, act, linkCap)
		computed0, reused0 := ls.tentComputed, ls.tentReused // a pooled state carries earlier climbs' counts
		if outer == 0 {
			res.Iterations++
			res.Assignment, res.Util = r.current.Clone(), ls.Utilization()
		}
		peak := r.climb(ls, cands, act, maxInner, &res.Iterations)
		if peak < res.Util.Peak-timeEps {
			res.Assignment, res.Util = r.current.Clone(), ls.Utilization()
		}
		res.TentativeComputed += ls.tentComputed - computed0
		res.TentativeReused += ls.tentReused - reused0
		if outer == 0 {
			r.best, r.bestU = res.Assignment, res.Util
		}
	}
	return res, nil
}

// climb is one restart of the hill-climb: it moves r.current, whose
// accumulators ls holds, until no move reduces the peak or repositions
// it somewhere not yet visited, or maxInner moves were made. It adds
// the utilization evaluations it performs to *evals and returns the
// peak it ends on.
func (r *assignRecord) climb(ls *LoadState, cands *Candidates, act *Activity, maxInner int, evals *int) float64 {
	current := &r.current
	*evals++
	curPeak, curLink, curInterval := ls.PeakPosition()
	visited := map[assignPosition]bool{}
	for inner := 0; inner < maxInner; inner++ {
		pos := assignPosition{curLink, curInterval}
		visited[pos] = true
		r.msgBuf = reroutable(current, cands, act, ls, pos, r.msgBuf[:0])
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
		for _, mi := range r.msgBuf {
			cur := current.Paths[mi]
			for ci, c := range cands.PathsOf[mi] {
				if c.path.Equal(cur) {
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
				tp, tl, tk := ls.EvalReroute(mi, current.Links[mi], c.links, limit)
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
		c := cands.PathsOf[chosen.msg][chosen.cand]
		ls.ApplyReroute(chosen.msg, current.Links[chosen.msg], c.links)
		current.SetPath(chosen.msg, c.path, c.links)
		curPeak, curLink, curInterval = chosen.peak, chosen.link, chosen.interval
	}
	return curPeak
}

// reroutable lists the multi-path messages that cross the peak link
// (and, for a hot-spot peak, are active in the peak interval), reading
// the peak link's membership set from the LoadState instead of scanning
// every message's link list.
func reroutable(pa *PathAssignment, cands *Candidates, act *Activity, ls *LoadState, pos assignPosition, buf []tfg.MessageID) []tfg.MessageID {
	out := buf
	ls.memberRow(int(pos.link)).forEach(func(i int) {
		if len(cands.PathsOf[i]) < 2 {
			return
		}
		if pos.interval >= 0 && !act.Active[i][pos.interval] {
			return
		}
		out = append(out, tfg.MessageID(i))
	})
	return out
}

// randomize assigns every multi-path message a uniformly random
// candidate path.
func randomize(pa *PathAssignment, cands *Candidates, rng *rand.Rand) {
	for i, list := range cands.PathsOf {
		if len(list) < 2 {
			continue
		}
		c := list[rng.Intn(len(list))]
		pa.SetPath(tfg.MessageID(i), c.path, c.links)
	}
}
