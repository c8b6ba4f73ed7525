package schedule

import (
	"math/rand"
	"slices"

	"schedroute/internal/lp"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// solveArena is the per-Solve scratch pool: every hot stage of the
// Fig. 3 pipeline (path assignment and its restart fold, subset
// discovery, interval allocation, interval scheduling, Ω emission)
// borrows its working storage from here instead of allocating, and
// Validate and reserveOf keep theirs in pools of their own. Arenas live
// in a sync.Pool shared by every Solver, so a Solve often takes one that
// another period or problem shape warmed; every scratch array only grows
// and is resized in place. The zero value is ready to use: every
// sub-scratch sizes itself lazily and is fully overwritten before being
// read, so arena reuse can never change a result.
//
// A warm Solve allocates what its Result keeps — the Result, windows,
// intervals, activity rows, the LSD baseline's clone and the clone of
// each attempt's assignment, the allocation rows, the slices and Ω —
// and no scratch besides: interval endpoints are sorted in pts, every
// LP writes its solution over the last one's (lp.SolveInto), and each
// interval sizes the slice list for its sets before appending them
// (TestWarmSolveAllocations pins the count).
type solveArena struct {
	lp    *lp.Problem
	alloc allocScratch
	sched schedScratch
	sub   subsetScratch
	omega omegaScratch
	load  *LoadState
	rng   *rand.Rand
	pts   []float64 // interval endpoints before deduplication

	// The hill-climb's working assignment, which one worker's restarts
	// move, and the reroutable messages of its current peak.
	cur    PathAssignment
	msgBuf []tfg.MessageID

	// The assign call this arena runs: its restarts, their fold's
	// assignment and outcomes; and a Solve's assignRecord, with the
	// copy of restart 0's fold it keeps.
	restarts restarts
	fold     PathAssignment
	outs     []restartOutcome
	rec      assignRecord
	best     PathAssignment
}

// loadState returns the arena's pooled LoadState rebuilt for the given
// assignment. A state of the same dimensions is re-bound and Reset,
// which clears only the links its last assignment touched; any other is
// resized in place (newLoadState), so the arena never drops the arrays
// it holds.
func (a *solveArena) loadState(top *topology.Topology, pa *PathAssignment, ws []Window, act *Activity, linkCap []float64) *LoadState {
	ls := a.load
	if ls == nil || ls.nl != top.Links() || ls.K != act.Intervals.K() || len(ls.ws) != len(ws) {
		a.load = newLoadState(ls, top, pa, ws, act, linkCap)
		return a.load
	}
	ls.bind(ws, act, linkCap)
	ls.Reset(pa)
	return ls
}

// rand returns the arena's pooled generator reseeded with seed. Seed
// restarts the sequence rand.NewSource(seed) would produce, so a pooled
// generator draws exactly what a new one would.
func (a *solveArena) rand(seed int64) *rand.Rand {
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(seed))
	} else {
		a.rng.Seed(seed)
	}
	return a.rng
}

// lpProblem returns the arena's pooled LP rewound to an empty system
// over nvars variables.
func (a *solveArena) lpProblem(nvars int) *lp.Problem {
	if a.lp == nil {
		a.lp = lp.NewProblem(nvars)
	} else {
		a.lp.Reset(nvars)
	}
	return a.lp
}

// zeroed returns s resized to n all-zero elements, as make would leave
// them, reusing its backing array when the capacity suffices: the
// grow-only resize of every arena scratch.
func zeroed[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// allocScratch is the working storage of one allocateSubset call.
type allocScratch struct {
	// varOf maps flat cell mi*K+k to its LP variable. Entries are
	// written for every cell the current call reads before any read, so
	// no cross-call reset is needed.
	varOf   []int32
	cellMsg []int32
	cellK   []int32
	rowIdx  []int32
	rowVal  []float64
	x       []float64 // the LP's solution, in the last one's storage

	// rows is what is left of the allocateIntervals call's one backing
	// array for the rows of its free messages, which extract carves.
	rows []float64

	// Constraint (4)'s user lists of the current subset's links, its
	// free members and its pinned ones (layoutLinks).
	userOff []int32
	users   []tfg.MessageID

	// isFree flags the reallocatable (not pinned) messages, listed in
	// free; both are re-initialized for every member of the current
	// subset per call.
	isFree []bool
	free   []tfg.MessageID

	pivots int // simplex pivots of the current allocateIntervals call
}

func (sc *allocScratch) ensure(nmsgs, K int) {
	if len(sc.varOf) < nmsgs*K {
		sc.varOf = make([]int32, nmsgs*K)
	}
	if len(sc.isFree) < nmsgs {
		sc.isFree = make([]bool, nmsgs)
		sc.free = make([]tfg.MessageID, 0, nmsgs)
	}
}

// layoutLinks lays out, for every link l up to maxLink, the members of
// subset on l in compressed sparse row form, each list in subset order:
// list 2l holds the free members, 2l+1 the pinned ones, list i is
// users[userOff[i]:userOff[i+1]] (usersOf). A count per list at
// userOff[i+2], a prefix sum over ascending lists that leaves
// userOff[i+1] at list i's start, then a fill that moves userOff[i+1]
// on to i's end, which is i+1's start.
func (sc *allocScratch) layoutLinks(subset []tfg.MessageID, pa *PathAssignment, maxLink int) {
	list := func(mi tfg.MessageID, l topology.LinkID) int {
		if sc.isFree[mi] {
			return 2 * int(l)
		}
		return 2*int(l) + 1
	}
	off := zeroed(sc.userOff, 2*maxLink+4)
	for _, mi := range subset {
		for _, l := range pa.Links[mi] {
			off[list(mi, l)+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	sc.users = slices.Grow(sc.users[:0], int(off[len(off)-1]))[:off[len(off)-1]]
	for _, mi := range subset {
		for _, l := range pa.Links[mi] {
			i := list(mi, l) + 1
			sc.users[off[i]] = mi
			off[i]++
		}
	}
	sc.userOff = off
}

// usersOf returns list i of the last layoutLinks.
func (sc *allocScratch) usersOf(i int) []tfg.MessageID {
	return sc.users[sc.userOff[i]:sc.userOff[i+1]]
}
