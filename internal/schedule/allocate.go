package schedule

import (
	"context"
	"fmt"

	"schedroute/internal/lp"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// Allocation is the message-interval allocation matrix P = [p_ik] of
// Section 5.2: P[i][k] is the time for which message i transmits within
// interval k. Rows of local messages are nil.
type Allocation struct {
	P [][]float64
}

// ErrAllocationInfeasible is returned when the Section 5.2 linear
// system (constraints 3 and 4) has no solution for some maximal subset —
// one of the failure modes the paper reports for the 8x8 torus (Fig. 9).
type ErrAllocationInfeasible struct {
	Subset []tfg.MessageID
}

func (e *ErrAllocationInfeasible) Error() string {
	return fmt.Sprintf("schedule: message-interval allocation infeasible for subset of %d messages", len(e.Subset))
}

// AllocateIntervals solves the allocation problem independently per
// maximal subset: variables X_ik >= 0 for each active (message,
// interval) cell, with
//
//	(3) sum_k X_ik = Xmit_i                       for every message i
//	(4) sum_{i on link j} X_ik <= |A_k|           for every (link, interval)
//
// solved as a linear feasibility program (see DESIGN.md §3.5 on why the
// LP relaxation of the paper's integer program is exact here).
func AllocateIntervals(subsets [][]tfg.MessageID, pa *PathAssignment, ws []Window, act *Activity) (*Allocation, error) {
	var a solveArena
	return allocateIntervals(context.Background(), &a, subsets, pa, ws, act, nil, nil)
}

// allocPin holds part of an allocation fixed — the heart of incremental
// schedule repair: every message free does not report keeps its row of
// base, and only the free (rerouted) messages get fresh allocations,
// solved against the residual per-(link, interval) capacity the pinned
// reservations leave. Every pinned non-local message must have a row in
// base.
type allocPin struct {
	base *Allocation
	free func(tfg.MessageID) bool
}

// allocateIntervals is AllocateIntervals on a pooled arena, against a
// per-link capacity vector (see Options.LinkCap; nil is the whole
// machine) and an optional pin (nil frees every message). Every
// constraint-(4) right-hand side is linkCap[j]·|A_k| less the pinned
// usage, so neither a fresh solve nor an incremental repair can grow a
// tenant's traffic beyond its reserved share. A done ctx stops the LP
// (lp.SolveInto) and comes back as ctx.Err(), bare; the pivots spent
// are left in a.alloc.pivots.
func allocateIntervals(ctx context.Context, a *solveArena, subsets [][]tfg.MessageID, pa *PathAssignment, ws []Window, act *Activity, linkCap []float64, pin *allocPin) (*Allocation, error) {
	K := act.Intervals.K()
	out := &Allocation{P: make([][]float64, len(ws))}
	sc := &a.alloc
	sc.pivots = 0
	free := 0
	for _, subset := range subsets {
		for _, mi := range subset {
			if pin == nil || pin.free(mi) {
				free++
			}
		}
	}
	sc.rows = make([]float64, free*K)
	defer func() { sc.rows = nil }() // out keeps the rows, not the arena
	for _, subset := range subsets {
		if err := allocateSubset(ctx, a, subset, pin, pa, ws, act, K, out, linkCap); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxLinkOf returns the largest link ID any subset member crosses.
func maxLinkOf(subset []tfg.MessageID, pa *PathAssignment) topology.LinkID {
	maxLink := topology.LinkID(-1)
	for _, mi := range subset {
		for _, l := range pa.Links[mi] {
			if l > maxLink {
				maxLink = l
			}
		}
	}
	return maxLink
}

// buildCells assigns one LP variable per active (message, interval) cell
// of the given messages, filling the flat varOf index. Every varOf entry
// read later this call is written here, so stale entries from earlier
// calls are harmless.
func (sc *allocScratch) buildCells(msgs []tfg.MessageID, act *Activity, K int) {
	sc.cellMsg = sc.cellMsg[:0]
	sc.cellK = sc.cellK[:0]
	for _, mi := range msgs {
		row := act.Active[mi]
		base := int(mi) * K
		for k := 0; k < K; k++ {
			if row[k] {
				sc.varOf[base+k] = int32(len(sc.cellMsg))
				sc.cellMsg = append(sc.cellMsg, int32(mi))
				sc.cellK = append(sc.cellK, int32(k))
			}
		}
	}
}

// demandRow assembles message mi's constraint-(3) row (all ones over its
// active cells, ascending variable index) into the row buffers.
func (sc *allocScratch) demandRow(mi tfg.MessageID, act *Activity, K int) ([]int32, []float64) {
	sc.rowIdx = sc.rowIdx[:0]
	sc.rowVal = sc.rowVal[:0]
	row := act.Active[mi]
	base := int(mi) * K
	for k := 0; k < K; k++ {
		if row[k] {
			sc.rowIdx = append(sc.rowIdx, sc.varOf[base+k])
			sc.rowVal = append(sc.rowVal, 1)
		}
	}
	return sc.rowIdx, sc.rowVal
}

// addCellCaps adds the per-cell capacity rows: no cell may exceed its
// interval length (implied by (4) when the message uses a link, and
// required for exactness).
func addCellCaps(prob *lp.Problem, sc *allocScratch, act *Activity) error {
	var ji [1]int32
	var jv = [1]float64{1}
	for vi := range sc.cellMsg {
		ji[0] = int32(vi)
		if err := prob.AddRow(ji[:], jv[:], lp.LE, act.Intervals.Length(int(sc.cellK[vi]))); err != nil {
			return err
		}
	}
	return nil
}

// extract copies the LP solution into out, each free message's row the
// next capped window of rows, clamping the solver's tiny negative
// residuals to zero.
func (sc *allocScratch) extract(sol lp.Solution, K int, out *Allocation) {
	for vi := range sc.cellMsg {
		mi := sc.cellMsg[vi]
		if out.P[mi] == nil {
			out.P[mi], sc.rows = sc.rows[:K:K], sc.rows[K:]
		}
		v := sol.X[vi]
		if v < 0 {
			v = 0
		}
		out.P[mi][sc.cellK[vi]] = v
	}
}

// allocateSubset solves the allocation LP for the free members of one
// maximal subset (all of them, in a plain solve); the pinned members
// keep their base rows in out and consume capacity on every (link,
// interval) they occupy.
func allocateSubset(ctx context.Context, a *solveArena, subset []tfg.MessageID, pin *allocPin, pa *PathAssignment, ws []Window, act *Activity, K int, out *Allocation, linkCap []float64) error {
	sc := &a.alloc
	maxLink := maxLinkOf(subset, pa)
	sc.ensure(len(ws), K)
	freeMsgs := sc.free[:0]
	for _, mi := range subset {
		sc.isFree[mi] = pin == nil || pin.free(mi)
		if sc.isFree[mi] {
			freeMsgs = append(freeMsgs, mi)
		} else if pin.base.P[mi] == nil {
			return fmt.Errorf("schedule: pinned message %d has no base allocation", mi)
		} else {
			out.P[mi] = append([]float64(nil), pin.base.P[mi]...)
		}
	}
	sc.free = freeMsgs
	if len(freeMsgs) == 0 {
		return nil
	}
	sc.buildCells(freeMsgs, act, K)
	prob := a.lpProblem(len(sc.cellMsg))

	// (3) Demand equality per free message.
	for _, mi := range freeMsgs {
		idx, val := sc.demandRow(mi, act, K)
		if len(idx) == 0 {
			return &ErrAllocationInfeasible{Subset: subset}
		}
		if err := prob.AddRow(idx, val, lp.EQ, ws[mi].Xmit); err != nil {
			return err
		}
	}

	if err := addCellCaps(prob, sc, act); err != nil {
		return err
	}

	// (4) Link capacity per (link, interval) a free message touches, the
	// pinned usage subtracted from the right-hand side: pinning is a
	// residual, not a second system, and it binds even a link's only
	// free user. The per-link message lists are laid out once and walked
	// in ascending link order, so the LP sees constraints in a
	// deterministic order.
	sc.layoutLinks(subset, pa, int(maxLink))
	for l := 0; l <= int(maxLink); l++ {
		users := sc.usersOf(2 * l)
		if len(users) == 0 {
			continue
		}
		// A reserved share below 1 binds even a lone message (the cell
		// cap alone would let it fill the whole physical interval).
		share := 1.0
		if linkCap != nil {
			if share = linkCap[l]; share < 0 {
				share = 0
			}
		}
		for k := 0; k < K; k++ {
			sc.rowIdx = sc.rowIdx[:0]
			sc.rowVal = sc.rowVal[:0]
			for _, mi := range users {
				if act.Active[mi][k] {
					sc.rowIdx = append(sc.rowIdx, sc.varOf[int(mi)*K+k])
					sc.rowVal = append(sc.rowVal, 1)
				}
			}
			if len(sc.rowIdx) == 0 {
				continue
			}
			residual := share * act.Intervals.Length(k)
			for _, mi := range sc.usersOf(2*l + 1) {
				if out.P[mi] != nil {
					residual -= out.P[mi][k]
				}
			}
			if residual < 0 {
				residual = 0
			}
			if len(sc.rowIdx) < 2 && residual >= act.Intervals.Length(k) {
				continue // lone free message at full share, no pinned pressure: cell cap suffices
			}
			if err := prob.AddRow(sc.rowIdx, sc.rowVal, lp.LE, residual); err != nil {
				return err
			}
		}
	}

	sol, err := prob.SolveInto(ctx, sc.x)
	if err != nil {
		return err
	}
	sc.pivots += sol.Pivots
	if sol.Status != lp.Optimal {
		return &ErrAllocationInfeasible{Subset: subset}
	}
	sc.x = sol.X
	sc.extract(sol, K, out)
	return nil
}
