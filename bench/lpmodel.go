package main

import (
	"schedroute/internal/lp"
	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// lpShape is the size of the linear systems one allocation stage poses.
type lpShape struct {
	solves, rows, cols, nnz int
}

// restateAllocation poses the paper's §5.2 message-interval allocation
// as linear feasibility programs, one per maximal subset, through the
// lp package's public API, reading only what the earlier stages
// published: the subsets, each message's link set, the activity matrix
// and the transmission times. Variables are X_ik >= 0 for every active
// (message, interval) cell, under
//
//	(3)  sum_k X_ik = Xmit_i                    for every message i
//	     X_ik <= |A_k|                          for every cell
//	(4)  sum_{i on link j} X_ik <= |A_k|        for every (link, interval) two or more messages share
//
// It stops at the first infeasible subset, as the allocation stage does,
// so its verdict and the work it times are the stage's own. solve is
// called around every lp Solve so the caller can time that call alone.
func restateAllocation(subsets [][]tfg.MessageID, pa *schedule.PathAssignment, ws []schedule.Window, act *schedule.Activity, solve func(p *lp.Problem) lp.Solution) (feasible bool, shape lpShape, err error) {
	K := act.Intervals.K()
	for _, subset := range subsets {
		// One variable per active cell, message-major.
		varOf := make(map[[2]int]int32)
		for _, mi := range subset {
			for k := 0; k < K; k++ {
				if act.Active[mi][k] {
					varOf[[2]int{int(mi), k}] = int32(len(varOf))
				}
			}
		}
		prob := lp.NewProblem(len(varOf))
		rows := 0
		add := func(idx []int32, op lp.Op, b float64) error {
			val := make([]float64, len(idx))
			for i := range val {
				val[i] = 1
			}
			rows++
			shape.nnz += len(idx)
			return prob.AddRow(idx, val, op, b)
		}
		onLink := map[topology.LinkID][]tfg.MessageID{}
		maxLink := topology.LinkID(-1)
		for _, mi := range subset {
			var cells []int32
			for k := 0; k < K; k++ {
				if v, ok := varOf[[2]int{int(mi), k}]; ok {
					cells = append(cells, v)
				}
			}
			if len(cells) == 0 {
				return false, shape, nil // a message with no interval to transmit in
			}
			if err := add(cells, lp.EQ, ws[mi].Xmit); err != nil {
				return false, shape, err
			}
			for _, l := range pa.Links[mi] {
				onLink[l] = append(onLink[l], mi)
				maxLink = max(maxLink, l)
			}
		}
		for _, mi := range subset {
			for k := 0; k < K; k++ {
				if v, ok := varOf[[2]int{int(mi), k}]; ok {
					if err := add([]int32{v}, lp.LE, act.Intervals.Length(k)); err != nil {
						return false, shape, err
					}
				}
			}
		}
		for l := topology.LinkID(0); l <= maxLink; l++ { // ascending, so the system is the same every run
			msgs := onLink[l]
			if len(msgs) < 2 {
				continue
			}
			for k := 0; k < K; k++ {
				var cells []int32
				for _, mi := range msgs { // ascending message id = ascending variable
					if v, ok := varOf[[2]int{int(mi), k}]; ok {
						cells = append(cells, v)
					}
				}
				if len(cells) < 2 {
					continue
				}
				if err := add(cells, lp.LE, act.Intervals.Length(k)); err != nil {
					return false, shape, err
				}
			}
		}
		shape.solves++
		shape.rows += rows
		shape.cols += len(varOf)
		if solve(prob).Status != lp.Optimal {
			return false, shape, nil
		}
	}
	return true, shape, nil
}
