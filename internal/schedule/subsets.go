package schedule

import (
	"schedroute/internal/tfg"
)

// subsetScratch is the pooled working storage of maximalSubsets, and
// the storage of the subsets it returns: out's rows are windows of
// members.
type subsetScratch struct {
	parent  []int32
	firstIn []int32
	gidx    []int32
	sizes   []int32
	members []tfg.MessageID
	out     [][]tfg.MessageID
}

// MaximalSubsets partitions the non-local messages into the maximal
// related subsets of Definitions 5.3/5.4: two messages are related when
// they are simultaneously active on a shared link in a shared interval,
// closed transitively. Message-interval allocation and interval
// scheduling decompose over these subsets.
func MaximalSubsets(pa *PathAssignment, ws []Window, act *Activity) [][]tfg.MessageID {
	var a solveArena
	return maximalSubsets(&a, pa, ws, act)
}

// maximalSubsets is MaximalSubsets on a pooled arena. The subsets live
// in the arena's storage until its next call.
func maximalSubsets(a *solveArena, pa *PathAssignment, ws []Window, act *Activity) [][]tfg.MessageID {
	sc := &a.sub
	n := len(ws)
	if cap(sc.parent) < n {
		sc.parent = make([]int32, n)
		sc.gidx = make([]int32, n)
	}
	parent := sc.parent[:n]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// Group messages by (link, interval) cell and union each group,
	// indexing cells as link*K+k in one flat slice (-1 = empty).
	K := act.Intervals.K()
	maxLink := 0
	nonLocal := 0
	for i := 0; i < n; i++ {
		if ws[i].Local {
			continue
		}
		nonLocal++
		for _, l := range pa.Links[i] {
			if int(l) > maxLink {
				maxLink = int(l)
			}
		}
	}
	ncells := (maxLink + 1) * K
	if cap(sc.firstIn) < ncells {
		sc.firstIn = make([]int32, ncells)
	}
	firstIn := sc.firstIn[:ncells]
	for c := range firstIn {
		firstIn[c] = -1
	}
	for i := 0; i < n; i++ {
		if ws[i].Local {
			continue
		}
		for _, l := range pa.Links[i] {
			base := int(l) * K
			for k := 0; k < K; k++ {
				if !act.Active[i][k] {
					continue
				}
				if j := firstIn[base+k]; j >= 0 {
					ra, rb := find(j), find(int32(i))
					if ra != rb {
						parent[rb] = ra
					}
				} else {
					firstIn[base+k] = int32(i)
				}
			}
		}
	}

	// Assemble groups in two ascending passes: groups are numbered in
	// order of their smallest member and members arrive ascending, so
	// the output needs no sorting and equals the sorted-map original.
	// The member slices are freshly allocated off one shared backing —
	// they can outlive the arena (e.g. inside allocation errors).
	gidx := sc.gidx[:n]
	for i := range gidx {
		gidx[i] = -1
	}
	sc.sizes = sc.sizes[:0]
	ng := int32(0)
	for i := 0; i < n; i++ {
		if ws[i].Local {
			continue
		}
		r := find(int32(i))
		if gidx[r] < 0 {
			gidx[r] = ng
			sc.sizes = append(sc.sizes, 0)
			ng++
		}
		sc.sizes[gidx[r]]++
	}
	sc.members = zeroed(sc.members, nonLocal)
	sc.out = zeroed(sc.out, int(ng))
	backing, out := sc.members, sc.out
	off := 0
	for g := range out {
		end := off + int(sc.sizes[g])
		out[g] = backing[off:off:end]
		off = end
	}
	for i := 0; i < n; i++ {
		if ws[i].Local {
			continue
		}
		g := gidx[find(int32(i))]
		out[g] = append(out[g], tfg.MessageID(i))
	}
	return out
}
