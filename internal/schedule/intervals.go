package schedule

import "sort"

// IntervalSet is the partition of [0, τin] induced by the distinct
// message releases and deadlines (Section 5.1): endpoints
// t_0=0 < t_1 < ... < t_K = τin.
type IntervalSet struct {
	TauIn     float64
	Endpoints []float64
}

// K returns the number of intervals.
func (s *IntervalSet) K() int { return len(s.Endpoints) - 1 }

// Bounds returns interval k as [t_{k}, t_{k+1}) for k in [0, K).
func (s *IntervalSet) Bounds(k int) (float64, float64) {
	return s.Endpoints[k], s.Endpoints[k+1]
}

// Length returns the length of interval k.
func (s *IntervalSet) Length(k int) float64 {
	return s.Endpoints[k+1] - s.Endpoints[k]
}

// BuildIntervals collects the frame-relative window endpoints of all
// non-local messages and returns the induced interval partition.
func BuildIntervals(ws []Window, tauIn float64) *IntervalSet {
	pts := []float64{0, tauIn}
	for _, w := range ws {
		if w.Local {
			continue
		}
		if w.Length >= tauIn-timeEps {
			continue // full-frame window adds no endpoints
		}
		pts = append(pts, w.Release, w.Deadline(tauIn))
	}
	sort.Float64s(pts)
	uniq := pts[:1]
	for _, p := range pts[1:] {
		if p-uniq[len(uniq)-1] > timeEps {
			uniq = append(uniq, p)
		}
	}
	// Snap the last endpoint to exactly τin.
	uniq[len(uniq)-1] = tauIn
	return &IntervalSet{TauIn: tauIn, Endpoints: append([]float64(nil), uniq...)}
}

// Activity is the message activity matrix A = [a_ik] of Section 5.1:
// Active[i][k] is true when message i is available for transmission
// throughout interval k. Local messages have all-false rows.
type Activity struct {
	Intervals *IntervalSet
	Active    [][]bool
}

// BuildActivity evaluates each window against each interval. Windows
// are unions of whole intervals by construction, so a midpoint test is
// exact.
func BuildActivity(ws []Window, set *IntervalSet) *Activity {
	act := &Activity{
		Intervals: set,
		Active:    make([][]bool, len(ws)),
	}
	for i, w := range ws {
		row := make([]bool, set.K())
		if !w.Local {
			for k := 0; k < set.K(); k++ {
				a, b := set.Bounds(k)
				row[k] = w.Contains((a+b)/2, set.TauIn)
			}
		}
		act.Active[i] = row
	}
	return act
}
