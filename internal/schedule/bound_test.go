package schedule

import (
	"strings"
	"testing"
)

// TestPeakNeverBelowNodeDegreeBound holds peakLowerBound under the peak
// of every standard-grid point and compile_lp pool entry — both the
// pipeline's Peak and the LSD baseline's PeakLSD — with the bound taken
// over the windows, LSD paths and candidates the solve itself used. On
// the tori at B=64 the bound is the pipeline's peak of 2 at every load
// point: Fig. 6's flat 2.0 is the optimum, not a heuristic miss.
func TestPeakNeverBelowNodeDegreeBound(t *testing.T) {
	pool, poolOpt := compileLPPool(t)
	type run struct {
		entries []poolEntry
		opt     Options
	}
	tight, total := 0, 0
	for _, r := range []run{{standardGrid(t), Options{Seed: 1}}, {pool, poolOpt}} {
		for _, e := range r.entries {
			total++
			res, err := Compute(e.p, r.opt)
			if err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			p := e.p
			lsd, err := FaultRouteAssignment(p.Graph, p.Topology, p.Assignment, res.Windows, nil)
			if err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			cands, err := BuildCandidatesFault(p.Graph, p.Topology, p.Assignment, res.Windows, 24, nil)
			if err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			bound := peakLowerBound(lsd, cands, res.Windows, res.Activity)
			if bound > res.Peak || bound > res.PeakLSD {
				t.Errorf("%s: node-degree bound %v above Peak %v or PeakLSD %v", e.id, bound, res.Peak, res.PeakLSD)
			}
			if bound == res.Peak {
				tight++
			}
			if strings.HasPrefix(e.id, "torus") && strings.Contains(e.id, "-b64-") && (bound != 2 || res.Peak != 2) {
				t.Errorf("%s: bound %v, Peak %v; want both 2", e.id, bound, res.Peak)
			}
		}
	}
	t.Logf("bound equals Peak at %d of %d problems", tight, total)
}
