package alloc_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/pkg/schedroute"
)

// freshRandom is Random as it was before its generator was pooled: a
// new source per call.
func freshRandom(g *tfg.Graph, top *topology.Topology, seed int64) []topology.NodeID {
	perm := rand.New(rand.NewSource(seed)).Perm(top.Nodes())
	out := make([]topology.NodeID, g.NumTasks())
	for t := range out {
		out[t] = topology.NodeID(perm[t])
	}
	return out
}

// TestRandomPooledMatchesFreshSource: on every (graph, machine) of the
// svc_churn benchmark pool, Random at seeds 0..63 returns the placement
// a fresh rand.NewSource(seed) gives, called in turn and from four
// goroutines at once, each walking the seeds in its own order.
func TestRandomPooledMatchesFreshSource(t *testing.T) {
	raw, err := os.ReadFile("../../bench/workloads/svc_churn.json")
	if err != nil {
		t.Fatal(err)
	}
	var w struct {
		Entries []struct {
			Problem struct {
				TFG      string `json:"tfg"`
				Topology string `json:"topology"`
			} `json:"problem"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	type machine struct{ tfg, topo string }
	var machines []machine
	for _, e := range w.Entries {
		if m := (machine{e.Problem.TFG, e.Problem.Topology}); !slices.Contains(machines, m) {
			machines = append(machines, m)
		}
	}
	if len(machines) < 2 {
		t.Fatalf("svc_churn names %d machines", len(machines))
	}
	const seeds = 64
	for _, m := range machines {
		g, err := schedroute.LoadGraph(m.tfg)
		if err != nil {
			t.Fatal(err)
		}
		top, err := schedroute.ParseTopology(m.topo)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]topology.NodeID, seeds)
		for s := range want {
			want[s] = freshRandom(g, top, int64(s))
		}
		check := func(seed int) {
			a, err := alloc.Random(g, top, int64(seed))
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(a.NodeOf, want[seed]) {
				t.Errorf("%s on %s, seed %d: pooled %v, fresh source %v", m.tfg, m.topo, seed, a.NodeOf, want[seed])
			}
		}
		for s := 0; s < seeds; s++ {
			check(s)
		}
		var wg sync.WaitGroup
		for gr := 0; gr < 4; gr++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, s := range rand.New(rand.NewSource(int64(gr))).Perm(seeds) {
					check(s)
				}
			}()
		}
		wg.Wait()
	}
}
