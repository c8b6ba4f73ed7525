package alloc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"schedroute/internal/dvb"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// annealReference is the annealer as it stood before it kept its link
// loads move by move: every proposed move zeroes a float64 load per
// link, routes every message again and sums the squares in link order.
// Anneal must draw the same random numbers, take the same decisions and
// return the same placement. The second result is the cost of the
// placement the walk ended at.
func annealReference(g *tfg.Graph, top *topology.Topology, opt AnnealOptions) (*Assignment, float64) {
	rng := rand.New(rand.NewSource(opt.Seed))
	cur, _ := Random(g, top, opt.Seed)
	nodeTask := make([]int, top.Nodes())
	for t, n := range cur.NodeOf {
		nodeTask[n] = t + 1
	}
	linkLoad := make([]float64, top.Links())
	var links []topology.LinkID
	cost := func() float64 {
		for i := range linkLoad {
			linkLoad[i] = 0
		}
		for _, m := range g.Messages() {
			links = top.AppendLSDLinks(links[:0], cur.NodeOf[m.Src], cur.NodeOf[m.Dst])
			for _, l := range links {
				linkLoad[l] += float64(m.Bytes)
			}
		}
		sum := 0.0
		for _, v := range linkLoad {
			sum += v * v
		}
		return sum
	}
	curCost := cost()
	norm := curCost
	if norm == 0 {
		return cur, 0
	}
	best := &Assignment{NodeOf: append([]topology.NodeID(nil), cur.NodeOf...)}
	bestCost := curCost
	cooling := math.Pow(0.001/1.0, 1/float64(opt.Steps))
	temp := 1.0
	for step := 0; step < opt.Steps; step++ {
		t1 := rng.Intn(g.NumTasks())
		n1 := cur.NodeOf[t1]
		n2 := topology.NodeID(rng.Intn(top.Nodes()))
		if n1 == n2 {
			temp *= cooling
			continue
		}
		occupant := nodeTask[n2] - 1
		cur.NodeOf[t1] = n2
		nodeTask[n2] = t1 + 1
		if occupant >= 0 {
			cur.NodeOf[occupant] = n1
			nodeTask[n1] = occupant + 1
		} else {
			nodeTask[n1] = 0
		}
		newCost := cost()
		accept := newCost <= curCost
		if !accept {
			delta := (newCost - curCost) / norm
			accept = rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			curCost = newCost
			if curCost < bestCost {
				bestCost = curCost
				copy(best.NodeOf, cur.NodeOf)
			}
		} else {
			cur.NodeOf[t1] = n1
			nodeTask[n1] = t1 + 1
			if occupant >= 0 {
				cur.NodeOf[occupant] = n2
				nodeTask[n2] = occupant + 1
			} else {
				nodeTask[n2] = 0
			}
		}
		temp *= cooling
	}
	return best, cost()
}

// checkAgainstReference runs both annealers and compares the placements,
// the final costs bit for bit and, link by link, the loads Anneal was left holding with a fresh
// build for the placement its walk ended at. It returns those loads.
func checkAgainstReference(t *testing.T, g *tfg.Graph, top *topology.Topology, opt AnnealOptions) *linkLoads {
	t.Helper()
	name := fmt.Sprintf("%s on %v seed %d steps %d", g.Name(), top, opt.Seed, opt.Steps)
	got, loads, err := anneal(context.Background(), g, top, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantCost := annealReference(g, top, opt)
	if !slices.Equal(got.NodeOf, want.NodeOf) {
		t.Fatalf("%s: placement %v, the full recompute finds %v", name, got.NodeOf, want.NodeOf)
	}
	if c := loads.cost(); math.Float64bits(c) != math.Float64bits(wantCost) {
		t.Fatalf("%s: walk ends at cost %b, the full recompute at %b", name, c, wantCost)
	}
	fresh := newLinkLoads(g, top, loads.nodeOf)
	if loads.sumSq != fresh.sumSq {
		t.Fatalf("%s: running sum of squares %v, rebuilt %v", name, loads.sumSq, fresh.sumSq)
	}
	if !slices.Equal(loads.load, fresh.load) {
		t.Fatalf("%s: running link loads %v, rebuilt %v", name, loads.load, fresh.load)
	}
	for m := range fresh.route {
		if !slices.Equal(loads.route[m], fresh.route[m]) {
			t.Fatalf("%s: message %d kept route %v, rebuilt %v", name, m, loads.route[m], fresh.route[m])
		}
	}
	return loads
}

// scaleBytes copies g with every message k times as long.
func scaleBytes(t *testing.T, g *tfg.Graph, k int64) *tfg.Graph {
	t.Helper()
	b := tfg.NewBuilder(fmt.Sprintf("%s-x%d", g.Name(), k))
	for _, task := range g.Tasks() {
		b.AddTask(task.Name, task.Ops)
	}
	for _, m := range g.Messages() {
		b.AddMessage(m.Name, m.Src, m.Dst, m.Bytes*k)
	}
	scaled, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return scaled
}

func TestAnnealMatchesReference(t *testing.T) {
	need := func(top *topology.Topology, err error) *topology.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	cube := need(topology.NewHypercube(6))
	tops := []*topology.Topology{
		cube,
		need(topology.NewGHC(4, 4, 4)),
		need(topology.NewTorus(2, 8, 4)), // a 2-ring beside even rings
		need(topology.NewMesh(4, 4, 4)),
	}
	dvb4, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*tfg.Graph{dvb4}
	for seed := int64(1); seed <= 2; seed++ {
		g, err := tfg.RandomLayered(seed, []int{4, 8, 8, 4}, 400, 1925, 192, 3200, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, top := range tops {
		for _, g := range graphs {
			for seed := int64(1); seed <= 6; seed++ {
				for _, steps := range []int{1, 2000} {
					checkAgainstReference(t, g, top, AnnealOptions{Seed: seed, Steps: steps})
				}
			}
		}
	}
	// The default budget, where late low-temperature moves are nearly
	// all rejected and undone.
	checkAgainstReference(t, dvb4, cube, AnnealOptions{Seed: 2, Steps: 20000})
	checkAgainstReference(t, graphs[1], tops[2], AnnealOptions{Seed: 3, Steps: 20000})

	// Few tasks on a large machine: most moves go to a free node.
	for seed := int64(1); seed <= 3; seed++ {
		checkAgainstReference(t, dvb4, need(topology.NewTorus(16, 16)), AnnealOptions{Seed: seed, Steps: 2000})
	}

	// Long messages: the sum of squares leaves the integers float64
	// holds exactly, where it is the link-order float64 sum that must be
	// reproduced. The first scale is chosen so that the walk starts
	// above 2⁵³ and ends below it, crossing the boundary on the way.
	// Random byte counts, not DVB's round ones, so that squares and sums
	// really are rounded.
	const exact = float64(1 << 53)
	long := graphs[1]
	start, _ := Random(long, cube, 4)
	end, _ := Anneal(long, cube, AnnealOptions{Seed: 4, Steps: 2000})
	mid := math.Sqrt(LinkLoadCost(long, cube, start) * LinkLoadCost(long, cube, end))
	crossing := int64(math.Sqrt(exact / mid))
	for _, k := range []int64{crossing, 20011, 1000000007} {
		g := scaleBytes(t, long, k)
		for seed := int64(1); seed <= 6; seed++ {
			loads := checkAgainstReference(t, g, cube, AnnealOptions{Seed: seed, Steps: 2000})
			if seed != 4 {
				continue
			}
			from, _ := Random(g, cube, seed)
			startCost, endCost := LinkLoadCost(g, cube, from), loads.cost()
			if k == crossing && !(startCost >= exact && endCost < exact) {
				t.Errorf("scale %d: cost went %g -> %g, want 2^53 = %g in between", k, startCost, endCost, exact)
			}
			if k != crossing && endCost < exact {
				t.Errorf("scale %d: final cost %g is still an exact integer", k, endCost)
			}
		}
	}
}

func TestAnnealAllocs(t *testing.T) {
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Anneal(g, top, AnnealOptions{Seed: 2, Steps: steps}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2000), allocs(20000)
	if short != long || short > 64 {
		t.Errorf("Anneal allocates %v times over 2000 moves and %v over 20000, want equal and at most 64", short, long)
	}
}

func TestAnnealContextCancels(t *testing.T) {
	g, top := fixtures(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnnealContext(ctx, g, top, AnnealOptions{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled before the first move: err = %v, want context.Canceled", err)
	}
	// A budget of hours, abandoned after 20 ms.
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	began := time.Now()
	as, err := AnnealContext(ctx, g, top, AnnealOptions{Seed: 1, Steps: 2000000000})
	if !errors.Is(err, context.DeadlineExceeded) || as != nil {
		t.Errorf("deadline mid-search: placement %v, err = %v, want none and context.DeadlineExceeded", as, err)
	}
	if took := time.Since(began); took > time.Second {
		t.Errorf("deadline mid-search honoured after %v", took)
	}
}

func TestAnnealImprovesOnRandom(t *testing.T) {
	g, top := fixtures(t)
	random, err := Random(g, top, 5)
	if err != nil {
		t.Fatal(err)
	}
	annealed, err := Anneal(g, top, AnnealOptions{Seed: 5, Steps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if err := annealed.Validate(g, top, true); err != nil {
		t.Fatal(err)
	}
	rc := LinkLoadCost(g, top, random)
	ac := LinkLoadCost(g, top, annealed)
	if ac > rc {
		t.Errorf("annealing worsened the contention proxy: %g > %g", ac, rc)
	}
	if ac == 0 {
		t.Log("annealing reached a fully local placement")
	}
}

func TestAnnealDeterministic(t *testing.T) {
	g, top := fixtures(t)
	a, err := Anneal(g, top, AnnealOptions{Seed: 9, Steps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(g, top, AnnealOptions{Seed: 9, Steps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.NodeOf {
		if a.NodeOf[i] != b.NodeOf[i] {
			t.Fatal("annealing not deterministic for equal seeds")
		}
	}
}

func TestAnnealValidation(t *testing.T) {
	g, top := fixtures(t)
	if _, err := Anneal(g, top, AnnealOptions{Steps: -1}); err == nil {
		t.Error("negative steps should fail")
	}
	small, err := topology.NewHypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Anneal(g, small, AnnealOptions{}); err == nil {
		t.Error("oversubscription should fail")
	}
}

func TestAnnealBeatsRoundRobinOnDVB(t *testing.T) {
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Anneal(g, top, AnnealOptions{Seed: 1, Steps: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if ac, rc := LinkLoadCost(g, top, an), LinkLoadCost(g, top, rr); ac >= rc {
		t.Errorf("annealing (%g) should beat round-robin (%g) on the contention proxy", ac, rc)
	}
}
