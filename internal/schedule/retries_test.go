package schedule

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// poolEntry is one problem of a repository benchmark pool.
type poolEntry struct {
	id string
	p  Problem
}

// compileLPPool loads the repository benchmark's compile_lp pool and its
// options. Each problem is built as the service builds its spec: the
// layered generator at its fixed ops and bytes ranges, uniform timing at
// speed 50 and a round-robin placement.
func compileLPPool(t *testing.T) ([]poolEntry, Options) {
	t.Helper()
	raw, err := os.ReadFile("../../bench/workloads/compile_lp.json")
	if err != nil {
		t.Fatal(err)
	}
	var pool struct {
		Options struct {
			Seed    int64 `json:"seed"`
			Retries int   `json:"retries"`
		} `json:"options"`
		Entries []struct {
			ID      string `json:"id"`
			Problem struct {
				TFG       string  `json:"tfg"`
				Topology  string  `json:"topology"`
				Bandwidth float64 `json:"bandwidth"`
				TauIn     float64 `json:"tau_in"`
			} `json:"problem"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &pool); err != nil {
		t.Fatal(err)
	}
	ints := func(s string) []int {
		var out []int
		for _, f := range strings.Split(s, ",") {
			w, rep, _ := strings.Cut(f, "*")
			v, err := strconv.Atoi(w)
			if err != nil {
				t.Fatalf("spec field %q: %v", f, err)
			}
			n := 1
			if rep != "" {
				if n, err = strconv.Atoi(rep); err != nil {
					t.Fatalf("spec field %q: %v", f, err)
				}
			}
			for range n {
				out = append(out, v)
			}
		}
		return out
	}
	var out []poolEntry
	for _, e := range pool.Entries {
		spec, ok := strings.CutPrefix(e.Problem.TFG, "layered:")
		if !ok {
			t.Fatalf("%s: tfg %q is not layered", e.ID, e.Problem.TFG)
		}
		at := strings.LastIndexByte(spec, ',')
		density, err := strconv.ParseFloat(spec[at+1:], 64)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fields := ints(spec[:at])
		g, err := tfg.RandomLayered(int64(fields[0]), fields[1:], 400, 1925, 192, 3200, density)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		kind, radices, _ := strings.Cut(e.Problem.Topology, ":")
		var top *topology.Topology
		switch kind {
		case "cube":
			top, err = topology.NewHypercube(ints(radices)[0])
		case "ghc":
			top, err = topology.NewGHC(ints(radices)...)
		case "torus":
			top, err = topology.NewTorus(ints(radices)...)
		default:
			t.Fatalf("%s: topology %q", e.ID, e.Problem.Topology)
		}
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tm, err := tfg.NewUniformTiming(g, 50, e.Problem.Bandwidth)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		as, err := alloc.RoundRobin(g, top)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out = append(out, poolEntry{e.ID, Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: e.Problem.TauIn}})
	}
	return out, Options{Seed: pool.Options.Seed, Retries: pool.Options.Retries}
}

// standardGrid is the eight standard configurations — every 64-node
// network of the paper at both link bandwidths — at the twelve load
// points of the figures' grid.
func standardGrid(t *testing.T) []poolEntry {
	t.Helper()
	tops := solverGoldenTopologies(t)
	names := make([]string, 0, len(tops))
	for name := range tops {
		names = append(names, name)
	}
	slices.Sort(names)
	var out []poolEntry
	for _, name := range names {
		for _, bw := range []float64{64, 128} {
			for k := 0; k < 12; k++ {
				out = append(out, poolEntry{fmt.Sprintf("%s-b%g-k%d", name, bw, k), dvbProblem(t, tops[name], bw, gridTauIn(k))})
			}
		}
	}
	return out
}

// TestRetriesMatchIndependentAttempts: a Solve with Retries R equals the
// fold of R+1 independent Retries-0 solves at seeds s…s+R, stopped at the
// first feasible one — the same verdict, peak, assignment, allocation,
// slices and Ω, and as many attempts. Only the evaluation count differs:
// every attempt after the first starts from restart 0's record instead
// of climbing restart 0 again, so it is the independent solves' sum less
// restart 0's count (AssignPaths with one restart) per extra attempt.
func TestRetriesMatchIndependentAttempts(t *testing.T) {
	pool, poolOpt := compileLPPool(t)
	entries := append(pool, standardGrid(t)...)
	multi := 0
	for _, retries := range []int{2, 5} {
		for _, e := range entries {
			o := Options{Seed: poolOpt.Seed, Retries: retries}
			got, err := Compute(e.p, o)
			if err != nil {
				t.Fatalf("%s R=%d: %v", e.id, retries, err)
			}
			var want *Result
			sum := 0
			for k := 0; k <= retries; k++ {
				one := o
				one.Seed, one.Retries = o.Seed+int64(k), 0
				r, err := Compute(e.p, one)
				if err != nil {
					t.Fatalf("%s R=%d seed %d: %v", e.id, retries, one.Seed, err)
				}
				sum += r.Stats.AssignIterations
				switch {
				case want == nil || r.Feasible:
					want = r
				case r.Peak < want.Peak:
					want.Assignment, want.Peak = r.Assignment, r.Peak
				}
				want.FailStage = r.FailStage
				want.Stats.Attempts = k + 1
				if r.Feasible {
					break
				}
			}
			if want.Stats.Attempts > 1 {
				multi++
				lsd, err := LSDAssignment(e.p.Graph, e.p.Topology, e.p.Assignment, want.Windows)
				if err != nil {
					t.Fatal(err)
				}
				cands, err := BuildCandidates(e.p.Graph, e.p.Topology, e.p.Assignment, want.Windows, 24)
				if err != nil {
					t.Fatal(err)
				}
				restart0 := AssignPaths(lsd, cands, e.p.Topology, want.Windows, want.Activity, o.Seed, 1, 60).Iterations
				sum -= (want.Stats.Attempts - 1) * restart0
			}
			want.Stats.AssignIterations = sum
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s R=%d: Solve (feasible %t at %v, peak %v, %d attempts, %d evaluations) differs from the independent attempts' fold (feasible %t at %v, peak %v, %d attempts, %d evaluations)",
					e.id, retries, got.Feasible, got.FailStage, got.Peak, got.Stats.Attempts, got.Stats.AssignIterations,
					want.Feasible, want.FailStage, want.Peak, want.Stats.Attempts, want.Stats.AssignIterations)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no solve needed a second attempt; the test is vacuous")
	}
	t.Logf("%d solves of %d ran more than one attempt", multi, 2*len(entries))
}

// A retry that lands on an assignment an earlier attempt already failed
// with takes that attempt's verdict: on compile_lp's
// cube7-s3-d0.05-b512-t80 no seeded restart beats restart 0, so all three
// attempts hand the later stages one assignment, and only attempt 0 runs
// them. Attempts 1 and 2 say whose verdict they took.
func TestRepeatedAssignmentTakesEarlierVerdict(t *testing.T) {
	pool, o := compileLPPool(t)
	i := slices.IndexFunc(pool, func(e poolEntry) bool { return e.id == "cube7-s3-d0.05-b512-t80" })
	if i < 0 {
		t.Fatal("cube7-s3-d0.05-b512-t80 left the compile_lp pool")
	}
	root := trace.Start("test")
	o.Trace = root
	res, err := Compute(pool[i].p, o)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || res.Stats.Attempts != 3 {
		t.Fatalf("fixture must fail all 3 attempts, got feasible %t after %d", res.Feasible, res.Stats.Attempts)
	}
	if n := res.Trace.Count(SpanAttempt); n != 3 {
		t.Errorf("%d attempt spans, want 3", n)
	}
	if n := res.Trace.Count(SpanAllocation); n != 1 {
		t.Errorf("%d %s spans, want 1", n, SpanAllocation)
	}
	attempt := 0
	res.Trace.Walk(func(_ int, n *trace.Tree) {
		if n.Name != SpanAttempt {
			return
		}
		repeats := int64(-1)
		for _, a := range n.Attrs {
			if a.Key == "repeats" {
				repeats = a.Int
			}
		}
		if want := map[bool]int64{false: -1, true: 0}[attempt > 0]; repeats != want {
			t.Errorf("attempt %d: repeats %d, want %d (-1: no attr)", attempt, repeats, want)
		}
		attempt++
	})
}
