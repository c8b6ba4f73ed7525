package schedule

import (
	"context"
	"reflect"
	"testing"

	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// A traced feasible first-attempt solve must name every DESIGN Fig. 3
// pipeline stage exactly once — the golden contract for everything that
// consumes trace output (srsched -trace, cmd/traceview, ?debug=trace).
func TestTracedSolveNamesEveryPipelineStageOnce(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	root := trace.Start("test")
	res, err := Compute(p, Options{Seed: 1, Trace: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("fixture must be feasible, failed at %v", res.FailStage)
	}
	if res.Trace == nil {
		t.Fatal("traced solve returned no Result.Trace")
	}
	if res.Trace.Name != SpanSolve {
		t.Fatalf("Result.Trace root is %q, want %q", res.Trace.Name, SpanSolve)
	}
	for _, stage := range PipelineStages {
		if n := res.Trace.Count(stage); n != 1 {
			t.Errorf("stage %q appears %d times, want exactly 1\nspans: %v", stage, n, res.Trace.Names())
		}
	}
	// Supporting spans of a fresh, non-LSD solve.
	for _, name := range []string{SpanLSDBaseline, SpanCandidates, SpanAttempt, SpanSubsets} {
		if n := res.Trace.Count(name); n != 1 {
			t.Errorf("span %q appears %d times, want 1", name, n)
		}
	}
	// The solve also lands as a subtree of the caller's root.
	if got := root.Tree().Count(SpanSolve); got != 1 {
		t.Errorf("parent span holds %d solve subtrees, want 1", got)
	}
	// The allocation span says how much simplex its verdict cost.
	res.Trace.Walk(func(_ int, n *trace.Tree) {
		if n.Name == SpanAllocation && (len(n.Attrs) != 2 || n.Attrs[1].Key != "lp.pivots" || n.Attrs[1].Int <= 0) {
			t.Errorf("%s span attrs %v, want feasible and a positive lp.pivots", n.Name, n.Attrs)
		}
	})
}

// The assign_paths span splits the per-link scores behind its
// evaluations into computed and memoized ones. Both counts are pure
// functions of the solve: a second solve on the same Solver, which finds
// the first one's LoadState pooled with its running totals, reports the
// same pair.
func TestTracedAssignPathsCountsTentativeScores(t *testing.T) {
	s := NewSolver(dvbProblem(t, sixCube(t), 64, gridTauIn(5)))
	var runs [2]map[string]int64
	for i := range runs {
		root := trace.Start("test")
		res, err := s.Solve(context.Background(), gridTauIn(5), Options{Seed: 1, Trace: root})
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = map[string]int64{}
		res.Trace.Walk(func(_ int, n *trace.Tree) {
			if n.Name == SpanAssignPaths {
				for _, a := range n.Attrs {
					runs[i][a.Key] = a.Int
				}
			}
		})
		if runs[i]["iterations"] != int64(res.Stats.AssignIterations) {
			t.Errorf("run %d: span says %d iterations, stats %d", i, runs[i]["iterations"], res.Stats.AssignIterations)
		}
	}
	if runs[0]["tentative_computed"] == 0 || runs[0]["tentative_reused"] == 0 {
		t.Errorf("assign_paths attrs %v lack tentative_computed / tentative_reused", runs[0])
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("assign_paths attrs differ between identical solves: %v vs %v", runs[0], runs[1])
	}
}

// Tracing must not perturb the solve: a traced Result equals the
// untraced Result once the Trace field is cleared.
func TestTracedSolveMatchesUntraced(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	plain, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := trace.Start("test")
	traced, err := Compute(p, Options{Seed: 1, Trace: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced solve grew a Trace")
	}
	traced.Trace = nil
	if !reflect.DeepEqual(plain, traced) {
		t.Error("tracing changed the solve result")
	}
}

// An infeasible traced solve still snapshots its tree, with the attempt
// span carrying the failing stage.
func TestTracedInfeasibleSolveRecordsFailStage(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, 50) // load 1.0: utilization rejects
	root := trace.Start("test")
	res, err := Compute(p, Options{Seed: 1, Trace: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("fixture must be infeasible")
	}
	if res.Trace == nil {
		t.Fatal("infeasible traced solve returned no Result.Trace")
	}
	if res.Trace.Count(SpanAttempt) == 0 {
		t.Error("no attempt span recorded")
	}
	if res.Trace.Count(SpanOmega) != 0 {
		t.Error("infeasible solve must not reach omega emission")
	}
}

// A traced repair emits one repair span with one rung span per ladder
// rung tried; the incremental rung runs the pipeline's shared back half,
// so it carries the same stage spans a solve attempt does, and the
// nested full-recompute solves hang off their rung.
func TestTracedRepairEmitsRungSpans(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	base, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible {
		t.Fatal("base must be feasible")
	}
	fs := topology.NewFaultSet()
	// Fail the first link some scheduled message actually crosses so the
	// repair has real work to do.
	var failed topology.LinkID
	found := false
	for i := range base.Windows {
		if base.Windows[i].Local || len(base.Assignment.Links[i]) == 0 {
			continue
		}
		failed = base.Assignment.Links[i][0]
		found = true
		break
	}
	if !found {
		t.Fatal("no routed message in base schedule")
	}
	fs.FailLink(failed)

	root := trace.Start("test")
	o := Options{Seed: 1, Trace: root}
	rep, err := Repair(context.Background(), p, o, base, fs)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	tr := root.Tree()
	if tr.Count(SpanRepair) != 1 {
		t.Fatalf("want 1 repair span, spans: %v", tr.Names())
	}
	if tr.Count(SpanRung) == 0 {
		t.Error("repair recorded no rung spans")
	}
	if rep.Outcome != RepairIncremental {
		t.Fatalf("fixture should repair incrementally, got %v", rep.Outcome)
	}
	var stages []string
	tr.Walk(func(_ int, n *trace.Tree) {
		if n.Name == SpanRung && len(n.Attrs) > 0 && n.Attrs[0].Str == "incremental" {
			for _, c := range n.Children {
				stages = append(stages, c.Name)
			}
		}
	})
	if want := []string{SpanSubsets, SpanAllocation, SpanIntervalSched, SpanOmega}; !reflect.DeepEqual(stages, want) {
		t.Errorf("incremental rung has stage spans %v, want %v", stages, want)
	}
	// Untraced repair on the same inputs must match once traces are
	// stripped from the results.
	plain, err := Repair(context.Background(), p, Options{Seed: 1}, base, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result != nil {
		rep.Result.Trace = nil
	}
	if !reflect.DeepEqual(plain, rep) {
		t.Error("tracing changed the repair outcome")
	}
}
