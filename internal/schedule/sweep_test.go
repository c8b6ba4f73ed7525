package schedule

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

// sweepFixture is the DVB on the 6-cube under three placements — the
// round-robin one twice, so two candidates tie at every period — over
// three of the paper's periods: one no placement schedules, two some do.
func sweepFixture(t *testing.T) (Problem, []*alloc.Assignment, []float64) {
	t.Helper()
	p := dvbProblem(t, sixCube(t), 64, 0)
	greedy, err := alloc.Greedy(p.Graph, p.Topology)
	if err != nil {
		t.Fatal(err)
	}
	return p, []*alloc.Assignment{p.Assignment, p.Assignment, greedy}, []float64{gridTauIn(0), gridTauIn(5), gridTauIn(11)}
}

func solversFor(p Problem, placements []*alloc.Assignment) []*Solver {
	solvers := make([]*Solver, len(placements))
	for i, as := range placements {
		prob := p
		prob.Assignment = as
		solvers[i] = NewSolver(prob)
	}
	return solvers
}

type sweptPeriod struct {
	tauIn   float64
	results []*Result
	winner  int
}

// runSweep collects what every visit saw, by period index; nil spans
// run it untraced.
func runSweep(t *testing.T, p Problem, placements []*alloc.Assignment, periods []float64, opt Options, spans []*trace.Span) []sweptPeriod {
	t.Helper()
	if spans == nil {
		spans = make([]*trace.Span, len(periods))
	}
	got := make([]sweptPeriod, len(periods))
	var mu sync.Mutex
	err := Sweep(context.Background(), solversFor(p, placements), periods, opt, spans, func(sp *SweepPeriod) error {
		mu.Lock()
		defer mu.Unlock()
		if sp.Best() != sp.Results[sp.Winner] || sp.Span != spans[sp.Index] {
			t.Errorf("period %d: inconsistent SweepPeriod %+v", sp.Index, sp)
		}
		got[sp.Index] = sweptPeriod{sp.TauIn, append([]*Result(nil), sp.Results...), sp.Winner}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSweepMatchesDirectSolves is the grid's contract: every cell is what
// a direct Solver.Solve returns at that (placement, τin), the winner is
// what a serial better-scan picks (ties keep the lower index) with a
// byte-identical Ω, and none of it depends on the worker count.
func TestSweepMatchesDirectSolves(t *testing.T) {
	p, placements, periods := sweepFixture(t)
	opt := Options{Seed: 1}
	direct := solversFor(p, placements)
	var serial []sweptPeriod
	for _, procs := range []int{1, 4} {
		opt.Procs = procs
		got := runSweep(t, p, placements, periods, opt, nil)
		for i, per := range got {
			if per.tauIn != periods[i] || len(per.results) != len(placements) {
				t.Fatalf("procs=%d period %d: visited with τin=%g and %d results", procs, i, per.tauIn, len(per.results))
			}
			want := 0
			for c, res := range per.results {
				ref, err := direct[c].Solve(context.Background(), periods[i], Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("procs=%d period %d candidate %d: Result differs from a direct Solve", procs, i, c)
				}
				if better(ref, per.results[want]) {
					want = c
				}
			}
			if per.winner != want || per.winner == 1 {
				t.Errorf("procs=%d period %d: winner %d, serial scan picks %d (candidate 1 only ever ties candidate 0)", procs, i, per.winner, want)
			}
			if win := per.results[per.winner]; win.Feasible {
				ref, _ := direct[per.winner].Solve(context.Background(), periods[i], Options{Seed: 1})
				if !bytes.Equal(omegaBytes(t, win.Omega), omegaBytes(t, ref.Omega)) {
					t.Errorf("procs=%d period %d: winner's Ω differs from a direct Solve", procs, i)
				}
			}
		}
		if serial == nil {
			serial = got
		} else if !reflect.DeepEqual(got, serial) {
			t.Error("Procs 4 saw different periods than Procs 1")
		}
	}
	if serial[0].results[0].Feasible || !serial[2].results[serial[2].winner].Feasible {
		t.Error("fixture lost its spread: want nothing feasible at load 1 and a feasible winner at load 0.2")
	}
}

// TestSweepTracedStructure: one solver records its solve directly under
// the caller's period span, several under one "candidate" child each, and
// the span tree is the same for every worker count.
func TestSweepTracedStructure(t *testing.T) {
	p, placements, periods := sweepFixture(t)
	for _, k := range []int{1, 3} {
		names := func(procs int) []string {
			root := trace.Start("test")
			spans := make([]*trace.Span, len(periods))
			for i := range spans {
				spans[i] = root.Start("period")
			}
			runSweep(t, p, placements[:k], periods, Options{Seed: 1, Procs: procs}, spans)
			root.End()
			return root.Tree().Names()
		}
		serial := names(1)
		if par := names(4); !reflect.DeepEqual(serial, par) {
			t.Errorf("%d placements: span structure depends on the worker count:\nserial:   %v\nparallel: %v", k, serial, par)
		}
		wantCandidates := 0
		if k > 1 {
			wantCandidates = k * len(periods)
		}
		count := map[string]int{}
		for i, name := range serial {
			count[name]++
			if name == SpanSolve && k == 1 && serial[i-1] != "period" {
				t.Errorf("single solver: solve recorded under %q, want directly under the period span", serial[i-1])
			}
		}
		if count[SpanCandidate] != wantCandidates || count[SpanSolve] != k*len(periods) {
			t.Errorf("%d placements: %d candidate and %d solve spans, want %d and %d",
				k, count[SpanCandidate], count[SpanSolve], wantCandidates, k*len(periods))
		}
	}
}

// cancelAfter is a context that reports cancellation once its Err has
// been polled n times: a deterministic mid-sweep cancel.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSweepCancellation: a cancelled context is returned as the error and
// no further cell starts.
func TestSweepCancellation(t *testing.T) {
	p, placements, periods := sweepFixture(t)
	solvers := solversFor(p, placements)
	solves := func() (n int64) {
		for _, s := range solvers {
			n += s.CacheStats().Solves
		}
		return n
	}
	untraced := make([]*trace.Span, len(periods))

	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sweep(done, solvers, periods, Options{Procs: 4}, untraced, func(*SweepPeriod) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled before start: got %v, want context.Canceled", err)
	}
	if n := solves(); n != 0 {
		t.Errorf("cancelled before start: %d cells ran", n)
	}

	// Serial, so the cut is repeatable: the grid polls Err before each
	// cell and Solve at least twice inside it, so a budget of five polls
	// runs out within the first period's three cells.
	mid := &cancelAfter{Context: context.Background()}
	mid.left.Store(5)
	visited := 0
	err := Sweep(mid, solvers, periods, Options{Seed: 1, Procs: 1}, untraced, func(*SweepPeriod) error { visited++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled midway: got %v, want context.Canceled", err)
	}
	if n := solves(); n >= int64(len(periods)*len(placements)) || visited != 0 {
		t.Errorf("cancelled midway: %d cells ran and %d periods were visited, want a partial first period", n, visited)
	}
}

// TestSweepCellError: a failing cell's error names the candidate and the
// period, keeps its classification, and its period is not visited.
func TestSweepCellError(t *testing.T) {
	p, placements, periods := sweepFixture(t)
	shared := &alloc.Assignment{NodeOf: append([]topology.NodeID(nil), p.Assignment.NodeOf...)}
	shared.NodeOf[1] = shared.NodeOf[0] // two tasks on one node: refused without AllowSharedNodes
	for _, procs := range []int{1, 4} {
		err := Sweep(context.Background(), solversFor(p, []*alloc.Assignment{placements[0], shared}), periods[:1],
			Options{Seed: 1, Procs: procs}, []*trace.Span{nil},
			func(sp *SweepPeriod) error { t.Errorf("period %d visited despite a failed cell", sp.Index); return nil })
		if err == nil || !strings.Contains(err.Error(), "candidate 1 at τin=50") {
			t.Errorf("procs=%d: error %v does not name candidate 1 at τin=50", procs, err)
		}
	}
	// Below the longest task no period is legal: the caller's mistake,
	// still classified through the grid's wrapping.
	err := Sweep(context.Background(), solversFor(p, placements[:1]), []float64{10}, Options{}, []*trace.Span{nil}, func(*SweepPeriod) error { return nil })
	if errkind.Name(err) != "bad_input" || !strings.Contains(err.Error(), "candidate 0 at τin=10") {
		t.Errorf("period below τc: got %v (%s), want a bad_input naming candidate 0 at τin=10", err, errkind.Name(err))
	}
	if err := Sweep(context.Background(), nil, periods, Options{}, make([]*trace.Span, len(periods)), nil); err == nil {
		t.Error("a sweep without solvers should fail")
	}
}
