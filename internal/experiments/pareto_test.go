package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"schedroute/internal/schedule"
	"schedroute/internal/trace"
)

// paretoSpec is a deliberately small exploration for the determinism
// matrix: one annealed placement next to the round-robin baseline, two
// candidate periods each, all four objectives (so the window bisection
// runs too).
func paretoSpec(seed int64) schedule.ExploreSpec {
	return schedule.ExploreSpec{
		GridPoints:  2,
		AnnealSeeds: []int64{seed + 1},
		AnnealSteps: 2000,
	}
}

// TestParetoSweepSerialParallelOnStandardConfigs pins the determinism
// satellite across every standard configuration: the explored front is
// deep-equal no matter the worker count.
func TestParetoSweepSerialParallelOnStandardConfigs(t *testing.T) {
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 8 {
		t.Fatalf("expected the 8 standard configs, got %d", len(cfgs))
	}
	for key, cfg := range cfgs {
		cfg := cfg
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			run := func(procs int) *ParetoSeries {
				c := cfg
				c.Procs = procs
				s, err := ParetoSweep(context.Background(), c, paretoSpec(cfg.Seed))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			serial := run(1)
			if len(serial.Front.Points) == 0 {
				t.Fatalf("%s: empty front", key)
			}
			for _, procs := range []int{0, 4} {
				if par := run(procs); !reflect.DeepEqual(serial, par) {
					t.Errorf("%s: parallel (procs=%d) pareto sweep diverged from serial run", key, procs)
				}
			}
		})
	}
}

// TestParetoSweepSixCubeFront is the acceptance scenario: the 6-cube
// exploration with the -fig pareto defaults yields a non-trivial front
// (≥3 non-dominated points) and every front point's Ω re-validates
// against the topology.
func TestParetoSweepSixCubeFront(t *testing.T) {
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgs["6cube-b64"]
	s, err := ParetoSweep(context.Background(), cfg, schedule.ExploreSpec{})
	if err != nil {
		t.Fatal(err)
	}
	f := s.Front
	if len(f.Placements) != 3 {
		t.Fatalf("placements = %d, want 3 (round-robin + 2 annealed)", len(f.Placements))
	}
	if len(f.Points) < 3 {
		t.Fatalf("front has %d points, want ≥3 non-dominated", len(f.Points))
	}
	for i, pt := range f.Points {
		if pt.Result == nil || !pt.Result.Feasible {
			t.Fatalf("front point %d infeasible", i)
		}
		if err := pt.Result.Omega.Validate(cfg.Topology); err != nil {
			t.Errorf("front point %d: Ω invalid: %v", i, err)
		}
	}
	for i := range f.Points {
		for j := range f.Points {
			if i != j && schedule.Dominates(&f.Points[i], &f.Points[j], f.Objectives) {
				t.Errorf("front point %d dominates front point %d", i, j)
			}
		}
	}
}

// TestParetoSweepTraced checks the traced exploration has a
// worker-count-independent span structure and that the writers render
// the front.
func TestParetoSweepTraced(t *testing.T) {
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgs["6cube-b64"]
	run := func(procs int) (*ParetoSeries, []string) {
		c := cfg
		c.Procs = procs
		root := trace.Start("test")
		c.Trace = root
		s, err := ParetoSweep(context.Background(), c, paretoSpec(cfg.Seed))
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		return s, root.Tree().Names()
	}
	serial, serialNames := run(1)
	par, parNames := run(4)
	// Wall-clock span trees are inherently run-dependent, so traced
	// Results are compared with Trace stripped (the span structure is
	// checked separately below), matching the rest of the determinism
	// suite.
	stripTraces := func(s *ParetoSeries) {
		for i := range s.Front.Points {
			s.Front.Points[i].Result.Trace = nil
		}
	}
	stripTraces(serial)
	stripTraces(par)
	if !reflect.DeepEqual(serial, par) {
		t.Error("traced parallel pareto sweep diverged from serial run")
	}
	if !reflect.DeepEqual(serialNames, parNames) {
		t.Errorf("traced span structure depends on worker count:\nserial: %v\nparallel: %v",
			serialNames, parNames)
	}
	found := map[string]bool{}
	for _, n := range serialNames {
		found[n] = true
	}
	for _, want := range []string{SpanParetoSweep, schedule.SpanExplore, schedule.SpanExploreAnneal,
		schedule.SpanExplorePlacement, schedule.SpanExploreBisect, schedule.SpanExplorePoint} {
		if !found[want] {
			t.Errorf("traced sweep missing span %q (got %v)", want, serialNames)
		}
	}

	var table, csv strings.Builder
	if err := serial.WriteText(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "placement 0") || !strings.Contains(table.String(), "tau_in") {
		t.Errorf("table output missing expected sections:\n%s", table.String())
	}
	if err := serial.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(csv.String(), "\n"), 1+len(serial.Front.Points); got != want {
		t.Errorf("CSV has %d lines, want %d", got, want)
	}
}
