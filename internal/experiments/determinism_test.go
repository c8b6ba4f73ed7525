package experiments

import (
	"context"
	"reflect"
	"testing"

	"schedroute/internal/schedule"
	"schedroute/internal/trace"
)

// The parallel sweep engine must be invisible in the results: for any
// worker count, a sweep is deep-equal to the serial (Procs=1) run.
// Exercised on the two standard configs the determinism satellite
// names: the all-feasible 6-cube panel and the 8x8 torus panel whose
// mid-range allocation failures stress the error paths too.
var determinismConfigs = []string{"6cube-b64", "torus88-b128"}

func determinismConfig(t *testing.T, key string, procs int) Config {
	t.Helper()
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	cfg, ok := cfgs[key]
	if !ok {
		t.Fatalf("unknown config %s", key)
	}
	cfg.Invocations = 8
	cfg.Warmup = 4
	cfg.Procs = procs
	return cfg
}

func TestUtilizationSweepParallelMatchesSerial(t *testing.T) {
	for _, key := range determinismConfigs {
		serial, err := UtilizationSweep(context.Background(), determinismConfig(t, key, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{0, 4} {
			par, err := UtilizationSweep(context.Background(), determinismConfig(t, key, procs))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s: parallel (procs=%d) utilization sweep diverged from serial run", key, procs)
			}
		}
	}
}

func TestPerfSweepParallelMatchesSerial(t *testing.T) {
	for _, key := range determinismConfigs {
		serial, err := PerfSweep(context.Background(), determinismConfig(t, key, 1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := PerfSweep(context.Background(), determinismConfig(t, key, 4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: parallel perf sweep diverged from serial run", key)
		}
	}
}

// Traced determinism: with tracing enabled, the sweep results must
// still match the serial run exactly, and the span tree structure
// (names in depth-first order) must be independent of the worker
// count — spans from pool workers merge deterministically because the
// per-point spans are pre-created serially. Timings and cache attrs
// (which point builds the shared baseline) legitimately vary, so only
// the structure is compared.
func TestUtilizationSweepTracedParallelMatchesSerial(t *testing.T) {
	for _, key := range determinismConfigs {
		run := func(procs int) (*UtilizationSeries, []string) {
			cfg := determinismConfig(t, key, procs)
			root := trace.Start("test")
			cfg.Trace = root
			s, err := UtilizationSweep(context.Background(), cfg)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			return s, root.Tree().Names()
		}
		serial, serialNames := run(1)
		par, parNames := run(4)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: traced parallel utilization sweep diverged from serial run", key)
		}
		if !reflect.DeepEqual(serialNames, parNames) {
			t.Errorf("%s: traced span structure depends on worker count:\nserial: %v\nparallel: %v",
				key, serialNames, parNames)
		}
		if n := len(serialNames); n < 1+NumLoadPoints*2 {
			t.Errorf("%s: traced sweep recorded only %d spans", key, n)
		}
	}
}

func TestPerfSweepTracedParallelMatchesSerial(t *testing.T) {
	key := determinismConfigs[0]
	run := func(procs int) (*PerfSeries, []string) {
		cfg := determinismConfig(t, key, procs)
		root := trace.Start("test")
		cfg.Trace = root
		s, err := PerfSweep(context.Background(), cfg)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		return s, root.Tree().Names()
	}
	serial, serialNames := run(1)
	par, parNames := run(4)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("%s: traced parallel perf sweep diverged from serial run", key)
	}
	if !reflect.DeepEqual(serialNames, parNames) {
		t.Errorf("%s: traced span structure depends on worker count", key)
	}
}

func TestSurvivabilitySweepTracedParallelMatchesSerial(t *testing.T) {
	key := determinismConfigs[0]
	run := func(procs int) (*SurvivabilitySeries, *trace.Tree) {
		cfg := determinismConfig(t, key, procs)
		cfg.MaxFaults = 4
		root := trace.Start("test")
		cfg.Trace = root
		s, err := SurvivabilitySweep(context.Background(), cfg)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		return s, root.Tree()
	}
	serial, serialTree := run(1)
	par, parTree := run(4)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("%s: traced parallel survivability sweep diverged from serial run", key)
	}
	if !reflect.DeepEqual(serialTree.Names(), parTree.Names()) {
		t.Errorf("%s: traced span structure depends on worker count", key)
	}

	// Each feasible point's fault spans name the first MaxFaults links,
	// in link order.
	want := []string{"link0(0-1)", "link1(0-2)", "link2(0-4)", "link3(0-8)"}
	var got []string
	serialTree.Walk(func(_ int, n *trace.Tree) {
		if n.Name == SpanFault {
			got = append(got, n.Attrs[0].Str)
		}
	})
	if len(got) == 0 || len(got)%len(want) != 0 {
		t.Fatalf("%s: %d fault spans, want a positive multiple of %d", key, len(got), len(want))
	}
	for i, name := range got {
		if name != want[i%len(want)] {
			t.Errorf("%s: fault span %d names %q, want %q", key, i, name, want[i%len(want)])
		}
	}
}

func TestComputeBestAllocationParallelMatchesSerial(t *testing.T) {
	for _, key := range determinismConfigs {
		cfg := determinismConfig(t, key, 0)
		base, err := workload(cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		p := schedule.Problem{
			Graph: base.Graph, Timing: base.Timing, Topology: cfg.Topology,
			TauIn: base.Timing.TauC() * (1 + 4.0*5/11),
		}
		cands, err := schedule.DefaultCandidates(context.Background(), p, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 4 {
			t.Fatalf("got %d candidates", len(cands))
		}
		serial, err := schedule.ComputeBestAllocation(context.Background(), p, schedule.Options{Seed: cfg.Seed, Procs: 1}, cands)
		if err != nil {
			t.Fatal(err)
		}
		par, err := schedule.ComputeBestAllocation(context.Background(), p, schedule.Options{Seed: cfg.Seed, Procs: 4}, cands)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Chosen != par.Chosen {
			t.Errorf("%s: parallel search chose candidate %d, serial chose %d", key, par.Chosen, serial.Chosen)
		}
		if !reflect.DeepEqual(serial.Result, par.Result) {
			t.Errorf("%s: parallel search result diverged from serial run", key)
		}
		// Traced runs: the candidate spans are pre-created in index order,
		// so the structure must not depend on the worker count either.
		tracedNames := func(procs int) []string {
			root := trace.Start("test")
			_, err := schedule.ComputeBestAllocation(context.Background(), p,
				schedule.Options{Seed: cfg.Seed, Procs: procs, Trace: root}, cands)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			return root.Tree().Names()
		}
		if !reflect.DeepEqual(tracedNames(1), tracedNames(4)) {
			t.Errorf("%s: traced search span structure depends on worker count", key)
		}
	}
}
