package main

import (
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke is the -smoke pass: a tiny timed run and a tiny traced run
// of every workload, held to BENCHMARK.json. Every workload and metric
// the contract names must come out exactly once with its unit, and no
// op may fail. The traced run replays every pool entry at least once,
// so it also proves, entry by entry, that the §5.2 system restated
// through the lp package reaches AllocateIntervals' verdict and that the
// staged replay reaches Solver.Solve's result.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the traced run emits %d", len(spec.PerLayer), len(layerMetrics))
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, info, err := runWorkload(name, 1, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "end_to_end", spec.EndToEnd, res)
			if v := res.Metrics["success_ratio"].Value; v != 1 {
				t.Errorf("success_ratio = %v, want 1: %v", v, info.Failures)
			}
			res, info, err = runTraced(name, 1, 0.3, "")
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "per_layer", spec.PerLayer, res)
			if res.Failed != 0 {
				t.Errorf("traced run: %d of %d ops failed: %v", res.Failed, res.Attempted, info.Failures)
			}
		})
	}
}

func checkMetrics(t *testing.T, kind string, want []SpecMetric, res *Result) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", kind, res.Correct, res.Attempted, res.Failed)
	}
	seen := map[string]bool{}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: name %q is outside the contract's alphabet", kind, m.Name)
		}
		if seen[m.Name] {
			t.Errorf("%s: %q is named twice", kind, m.Name)
		}
		seen[m.Name] = true
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: %q is not emitted", kind, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", kind, m.Name, got.Unit, m.Unit)
		}
	}
	for name := range res.Metrics {
		if !seen[name] {
			t.Errorf("%s: %q is emitted but not named in BENCHMARK.json", kind, name)
		}
	}
}

// TestSeedDecidesSequence: the same seed yields the same op sequence,
// another seed another one.
func TestSeedDecidesSequence(t *testing.T) {
	for _, name := range workloadNames {
		w, _, err := loadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := w.roundPlan()
		a, b, c := sequenceHash(1, plan), sequenceHash(1, plan), sequenceHash(2, plan)
		if a != b {
			t.Errorf("%s: seed 1 gave sequences %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence %s", name, a)
		}
	}
}

// TestSteady pins the reduction of repeated timings: the mean of the
// fastest tenth, and never of nothing.
func TestSteady(t *testing.T) {
	xs := make([]float64, 24)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := steady(xs); got != 1.5 {
		t.Errorf("steady(1..24) = %v, want 1.5 (mean of 1 and 2)", got)
	}
	if got := steady(xs[4:5]); got != 5 {
		t.Errorf("steady of one repeat = %v, want the repeat", got)
	}
}

// TestQuartilesMatchPython pins the quartile method to the one the
// driver uses, statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// Three values: the method clamps the rank and extrapolates.
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
