package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"schedroute/internal/schedule"
)

// TestSurvivabilitySweepParallelMatchesSerial: the two-stage fan-out
// must be invisible in the results — parallel runs are byte-identical
// to the serial one.
func TestSurvivabilitySweepParallelMatchesSerial(t *testing.T) {
	cfg := determinismConfig(t, "6cube-b64", 1)
	cfg.MaxFaults = 8
	cfg.VerifyFaults = true
	serial, err := SurvivabilitySweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{0, 4} {
		cfg.Procs = procs
		par, err := SurvivabilitySweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("parallel (procs=%d) survivability sweep diverged from serial run", procs)
		}
		var a, b bytes.Buffer
		if err := serial.WriteText(&a); err != nil {
			t.Fatal(err)
		}
		if err := par.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("procs=%d: text output not byte-identical to serial", procs)
		}
		a.Reset()
		b.Reset()
		if err := serial.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := par.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("procs=%d: CSV output not byte-identical to serial", procs)
		}
	}
}

// TestSurvivabilitySixCubeLowLoadAllRepaired is the acceptance
// criterion: on the binary 6-cube at B=64, every single-link fault at
// every feasible load point at or below 0.35 is repaired to a
// contention-free Ω at the original output rate, verified end-to-end
// by packet-level replay with the fault injected mid-run. A widened
// scheduling window (extra latency, same τout) is an acceptable
// repair; a reduced rate or an unrepaired fault is not. At the lowest
// load the window equals τc, so every message is no-slack and a few
// faults leave no detour that avoids a single-path no-slack peer at
// the original window — those repair at the 1.25τc window.
func TestSurvivabilitySixCubeLowLoadAllRepaired(t *testing.T) {
	if testing.Short() {
		t.Skip("full 6-cube survivability sweep is long")
	}
	cfg := determinismConfig(t, "6cube-b64", 0)
	cfg.VerifyFaults = true
	s, err := SurvivabilitySweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range s.Points {
		if !p.BaseFeasible || p.Load > 0.35 {
			continue
		}
		checked++
		if p.Infeasible != 0 || p.DegradedRate != 0 {
			t.Errorf("load %.4f: %d infeasible, %d degraded-rate faults; every fault must repair at full rate",
				p.Load, p.Infeasible, p.DegradedRate)
		}
		if n := p.Unaffected + p.Incremental + p.Recomputed + p.DegradedWindow; n != p.Scenarios {
			t.Errorf("load %.4f: outcome counts cover %d of %d scenarios", p.Load, n, p.Scenarios)
		}
		if p.VerifyViolations != 0 {
			t.Errorf("load %.4f: %d packet-level violations in repaired schedules", p.Load, p.VerifyViolations)
		}
		if p.Verified != p.Scenarios {
			t.Errorf("load %.4f: only %d/%d faults verified end-to-end", p.Load, p.Verified, p.Scenarios)
		}
		if p.WorstTauOutRatio != 1 {
			t.Errorf("load %.4f: output period degraded by %.4f", p.Load, p.WorstTauOutRatio)
		}
	}
	if checked == 0 {
		t.Fatal("no feasible load point at or below 0.35")
	}
}

// TestSurvivabilityStrictRepairAborts: with StrictRepair, the sweep
// surfaces the typed infeasible-repair error instead of tallying. A
// 1-hop topology fixture is impractical here, so exercise it on the
// torus panel the paper reports failures for; skip if every fault is
// survivable.
func TestSurvivabilityStrictRepair(t *testing.T) {
	cfg := determinismConfig(t, "6cube-b64", 0)
	cfg.MaxFaults = 4
	cfg.StrictRepair = true
	s, err := SurvivabilitySweep(context.Background(), cfg)
	if err != nil {
		var ire *schedule.InfeasibleRepairError
		if !errors.As(err, &ire) {
			t.Fatalf("strict sweep failed with %v, want *InfeasibleRepairError", err)
		}
		return
	}
	for _, p := range s.Points {
		if p.Infeasible != 0 {
			t.Error("strict sweep must abort on the first infeasible repair")
		}
	}
}
