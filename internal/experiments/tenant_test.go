package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"schedroute/internal/topology"
)

func tenantSweepConfig(t *testing.T) Config {
	t.Helper()
	cube, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Name: "6cube-b64", Topology: cube, Bandwidth: 64, Seed: 1,
		MaxFaults: 4, // keep the per-point fault cycle short
	}
}

// TestTenantSurvivabilitySixCube runs the two-tenant isolation sweep on
// the paper's 6-cube and checks the isolation invariant: at every load
// point where the victim was admitted, every victim-only fault left the
// bystander's Ω byte-identical, and the victim's repair outcomes tally
// to the scenario count.
func TestTenantSurvivabilitySixCube(t *testing.T) {
	s, err := TenantSurvivabilitySweep(context.Background(), tenantSweepConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != NumLoadPoints {
		t.Fatalf("%d points, want %d", len(s.Points), NumLoadPoints)
	}
	admitted := 0
	for _, p := range s.Points {
		if p.VictimOutcome == "rejected" {
			if p.Scenarios != 0 {
				t.Errorf("load %.4f: rejected victim still ran %d scenarios", p.Load, p.Scenarios)
			}
			continue
		}
		admitted++
		if sum := p.Unaffected + p.Incremental + p.Recomputed + p.DegradedWindow + p.DegradedRate + p.Infeasible; sum != p.Scenarios {
			t.Errorf("load %.4f: outcome counts sum to %d, want %d", p.Load, sum, p.Scenarios)
		}
		if p.BystanderIntact != p.Scenarios {
			t.Errorf("load %.4f: bystander intact %d/%d — isolation invariant violated",
				p.Load, p.BystanderIntact, p.Scenarios)
		}
		if p.WorstTauOutRatio < 1 {
			t.Errorf("load %.4f: worst τout ratio %g < 1", p.Load, p.WorstTauOutRatio)
		}
	}
	if admitted == 0 {
		t.Fatal("victim was admitted at no load point; the sweep measured nothing")
	}

	var table, csv bytes.Buffer
	if err := s.WriteText(&table); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "bystander") || !strings.Contains(csv.String(), "bystander_intact") {
		t.Error("writers lost the bystander column")
	}
	if got := len(strings.Split(strings.TrimSpace(csv.String()), "\n")); got != NumLoadPoints+1 {
		t.Errorf("csv has %d lines, want %d", got, NumLoadPoints+1)
	}
}

// TestTenantSurvivabilityDeterministic: the series is identical for a
// serial and a parallel run (each point owns its TenantSet, so worker
// interleaving cannot leak between points).
func TestTenantSurvivabilityDeterministic(t *testing.T) {
	serial := tenantSweepConfig(t)
	serial.Procs = 1
	par := tenantSweepConfig(t)
	par.Procs = 4
	a, err := TenantSurvivabilitySweep(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TenantSurvivabilitySweep(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs between serial and parallel runs:\n%+v\n%+v", i, a.Points[i], b.Points[i])
		}
	}
}
