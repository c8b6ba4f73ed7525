package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"schedroute/internal/schedule"
)

func TestGridMatchesPaper(t *testing.T) {
	pts := Grid(50)
	if len(pts) != 12 {
		t.Fatalf("grid has %d points", len(pts))
	}
	if pts[0].TauIn != 50 || pts[0].Load != 1 {
		t.Errorf("first point %+v, want τc and load 1", pts[0])
	}
	if math.Abs(pts[11].TauIn-250) > 1e-9 || math.Abs(pts[11].Load-0.2) > 1e-9 {
		t.Errorf("last point %+v, want 5τc and load 0.2", pts[11])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TauIn <= pts[i-1].TauIn {
			t.Fatal("periods must increase")
		}
		if pts[i].Load >= pts[i-1].Load {
			t.Fatal("loads must decrease")
		}
	}
}

func TestStandardConfigsComplete(t *testing.T) {
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 8 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	for name, cfg := range cfgs {
		if cfg.Topology.Nodes() != 64 {
			t.Errorf("%s has %d nodes, want 64", name, cfg.Topology.Nodes())
		}
		if cfg.Bandwidth != 64 && cfg.Bandwidth != 128 {
			t.Errorf("%s bandwidth %g", name, cfg.Bandwidth)
		}
	}
	for fig := 5; fig <= 10; fig++ {
		keys, ok := Figure(fig)
		if !ok || len(keys) == 0 {
			t.Fatalf("figure %d unmapped", fig)
		}
		for _, k := range keys {
			if _, ok := cfgs[k]; !ok {
				t.Errorf("figure %d references unknown config %s", fig, k)
			}
		}
	}
	if _, ok := Figure(4); ok {
		t.Error("figure 4 should not exist")
	}
	if !IsUtilizationFigure(5) || !IsUtilizationFigure(6) || IsUtilizationFigure(7) {
		t.Error("utilization figure classification wrong")
	}
}

func TestUtilizationSweepSixCubeB64(t *testing.T) {
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	s, err := UtilizationSweep(context.Background(), cfgs["6cube-b64"])
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 12 {
		t.Fatalf("got %d points", len(s.Points))
	}
	for _, p := range s.Points {
		// The paper's Fig. 5 observation: AssignPaths is never worse
		// than LSD-to-MSD.
		if p.Final > p.LSD+1e-9 {
			t.Errorf("load %.4f: final %g > LSD %g", p.Load, p.Final, p.LSD)
		}
	}
	// At maximum load the 6-cube at B=64 exceeds unit utilization
	// (paper: U > 1 when load > 0.3636)...
	if s.Points[0].Final <= 1 {
		t.Errorf("load 1.0 utilization %g should exceed 1", s.Points[0].Final)
	}
	// ...and reaches unity at low loads.
	last := s.Points[len(s.Points)-1]
	if last.Final > 1+1e-9 {
		t.Errorf("load 0.2 utilization %g should be <= 1", last.Final)
	}
}

func TestUtilizationSweepToriB64AlwaysAboveOne(t *testing.T) {
	// Paper Fig. 6: at B=64 neither torus ever reaches U <= 1.
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"torus88-b64", "torus444-b64"} {
		s, err := UtilizationSweep(context.Background(), cfgs[key])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Points {
			if p.Final <= 1 {
				t.Errorf("%s load %.4f: U = %g, paper says tori stay above 1 at B=64", key, p.Load, p.Final)
			}
		}
	}
}

func TestPerfSweepSixCubeB64(t *testing.T) {
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgs["6cube-b64"]
	cfg.Invocations = 24
	cfg.Warmup = 12
	s, err := PerfSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 12 {
		t.Fatalf("got %d points", len(s.Points))
	}
	anyWROI, anySRFeasible := false, false
	for _, p := range s.Points {
		if p.WRDeadlock {
			t.Errorf("load %.4f: unexpected deadlock on hypercube", p.Load)
			continue
		}
		if p.WROI {
			anyWROI = true
		}
		if p.SRFeasible {
			anySRFeasible = true
			// SR throughput is exactly 1 and latency constant.
			if !p.SRThroughput.Constant(1e-9) || math.Abs(p.SRThroughput.Mid-1) > 1e-9 {
				t.Errorf("load %.4f: SR throughput %v", p.Load, p.SRThroughput)
			}
			if !p.SRLatency.Constant(1e-9) {
				t.Errorf("load %.4f: SR latency not constant %v", p.Load, p.SRLatency)
			}
			if p.SRLatency.Mid < 1-1e-9 {
				t.Errorf("load %.4f: SR normalized latency %g below 1", p.Load, p.SRLatency.Mid)
			}
		}
	}
	if !anyWROI {
		t.Error("expected output inconsistency under wormhole routing at some load (paper Fig. 7)")
	}
	if !anySRFeasible {
		t.Error("expected scheduled routing to succeed at some load (paper Fig. 7)")
	}
	// The headline claim: at some load WR is inconsistent while SR
	// pipelines with constant throughput.
	headline := false
	for _, p := range s.Points {
		if p.WROI && p.SRFeasible {
			headline = true
			break
		}
	}
	if !headline {
		t.Error("no load point shows SR removing WR's output inconsistency")
	}
}

func TestWriteUtilizationFormat(t *testing.T) {
	s := &UtilizationSeries{
		Config: "test",
		Points: []UtilizationPoint{{Load: 1, LSD: 2.5, Final: 1.5}},
	}
	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# test", "load", "2.5", "1.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePerfFormat(t *testing.T) {
	s := &PerfSeries{
		Config:       "test",
		CriticalPath: 620,
		Points: []PerfPoint{
			{Load: 1, SRFeasible: false, SRStage: schedule.StageUtilization},
			{Load: 0.5, WRDeadlock: true, SRFeasible: false, SRStage: schedule.StageAllocation},
		},
	}
	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# test", "U>1", "deadlock", "alloc-fail"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	base := cfgs["6cube-b64"]
	c := (&base).withDefaults()
	if c.Models == 0 || c.Invocations == 0 || c.Warmup == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestWriteCSVFormats(t *testing.T) {
	us := &UtilizationSeries{
		Config: "cfg",
		Points: []UtilizationPoint{{Load: 0.5, LSD: 2, Final: 1}},
	}
	var b strings.Builder
	if err := us.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "config,load,u_lsd,u_final\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, `"cfg",0.500000,2.000000,1.000000`) {
		t.Errorf("missing row: %q", out)
	}

	ps := &PerfSeries{
		Config: "cfg",
		Points: []PerfPoint{{
			Load: 0.5, WROI: true,
			SRFeasible: true, SRStage: schedule.StageOK,
		}},
	}
	b.Reset()
	if err := ps.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if !strings.Contains(out, "wr_oi") || !strings.Contains(out, "true") {
		t.Errorf("perf csv wrong: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines", len(lines))
	}
	if got := strings.Count(lines[0], ","); got != strings.Count(lines[1], ",") {
		t.Errorf("column mismatch: header %d vs row %d commas", got, strings.Count(lines[1], ","))
	}
}

func TestFig10Headline(t *testing.T) {
	// The paper's strongest claim (Fig. 10): on the 4x4x4 torus at
	// B=128, "SR removes all instances of OI ... and enables operation
	// at the highest load while WR does not."
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgs["torus444-b128"]
	cfg.Invocations = 24
	cfg.Warmup = 12
	s, err := PerfSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if !p.SRFeasible {
			t.Errorf("load %.4f: SR infeasible (%v), paper says feasible everywhere", p.Load, p.SRStage)
		}
	}
	top := s.Points[0] // load 1.0
	if !top.WROI && !top.WRDeadlock {
		t.Error("WR at maximum load should fail to pipeline consistently")
	}
	if !top.SRFeasible {
		t.Error("SR must enable operation at the highest load")
	}
}

func TestFig9AllocationFailuresPresent(t *testing.T) {
	// Fig. 9's signature: the 8x8 torus at B=128 has mid-range load
	// points where the path assignment passes the utilization test but
	// a later pipeline stage fails — the paper marks three such points.
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgs["torus88-b128"]
	cfg.Invocations = 16
	cfg.Warmup = 8
	s, err := PerfSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	midFailures := 0
	for _, p := range s.Points {
		if !p.SRFeasible && p.SRStage != schedule.StageUtilization {
			midFailures++
		}
	}
	if midFailures == 0 {
		t.Error("expected mid-pipeline (allocation/interval-scheduling) failures as in the paper's Fig. 9")
	}
	// And SR still wins the max-load point.
	if !s.Points[0].SRFeasible {
		t.Error("SR should schedule the maximum load on this panel")
	}
}
