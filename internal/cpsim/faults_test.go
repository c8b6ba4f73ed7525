package cpsim

import (
	"context"
	"math"
	"testing"

	"schedroute/internal/schedule"
	"schedroute/internal/topology"
)

// usedLink returns a link the base schedule carries traffic over.
func usedLink(t *testing.T, res *schedule.Result) topology.LinkID {
	t.Helper()
	for i := range res.Windows {
		if len(res.Assignment.Links[i]) > 0 {
			return res.Assignment.Links[i][0]
		}
	}
	t.Fatal("no message uses any link")
	return -1
}

func TestFaultInjectionLosesPackets(t *testing.T) {
	res, p := feasibleOmega(t)
	fs := topology.NewFaultSet()
	fs.FailLink(usedLink(t, res))
	out, err := Run(Config{
		Omega: res.Omega, Graph: p.Graph, Topology: p.Topology,
		PacketBytes: 64, Bandwidth: 64, Invocations: 6,
		Fault: &FaultInjection{Faults: fs, FailAt: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.LostPackets == 0 {
		t.Fatal("a fault on a used link must lose packets")
	}
	healthy, err := Run(Config{
		Omega: res.Omega, Graph: p.Graph, Topology: p.Topology,
		PacketBytes: 64, Bandwidth: 64, Invocations: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.PacketsDelivered+out.LostPackets != healthy.PacketsDelivered {
		t.Errorf("delivered %d + lost %d != healthy %d",
			out.PacketsDelivered, out.LostPackets, healthy.PacketsDelivered)
	}
	// Lost packets are flagged with the failed element.
	flagged := 0
	for _, v := range out.Violations {
		if v.Kind == "failed-link" {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("lost packets must be flagged as failed-link violations")
	}
	// The output-inconsistency window opens at the fault and never
	// closes without a repair.
	if out.OIStart != 2*res.Omega.TauIn || !math.IsInf(out.OIEnd, 1) {
		t.Errorf("OI window [%g, %g], want [%g, +Inf)", out.OIStart, out.OIEnd, 2*res.Omega.TauIn)
	}
}

func TestFaultInjectionWithRepairVerifiesCleanly(t *testing.T) {
	res, p := feasibleOmega(t)
	fs := topology.NewFaultSet()
	fs.FailLink(usedLink(t, res))
	rep, err := schedule.Repair(context.Background(), p, schedule.Options{Seed: 1}, res, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result == nil {
		t.Fatalf("repair outcome %s left no schedule", rep.Outcome)
	}
	out, err := Run(Config{
		Omega: res.Omega, Graph: p.Graph, Topology: p.Topology,
		PacketBytes: 64, Bandwidth: 64, Invocations: 8,
		Fault: &FaultInjection{Faults: fs, FailAt: 2, Repaired: rep.Result.Omega, RepairAt: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.RepairViolations) != 0 {
		t.Fatalf("repaired Ω must replay violation-free on the degraded machine, got %d (first: %+v)",
			len(out.RepairViolations), out.RepairViolations[0])
	}
	if out.LostPackets == 0 {
		t.Error("the faulted regime before repair must lose packets")
	}
	// The OI window closes when the repaired Ω activates.
	if out.OIStart != 2*res.Omega.TauIn || out.OIEnd != 4*res.Omega.TauIn {
		t.Errorf("OI window [%g, %g], want [%g, %g]",
			out.OIStart, out.OIEnd, 2*res.Omega.TauIn, 4*res.Omega.TauIn)
	}
	// Packets: 2 healthy frames + 2 faulted + 4 repaired, all accounted.
	perFrame := ExpectedPackets(res.Omega, 64, 64)
	perFrameRep := ExpectedPackets(rep.Result.Omega, 64, 64)
	lostPerFrame := out.LostPackets / 2
	want := 2*perFrame + 2*(perFrame-lostPerFrame) + 4*perFrameRep
	if out.PacketsDelivered != want {
		t.Errorf("delivered %d packets, want %d", out.PacketsDelivered, want)
	}
}

func TestFaultInjectionUnaffectedLinkLosesNothing(t *testing.T) {
	res, p := feasibleOmega(t)
	// Find an unused link.
	used := map[topology.LinkID]bool{}
	for i := range res.Windows {
		for _, l := range res.Assignment.Links[i] {
			used[l] = true
		}
	}
	var unused topology.LinkID = -1
	for l := 0; l < p.Topology.Links(); l++ {
		if !used[topology.LinkID(l)] {
			unused = topology.LinkID(l)
			break
		}
	}
	if unused < 0 {
		t.Skip("every link carries traffic")
	}
	fs := topology.NewFaultSet()
	fs.FailLink(unused)
	out, err := Run(Config{
		Omega: res.Omega, Graph: p.Graph, Topology: p.Topology,
		PacketBytes: 64, Bandwidth: 64, Invocations: 4,
		Fault: &FaultInjection{Faults: fs, FailAt: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.LostPackets != 0 || len(out.Violations) != 0 {
		t.Errorf("fault on an unused link lost %d packets, %d violations",
			out.LostPackets, len(out.Violations))
	}
	if !math.IsNaN(out.OIStart) || !math.IsNaN(out.OIEnd) {
		t.Errorf("no lost packets must mean no OI window, got [%g, %g]", out.OIStart, out.OIEnd)
	}
}

func TestFaultInjectionRejectsBadConfig(t *testing.T) {
	res, p := feasibleOmega(t)
	fs := topology.NewFaultSet()
	fs.FailLink(0)
	base := Config{
		Omega: res.Omega, Graph: p.Graph, Topology: p.Topology,
		PacketBytes: 64, Bandwidth: 64, Invocations: 4,
	}
	cases := []*FaultInjection{
		{Faults: topology.NewFaultSet(), FailAt: 1}, // empty set
		{Faults: fs, FailAt: -1},
		{Faults: fs, FailAt: 4},                                   // past the last invocation
		{Faults: fs, FailAt: 2, Repaired: res.Omega, RepairAt: 2}, // repair not after fault
		{Faults: fs, FailAt: 2, Repaired: res.Omega, RepairAt: 5}, // past the run
	}
	for i, fi := range cases {
		cfg := base
		cfg.Fault = fi
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid fault injection accepted", i)
		}
	}
}
