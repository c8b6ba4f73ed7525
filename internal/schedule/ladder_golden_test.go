package schedule

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"schedroute/internal/topology"
)

var updateLadders = flag.Bool("update-ladders", false, "rewrite testdata/ladder_digests.golden")

const ladderGolden = "testdata/ladder_digests.golden"

// digest names an Ω by the first 16 hex digits of the sha256 of its
// wire encoding; "-" is no schedule.
func digest(t *testing.T, r *Result) string {
	if r == nil || r.Omega == nil {
		return "-"
	}
	sum := sha256.Sum256(omegaBytes(t, r.Omega))
	return fmt.Sprintf("%x", sum[:8])
}

// num renders a float with every bit that distinguishes it.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestLadderDigestsGolden pins the three ladders beyond the standard
// configs: every single-link repair of two machines at three load
// points, the admission sequences of tenant_test.go, and an Explore
// front on the 6-cube, each reduced to outcome / rung / τout / window
// scale and an Ω digest. The file was generated before the ladders were
// folded onto one pipeline tail, so a line that moves is a behaviour
// change, not a refactor.
func TestLadderDigestsGolden(t *testing.T) {
	var out strings.Builder
	repairDigests(t, &out)
	admitDigests(t, &out)
	exploreDigests(t, &out)

	if *updateLadders {
		if err := os.WriteFile(ladderGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ladderGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(out.String(), "\n")
	exp := strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(exp))
	}
	bad := 0
	for i := range got {
		if got[i] != exp[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], exp[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more lines differ", bad-10)
	}
}

func repairDigests(t *testing.T, out *strings.Builder) {
	tops := solverGoldenTopologies(t)
	for _, cfg := range []struct {
		name string
		top  *topology.Topology
		bw   float64
	}{{"6cube-b64", tops["6cube"], 64}, {"torus88-b128", tops["torus88"], 128}} {
		for _, k := range []int{5, 7, 10} { // 5 is the tightest load both machines schedule
			p := dvbProblem(t, cfg.top, cfg.bw, gridTauIn(k))
			o := Options{Seed: 1}
			base, err := Compute(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if !base.Feasible {
				t.Fatalf("%s k=%d: base infeasible at %s; pick another load point", cfg.name, k, base.FailStage)
			}
			for l := 0; l < cfg.top.Links(); l++ {
				fs := topology.NewFaultSet()
				fs.FailLink(topology.LinkID(l))
				rep, err := Repair(context.Background(), p, o, base, fs)
				if err != nil {
					t.Fatalf("%s k=%d link %d: %v", cfg.name, k, l, err)
				}
				fmt.Fprintf(out, "repair %s k=%d link=%d %s stage=%d rerouted=%d peak=%s tau_out=%s scale=%s %s\n",
					cfg.name, k, l, rep.Outcome, int(rep.Stage), rep.Rerouted, num(rep.NewPeak),
					num(rep.TauOut), num(rep.WindowScale), digest(t, rep.Result))
			}
		}
	}
}

// admitDigests replays the admission sequences of tenant_test.go.
func admitDigests(t *testing.T, out *strings.Builder) {
	ctx := context.Background()
	admit := func(seq string, ts *TenantSet, tn Tenant) *AdmitReport {
		rep, err := ts.Admit(ctx, tn, nil)
		if err != nil {
			t.Fatalf("%s: admit %s: %v", seq, tn.ID, err)
		}
		fmt.Fprintf(out, "admit %s %s admitted=%t %s tau_out=%s scale=%s peak=%s evicted=%v bottleneck=%d/%s reason=%q %s\n",
			seq, rep.TenantID, rep.Admitted, rep.Outcome, num(rep.TauOut), num(rep.WindowScale), num(rep.Peak),
			rep.Evicted, rep.BottleneckLink, num(rep.BottleneckShare), rep.Reason, digest(t, rep.Result))
		return rep
	}
	top := threeCube(t)

	// A, B, C rejected, then a fault on B's path repaired per tenant.
	ts := NewTenantSet(top)
	admit("invariant", ts, chainTenant(t, top, "A"))
	brep := admit("invariant", ts, pairTenant(t, top, "B", 2, 3, 640, 50))
	c := pairTenant(t, top, "C", 0, 1, 2880, 50)
	c.RateGuarantee = 1
	admit("invariant", ts, c)
	fs := topology.NewFaultSet()
	fs.FailLink(brep.Result.Assignment.Links[0][0])
	for _, st := range ts.Tenants() {
		r, err := ts.RepairTenant(ctx, st.Tenant.ID, fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(out, "admit invariant repair %s %s tau_out=%s scale=%s %s\n", r.TenantID,
			r.Report.Outcome, num(r.Report.TauOut), num(r.Report.WindowScale), digest(t, r.Report.Result))
	}

	// Eviction by priority, and the equal-priority rejection.
	low := pairTenant(t, top, "low", 0, 1, 2880, 50)
	low.RateGuarantee = 1
	high := pairTenant(t, top, "high", 0, 1, 2880, 50)
	high.RateGuarantee, high.Priority = 1, 10
	peer := pairTenant(t, top, "peer", 0, 1, 2880, 50)
	peer.RateGuarantee = 1
	ts = NewTenantSet(top)
	admit("evict", ts, low)
	admit("evict", ts, high)
	ts = NewTenantSet(top)
	admit("peer", ts, low)
	admit("peer", ts, peer)

	// Degraded rate against two guarantees on the loaded 6-cube.
	six := sixCube(t)
	for _, g := range []float64{0.5, 0.8} {
		admit("rate", NewTenantSet(six), Tenant{ID: "g" + num(g), RateGuarantee: g,
			Problem: dvbProblem(t, six, 64, 50), Options: Options{Seed: 1}})
	}

	// Identical placements pin their direct links at share 1, so the
	// second tenant meets zero residual (an infinite relative peak).
	ts = NewTenantSet(six)
	admit("full", ts, Tenant{ID: "first", Problem: dvbProblem(t, six, 64, gridTauIn(5)), Options: Options{Seed: 1}})
	admit("full", ts, Tenant{ID: "second", Problem: dvbProblem(t, six, 64, gridTauIn(5)), Options: Options{Seed: 2}})

	// Degraded window: 45 µs in a 50 µs window needs 0.9 of a link with
	// 0.8 left; the period is 100, so the window may widen.
	ts = NewTenantSet(top)
	admit("window", ts, pairTenant(t, top, "hog", 0, 1, 640, 50))
	admit("window", ts, pairTenant(t, top, "wide", 0, 1, 2880, 100))

	// Release frees the shares a rejected candidate needed.
	ts = NewTenantSet(top)
	admit("release", ts, pairTenant(t, top, "hog", 0, 1, 2880, 50))
	cand := pairTenant(t, top, "cand", 0, 1, 2880, 50)
	cand.RateGuarantee = 1
	admit("release", ts, cand)
	ts.Release("hog")
	admit("release", ts, cand)
}

// exploreDigests runs the 6-cube DVB exploration at B=64 (the period
// bisection converges inside its bracket, over two placements), at
// B=128 (the window bisection does), and the torus chain of
// pareto_test.go (the shortest legal window schedules outright).
func exploreDigests(t *testing.T, out *strings.Builder) {
	for _, c := range []struct {
		name string
		p    Problem
		spec ExploreSpec
	}{
		{"6cube-b64", dvbProblem(t, sixCube(t), 64, 0), ExploreSpec{GridPoints: 2, AnnealSeeds: []int64{2}, AnnealSteps: 2000}},
		{"6cube-b128", dvbProblem(t, sixCube(t), 128, 0), ExploreSpec{GridPoints: 3}},
		{"torus44-chain", exploreTestProblem(t), ExploreSpec{GridPoints: 3, AnnealSeeds: []int64{3}}},
	} {
		front, err := Explore(context.Background(), c.p, Options{Seed: 1}, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(out, "explore %s min_tau_in=%s evaluated=%d\n", c.name, num(front.MinTauIn), front.Evaluated)
		for i, pl := range front.Placements {
			fmt.Fprintf(out, "explore %s placement %d feasible=%t min_tau_in=%s\n", c.name, i, pl.Feasible, num(pl.MinTauIn))
		}
		for _, pt := range front.Points {
			fmt.Fprintf(out, "explore %s point placement=%d tau_in=%s window=%s latency=%s links=%d buffers=%d peak=%s %s\n",
				c.name, pt.Placement, num(pt.TauIn), num(pt.Window), num(pt.Latency), pt.Links, pt.Buffers, num(pt.Peak), digest(t, pt.Result))
		}
	}
}
