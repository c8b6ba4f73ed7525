// Package schedroute's root benchmark harness regenerates every figure
// of the paper's evaluation (Figs. 5-10), the Section 3 output-
// inconsistency construction, and the ablations called out in DESIGN.md.
// Each Benchmark* corresponds to one figure panel; run
//
//	go test -bench=. -benchmem
//
// and compare the reported shape metrics (feasible load points, OI
// counts, peak utilizations) against EXPERIMENTS.md.
package schedroute

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/cliutil"
	"schedroute/internal/cpsim"
	"schedroute/internal/dvb"
	"schedroute/internal/experiments"
	"schedroute/internal/metrics"
	"schedroute/internal/schedule"
	"schedroute/internal/service"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/internal/wormhole"
	api "schedroute/pkg/schedroute"
)

func benchConfig(b *testing.B, key string) experiments.Config {
	b.Helper()
	cfgs, err := experiments.StandardConfigs()
	if err != nil {
		b.Fatal(err)
	}
	cfg, ok := cfgs[key]
	if !ok {
		b.Fatalf("unknown config %s", key)
	}
	// Short but spike-revealing wormhole runs keep bench iterations fast.
	cfg.Invocations = 16
	cfg.Warmup = 8
	return cfg
}

// benchUtilization runs one Fig. 5/6 panel and reports the number of
// load points reaching U <= 1 plus the best peak seen.
func benchUtilization(b *testing.B, key string) {
	cfg := benchConfig(b, key)
	var feasible int
	var bestPeak float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.UtilizationSweep(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		feasible = 0
		bestPeak = s.Points[0].Final
		for _, p := range s.Points {
			if p.Final <= 1.0000001 {
				feasible++
			}
			if p.Final < bestPeak {
				bestPeak = p.Final
			}
			if p.Final > p.LSD+1e-9 {
				b.Fatalf("AssignPaths worse than LSD at load %.4f", p.Load)
			}
		}
	}
	b.ReportMetric(float64(feasible), "loadpts(U<=1)")
	b.ReportMetric(bestPeak, "bestU")
}

// benchPerf runs one Fig. 7-10 panel and reports OI and feasibility
// counts over the twelve load points.
func benchPerf(b *testing.B, key string) {
	cfg := benchConfig(b, key)
	var oi, srOK, both int
	for i := 0; i < b.N; i++ {
		s, err := experiments.PerfSweep(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		oi, srOK, both = 0, 0, 0
		for _, p := range s.Points {
			if p.WROI || p.WRDeadlock {
				oi++
			}
			if p.SRFeasible {
				srOK++
				if p.WROI {
					both++
				}
			}
		}
	}
	b.ReportMetric(float64(oi), "WR-OI-pts")
	b.ReportMetric(float64(srOK), "SR-ok-pts")
	b.ReportMetric(float64(both), "SR-fixes-OI-pts")
}

// Figure 5: peak utilization vs load, AssignPaths against LSD-to-MSD,
// on the generalized hypercubes at B=64 bytes/µs.
func BenchmarkFig5SixCubeB64(b *testing.B) { benchUtilization(b, "6cube-b64") }
func BenchmarkFig5GHC444B64(b *testing.B)  { benchUtilization(b, "ghc444-b64") }

// Figure 6: the same sweeps on the tori at B=64 bytes/µs.
func BenchmarkFig6Torus88B64(b *testing.B)  { benchUtilization(b, "torus88-b64") }
func BenchmarkFig6Torus444B64(b *testing.B) { benchUtilization(b, "torus444-b64") }

// Figure 7: DVB on the binary 6-cube — wormhole OI spikes vs scheduled
// routing, at both bandwidths.
func BenchmarkFig7SixCubeB64(b *testing.B)  { benchPerf(b, "6cube-b64") }
func BenchmarkFig7SixCubeB128(b *testing.B) { benchPerf(b, "6cube-b128") }

// Figure 8: DVB on GHC(4,4,4).
func BenchmarkFig8GHC444B64(b *testing.B)  { benchPerf(b, "ghc444-b64") }
func BenchmarkFig8GHC444B128(b *testing.B) { benchPerf(b, "ghc444-b128") }

// Figure 9: DVB on the 8x8 torus at B=128 bytes/µs (the panel with the
// paper's message-interval allocation failures).
func BenchmarkFig9Torus88B128(b *testing.B) { benchPerf(b, "torus88-b128") }

// Figure 10: DVB on the 4x4x4 torus at B=128 bytes/µs.
func BenchmarkFig10Torus444B128(b *testing.B) { benchPerf(b, "torus444-b128") }

// BenchmarkOIClaim exercises the Section 3 two-message construction:
// the shared-channel FCFS interaction that alternates output intervals.
func BenchmarkOIClaim(b *testing.B) {
	gb := tfg.NewBuilder("claim")
	t1s := gb.AddTask("T1s", 100)
	t1d := gb.AddTask("T1d", 100)
	t2s := gb.AddTask("T2s", 100)
	t2d := gb.AddTask("T2d", 100)
	gb.AddMessage("M1", t1s, t1d, 512)
	gb.AddMessage("link", t1d, t2s, 128)
	gb.AddMessage("M2", t2s, t2d, 512)
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	top, err := topology.NewTorus(8)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 10, 64)
	if err != nil {
		b.Fatal(err)
	}
	as := &alloc.Assignment{NodeOf: []topology.NodeID{0, 3, 1, 4}}
	oi := false
	for i := 0; i < b.N; i++ {
		res, err := wormhole.Simulate(wormhole.Config{
			Graph: g, Timing: tm, Topology: top, Assignment: as,
			TauIn: 32, Invocations: 30, Warmup: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		oi = metrics.OutputInconsistent(32, metrics.Intervals(res.OutputCompletions), 1e-6)
	}
	if !oi {
		b.Fatal("claim construction lost its inconsistency")
	}
}

// dvbSixCubeProblem is the shared fixture for the ablation benches.
func dvbSixCubeProblem(b *testing.B, tauIn float64) schedule.Problem {
	b.Helper()
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		b.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := dvb.Timing(g, 64)
	if err != nil {
		b.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		b.Fatal(err)
	}
	return schedule.Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: tauIn}
}

// Ablation: full AssignPaths vs frozen LSD-to-MSD paths. Reports the
// peak utilization each achieves at a moderate load.
func BenchmarkAblationAssignPaths(b *testing.B) {
	p := dvbSixCubeProblem(b, 50*(1+4.0*5/11))
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := schedule.Compute(p, schedule.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		peak = res.Peak
	}
	b.ReportMetric(peak, "peakU")
}

func BenchmarkAblationLSDOnly(b *testing.B) {
	p := dvbSixCubeProblem(b, 50*(1+4.0*5/11))
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := schedule.Compute(p, schedule.Options{Seed: 1, LSDOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		peak = res.Peak
	}
	b.ReportMetric(peak, "peakU")
}

// Ablation: exact (LP over maximal link-feasible sets) vs greedy
// interval scheduling.
func BenchmarkAblationEngineExact(b *testing.B) {
	p := dvbSixCubeProblem(b, 50*(1+4.0*5/11))
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Compute(p, schedule.Options{Seed: 1, Engine: schedule.EngineExact}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEngineGreedy(b *testing.B) {
	p := dvbSixCubeProblem(b, 50*(1+4.0*5/11))
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Compute(p, schedule.Options{Seed: 1, Engine: schedule.EngineGreedy}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: path-diversity cap — how many equivalent shortest paths
// AssignPaths may consider per message.
func BenchmarkAblationMaxPaths4(b *testing.B)  { benchMaxPaths(b, 4) }
func BenchmarkAblationMaxPaths24(b *testing.B) { benchMaxPaths(b, 24) }

func benchMaxPaths(b *testing.B, maxPaths int) {
	p := dvbSixCubeProblem(b, 50*(1+4.0*5/11))
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := schedule.Compute(p, schedule.Options{Seed: 1, MaxPaths: maxPaths})
		if err != nil {
			b.Fatal(err)
		}
		peak = res.Peak
	}
	b.ReportMetric(peak, "peakU")
}

// Ablation: the paper's "stricter model" — each physical channel
// multiplexed between two virtual channels, halving per-message
// bandwidth. Reports OI load points with and without it.
func BenchmarkAblationStrictVC(b *testing.B)   { benchVCModel(b, true) }
func BenchmarkAblationStandardVC(b *testing.B) { benchVCModel(b, false) }

func benchVCModel(b *testing.B, strict bool) {
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		b.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := dvb.Timing(g, 128)
	if err != nil {
		b.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		b.Fatal(err)
	}
	var oi int
	for i := 0; i < b.N; i++ {
		oi = 0
		for k := 0; k < 12; k++ {
			tauIn := tm.TauC() * (1 + 4*float64(k)/11)
			res, err := wormhole.Simulate(wormhole.Config{
				Graph: g, Timing: tm, Topology: top, Assignment: as,
				TauIn: tauIn, Invocations: 16, Warmup: 8, StrictVC: strict,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Deadlocked || metrics.OutputInconsistent(tauIn, metrics.Intervals(res.OutputCompletions), 1e-6) {
				oi++
			}
		}
	}
	b.ReportMetric(float64(oi), "OI-pts")
}

// Ablation: window length. The paper gives every message a window of
// τc; the alternative of no-slack windows (= transmission time) lowers
// latency but destroys schedulability. Reports feasible grid points.
func BenchmarkAblationWindowTauC(b *testing.B)    { benchWindow(b, 0) } // 0 = default τc
func BenchmarkAblationWindowNoSlack(b *testing.B) { benchWindow(b, 25) }

func benchWindow(b *testing.B, window float64) {
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		b.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := dvb.Timing(g, 128) // τm = 25: window 25 means zero slack
	if err != nil {
		b.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		b.Fatal(err)
	}
	var feasible int
	var latency float64
	for i := 0; i < b.N; i++ {
		feasible = 0
		for k := 0; k < 12; k++ {
			tauIn := tm.TauC() * (1 + 4*float64(k)/11)
			res, err := schedule.Compute(schedule.Problem{
				Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: tauIn,
			}, schedule.Options{Seed: 1, Window: window})
			if err != nil {
				b.Fatal(err)
			}
			if res.Feasible {
				feasible++
				latency = res.Latency
			}
		}
	}
	b.ReportMetric(float64(feasible), "feasible-pts")
	b.ReportMetric(latency, "latency-µs")
}

// Ablation: adaptive cut-through path selection vs deterministic
// LSD-to-MSD under wormhole routing — the paper's Section 3 argues OI
// persists either way. Reports OI load points.
func BenchmarkAblationAdaptiveWR(b *testing.B)      { benchRoutingPolicy(b, true) }
func BenchmarkAblationDeterministicWR(b *testing.B) { benchRoutingPolicy(b, false) }

func benchRoutingPolicy(b *testing.B, adaptive bool) {
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		b.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := dvb.Timing(g, 64)
	if err != nil {
		b.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		b.Fatal(err)
	}
	var oi int
	for i := 0; i < b.N; i++ {
		oi = 0
		for k := 0; k < 12; k++ {
			tauIn := tm.TauC() * (1 + 4*float64(k)/11)
			res, err := wormhole.Simulate(wormhole.Config{
				Graph: g, Timing: tm, Topology: top, Assignment: as,
				TauIn: tauIn, Invocations: 16, Warmup: 8, Adaptive: adaptive,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Deadlocked || metrics.OutputInconsistent(tauIn, metrics.Intervals(res.OutputCompletions), 1e-6) {
				oi++
			}
		}
	}
	if oi == 0 {
		b.Fatal("expected OI under wormhole routing (paper Section 3)")
	}
	b.ReportMetric(float64(oi), "OI-pts")
}

// BenchmarkCPSimPacketReplay measures the packet-level Ω verification.
func BenchmarkCPSimPacketReplay(b *testing.B) {
	p := dvbSixCubeProblem(b, 50*(1+4.0*5/11))
	res, err := schedule.Compute(p, schedule.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Feasible {
		b.Fatal("fixture infeasible")
	}
	for i := 0; i < b.N; i++ {
		out, err := cpsim.Run(cpsim.Config{
			Omega: res.Omega, Graph: p.Graph, Topology: p.Topology,
			PacketBytes: 64, Bandwidth: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Violations) != 0 {
			b.Fatal("unexpected violations")
		}
	}
}

// Ablation: allocator quality — the peak utilization AssignPaths
// reaches from round-robin vs simulated-annealing placements at the
// paper's feasibility-threshold load.
func BenchmarkAblationAllocRoundRobin(b *testing.B) { benchAllocator(b, "rr") }
func BenchmarkAblationAllocAnneal(b *testing.B)     { benchAllocator(b, "anneal") }

func benchAllocator(b *testing.B, which string) {
	g, err := dvb.New(dvb.DefaultModels)
	if err != nil {
		b.Fatal(err)
	}
	top, err := topology.NewHypercube(6)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := dvb.Timing(g, 64)
	if err != nil {
		b.Fatal(err)
	}
	var as *alloc.Assignment
	switch which {
	case "rr":
		as, err = alloc.RoundRobin(g, top)
	case "anneal":
		as, err = alloc.Anneal(g, top, alloc.AnnealOptions{Seed: 1, Steps: 6000})
	}
	if err != nil {
		b.Fatal(err)
	}
	p := schedule.Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 50} // maximum load, where placement quality shows
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := schedule.Compute(p, schedule.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		peak = res.Peak
	}
	b.ReportMetric(peak, "peakU")
}

// Component benchmarks.

func BenchmarkWormholeSimSixCube(b *testing.B) {
	p := dvbSixCubeProblem(b, 75)
	for i := 0; i < b.N; i++ {
		if _, err := wormhole.Simulate(wormhole.Config{
			Graph: p.Graph, Timing: p.Timing, Topology: p.Topology, Assignment: p.Assignment,
			TauIn: p.TauIn, Invocations: 20, Warmup: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleComputeSixCube(b *testing.B) {
	p := dvbSixCubeProblem(b, 50*(1+4.0*5/11))
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Compute(p, schedule.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// layeredLargeProblem is the shared large-scale fixture: the ~960-task
// layered DAG from cliutil.LayeredLargeTFG placed round-robin on the
// given topology at τin=200µs. Loading through cliutil.LoadGraph keeps
// the benchmark on the same spec-resolution path the CLIs use.
func layeredLargeProblem(b *testing.B, topoSpec string, bw float64) schedule.Problem {
	b.Helper()
	return layeredProblem(b, cliutil.LayeredLargeTFG, topoSpec, bw)
}

func layeredProblem(b *testing.B, tfgSpec, topoSpec string, bw float64) schedule.Problem {
	b.Helper()
	g, err := cliutil.LoadGraph(tfgSpec)
	if err != nil {
		b.Fatal(err)
	}
	top, err := api.ParseTopology(topoSpec)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, bw)
	if err != nil {
		b.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		b.Fatal(err)
	}
	return schedule.Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 200}
}

// benchScheduleLarge runs the full pipeline on a large-scale problem
// and fails unless the solve is feasible (a valid Ω with finite peak).
func benchScheduleLarge(b *testing.B, topoSpec string, bw float64) {
	p := layeredLargeProblem(b, topoSpec, bw)
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := schedule.Compute(p, schedule.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Omega == nil {
			b.Fatal("no Ω emitted")
		}
		peak = res.Peak
	}
	b.ReportMetric(peak, "peakU")
}

// BenchmarkScheduleTenCube solves the large layered workload on a
// 10-cube (1024 nodes) at 512 B/µs — the first of the two scale
// targets the sparse-LP/arena work opens up.
func BenchmarkScheduleTenCube(b *testing.B) {
	benchScheduleLarge(b, cliutil.TenCubeTopo, cliutil.TenCubeBW)
}

// BenchmarkScheduleTorus32 solves the same workload on a 32x32 torus
// at 2048 B/µs.
func BenchmarkScheduleTorus32(b *testing.B) {
	benchScheduleLarge(b, cliutil.Torus32Topo, cliutil.Torus32BW)
}

// BenchmarkScheduleBatch64 is the batch acceptance benchmark: 64
// same-structure items submitted as one /v1/schedule:batch request
// versus 64 sequential /v1/schedule calls against the same server.
// The batch groups the items by structure key, so identical items
// collapse to a single solve and a single JSON encode, while the
// sequential client pays a full round trip, decode, and solve per
// item; distinct-τin items additionally spread across the worker pool
// on multi-core hosts. One item is posted up front so both sub-runs
// measure a warm structure cache.
func BenchmarkScheduleBatch64(b *testing.B) {
	srv := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	item := api.ScheduleRequest{Problem: api.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64, TauIn: 150}}
	one, err := json.Marshal(item)
	if err != nil {
		b.Fatal(err)
	}
	batch := api.BatchScheduleRequest{Items: make([]api.ScheduleRequest, 64)}
	for i := range batch.Items {
		batch.Items[i] = item
	}
	many, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, path string, body []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	post(b, "/v1/schedule", one)

	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				post(b, "/v1/schedule", one)
			}
		}
	})
	b.Run("Batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(b, "/v1/schedule:batch", many)
		}
	})
}

// BenchmarkTenantAdmitSixCube is the multi-tenant admission acceptance
// benchmark: each iteration builds a fresh 6-cube fabric, admits a
// bystander tenant round-robin at the grid's lightest load, then a
// second tenant running the same DVB application placed half a machine
// away (identical placements can never co-schedule — a tenant's direct
// links are reserved at full share, and the N/2 shift is a hypercube
// automorphism). Both admissions must succeed: the second solves
// against the residual shares the first reserved, which is the whole
// cost the ladder adds over a solo Compute.
func BenchmarkTenantAdmitSixCube(b *testing.B) {
	vic := dvbSixCubeProblem(b, 150)
	bys := vic
	bys.TauIn = vic.Timing.TauC() * 5
	n := vic.Topology.Nodes()
	shifted := &alloc.Assignment{NodeOf: make([]topology.NodeID, len(vic.Assignment.NodeOf))}
	for t, nd := range vic.Assignment.NodeOf {
		shifted.NodeOf[t] = topology.NodeID((int(nd) + n/2) % n)
	}
	vic.Assignment = shifted
	opts := schedule.Options{Seed: 1}
	var tauOut float64
	for i := 0; i < b.N; i++ {
		set := schedule.NewTenantSet(vic.Topology)
		rep, err := set.Admit(context.Background(), schedule.Tenant{
			ID: "bystander", Priority: 1, Problem: bys, Options: opts,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Admitted {
			b.Fatalf("bystander rejected on an empty fabric: %s", rep.Reason)
		}
		rep, err = set.Admit(context.Background(), schedule.Tenant{
			ID: "victim", Priority: 1, Problem: vic, Options: opts,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Admitted {
			b.Fatalf("second tenant rejected: %s", rep.Reason)
		}
		tauOut = rep.TauOut
	}
	b.ReportMetric(tauOut/vic.TauIn, "tauout/tauin")
}

func BenchmarkShortestPathEnumeration(b *testing.B) {
	top, err := topology.NewHypercube(6)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if got := top.ShortestPaths(0, 63, 24); len(got) != 24 {
			b.Fatalf("got %d paths", len(got))
		}
	}
}

// compileLargeTFG is the repository benchmark's compile_large graph:
// cliutil.LayeredLargeTFG with 6 inner layers in place of 14 (448 tasks,
// 1153 messages).
const compileLargeTFG = "layered:7,32,64*6,32,0.03"

// compileLargeSolve runs the pipeline once on a compile_large problem;
// the per-layer benchmarks below cut their pre-built inputs out of it.
func compileLargeSolve(b *testing.B, topoSpec string, bw float64) (schedule.Problem, *schedule.Result) {
	b.Helper()
	p := layeredProblem(b, compileLargeTFG, topoSpec, bw)
	res, err := schedule.Compute(p, schedule.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Feasible {
		b.Fatalf("compile_large on %s infeasible at %v", topoSpec, res.FailStage)
	}
	return p, res
}

// BenchmarkAssignPathsTorus32 is the Fig. 4 hill-climb alone on the
// 32x32 torus, from the LSD baseline with the pipeline's defaults (24
// candidate paths, 6 restarts of 60 moves).
func BenchmarkAssignPathsTorus32(b *testing.B) {
	p, res := compileLargeSolve(b, cliutil.Torus32Topo, cliutil.Torus32BW)
	lsd, err := schedule.LSDAssignment(p.Graph, p.Topology, p.Assignment, res.Windows)
	if err != nil {
		b.Fatal(err)
	}
	cands, err := schedule.BuildCandidates(p.Graph, p.Topology, p.Assignment, res.Windows, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var evals int
	for i := 0; i < b.N; i++ {
		ar := schedule.AssignPaths(lsd, cands, p.Topology, res.Windows, res.Activity, 1, 6, 60)
		if ar.Util.Peak != res.Peak {
			b.Fatalf("peak %v, the pipeline reached %v", ar.Util.Peak, res.Peak)
		}
		evals = ar.Iterations
	}
	b.ReportMetric(float64(evals), "evals/op")
}

// BenchmarkAssignPathsCompileLP is the Fig. 4 hill-climb alone on the
// entry of the repository benchmark's compile_lp pool that spends the
// most in it, cube8-s5-d0.05-b512-t170: layered:5,16,32*6,16,0.05 on
// the 8-cube at B=512, τin 170, built through api.NewProblem and solved
// once with the pool's options (Seed 1, Retries 2). The entry fails at
// interval scheduling, so the pipeline climbs in each of its three
// attempts, from the LSD baseline with seeds 1, 2 and 3 and its defaults
// (24 candidate paths, 6 restarts of 60 moves). An iteration runs the
// three climbs as independent AssignPaths calls, so it climbs restart 0,
// which reads no seed, in each where the pipeline climbs it once: it
// must reach the pipeline's peak after the pipeline's evaluations plus
// restart 0's for each attempt after the first.
func BenchmarkAssignPathsCompileLP(b *testing.B) {
	built, err := api.NewProblem(api.Problem{TFG: "layered:5,16,32*6,16,0.05", Topology: "cube:8", Bandwidth: 512, TauIn: 170})
	if err != nil {
		b.Fatal(err)
	}
	opts, err := api.Options{Seed: 1, Retries: 2}.ToSchedule()
	if err != nil {
		b.Fatal(err)
	}
	p := built.ScheduleProblemAt(170)
	res, err := schedule.Compute(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	lsd, err := schedule.LSDAssignment(p.Graph, p.Topology, p.Assignment, res.Windows)
	if err != nil {
		b.Fatal(err)
	}
	cands, err := schedule.BuildCandidates(p.Graph, p.Topology, p.Assignment, res.Windows, 24)
	if err != nil {
		b.Fatal(err)
	}
	restart0 := schedule.AssignPaths(lsd, cands, p.Topology, res.Windows, res.Activity, opts.Seed, 1, 60).Iterations
	pipeline := res.Stats.AssignIterations + (res.Stats.Attempts-1)*restart0
	b.ReportAllocs()
	b.ResetTimer()
	var evals int
	for i := 0; i < b.N; i++ {
		peak := res.PeakLSD
		evals = 0
		for attempt := 0; attempt < res.Stats.Attempts; attempt++ {
			ar := schedule.AssignPaths(lsd, cands, p.Topology, res.Windows, res.Activity, opts.Seed+int64(attempt), 6, 60)
			peak = min(peak, ar.Util.Peak)
			evals += ar.Iterations
		}
		if peak != res.Peak || evals != pipeline {
			b.Fatalf("peak %v after %d evaluations, the pipeline reached %v after %d and restart 0 takes %d", peak, evals, res.Peak, res.Stats.AssignIterations, restart0)
		}
	}
	b.ReportMetric(float64(evals), "evals/op")
}

// BenchmarkSolveRetriesCompileLP is the whole pipeline on the entry of
// the repository benchmark's compile_lp pool whose Fig. 3 retries cost
// the most, cube7-s3-d0.05-b256-t90: layered:3,16,16*6,16,0.05 on the
// 7-cube at B=256, τin 90, built through api.NewProblem and solved with
// the pool's options (Seed 1, Retries 2). Every attempt fails at
// interval scheduling, so each iteration runs all three; it fails unless
// the solve ends there, at the pool's peak, after three attempts. It
// reports the AssignPaths evaluations the solve performed.
func BenchmarkSolveRetriesCompileLP(b *testing.B) {
	built, err := api.NewProblem(api.Problem{TFG: "layered:3,16,16*6,16,0.05", Topology: "cube:7", Bandwidth: 256, TauIn: 90})
	if err != nil {
		b.Fatal(err)
	}
	opts, err := api.Options{Seed: 1, Retries: 2}.ToSchedule()
	if err != nil {
		b.Fatal(err)
	}
	p := built.ScheduleProblemAt(90)
	b.ReportAllocs()
	var evals int
	for i := 0; i < b.N; i++ {
		res, err := schedule.Compute(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.FailStage != schedule.StageIntervalSchedule || res.Peak != 0.4790736607142857 || res.Stats.Attempts != 3 {
			b.Fatalf("ended at %v with peak %v after %d attempts, want interval scheduling with peak 0.4790736607142857 after 3",
				res.FailStage, res.Peak, res.Stats.Attempts)
		}
		evals = res.Stats.AssignIterations
	}
	b.ReportMetric(float64(evals), "evals/op")
}

// BenchmarkSolveAlternatingShapes is the pooled solve across problem
// shapes: warm Solvers for dvb:4 on cube:6 at B=64 and on torus:8,8 at
// B=128, both at τin 100, and one op is one Solve of each, so every
// Solve takes an arena the other shape warmed (other link, interval and
// message counts). It fails unless each verdict and peak equals its
// one-shot Compute.
func BenchmarkSolveAlternatingShapes(b *testing.B) {
	ctx := context.Background()
	type shape struct {
		solver *schedule.Solver
		want   *schedule.Result
	}
	var shapes []shape
	for _, p := range []api.Problem{
		{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64, TauIn: 100},
		{TFG: "dvb:4", Topology: "torus:8,8", Bandwidth: 128, TauIn: 100},
	} {
		built, err := api.NewProblem(p)
		if err != nil {
			b.Fatal(err)
		}
		want, err := schedule.Compute(built.ScheduleProblem(), schedule.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		solver := schedule.NewSolver(built.ScheduleProblem())
		if _, err := solver.Solve(ctx, 100, schedule.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
		shapes = append(shapes, shape{solver, want})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range shapes {
			res, err := s.solver.Solve(ctx, 100, schedule.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.Feasible != s.want.Feasible || res.FailStage != s.want.FailStage || res.Peak != s.want.Peak {
				b.Fatalf("feasible %t at %v with peak %v; Compute says %t at %v with peak %v",
					res.Feasible, res.FailStage, res.Peak, s.want.Feasible, s.want.FailStage, s.want.Peak)
			}
		}
	}
}

// BenchmarkAllocationLPGHC448 is Section 5.2 interval allocation alone,
// maximal subsets then one LP per subset, on the heaviest entry of the
// repository benchmark's compile_lp pool, ghc448-s3-d0.05-b128-t65:
// layered:3,16,16*6,16,0.05 on GHC(4,4,8) at B=128, τin 65, built
// through api.NewProblem and solved once with the pool's options for the
// path assignment. The entry fails later, at interval scheduling, so
// only the allocation must succeed.
func BenchmarkAllocationLPGHC448(b *testing.B) {
	built, err := api.NewProblem(api.Problem{TFG: "layered:3,16,16*6,16,0.05", Topology: "ghc:4,4,8", Bandwidth: 128, TauIn: 65})
	if err != nil {
		b.Fatal(err)
	}
	opts, err := api.Options{Seed: 1, Retries: 2}.ToSchedule()
	if err != nil {
		b.Fatal(err)
	}
	res, err := schedule.Compute(built.ScheduleProblemAt(65), opts)
	if err != nil {
		b.Fatal(err)
	}
	pa, ws, act := res.Assignment, res.Windows, res.Activity
	allocate := func() int {
		ss := schedule.MaximalSubsets(pa, ws, act)
		if _, err := schedule.AllocateIntervals(ss, pa, ws, act); err != nil {
			b.Fatal(err)
		}
		return len(ss)
	}
	allocate()
	b.ReportAllocs()
	b.ResetTimer()
	var subsets int
	for i := 0; i < b.N; i++ {
		subsets = allocate()
	}
	b.ReportMetric(float64(subsets), "subsets/op")
}

// BenchmarkScheduleIntervalsTenCube is Section 5.3 interval scheduling
// alone on the 10-cube: every interval holds far more messages than the
// exact engine takes, so the greedy decomposition, the chaining of its
// sets and the realisation of the slices do the work. It reports the
// slices and the commands the Ω built from them holds.
func BenchmarkScheduleIntervalsTenCube(b *testing.B) {
	p, res := compileLargeSolve(b, cliutil.TenCubeTopo, cliutil.TenCubeBW)
	b.ReportAllocs()
	b.ResetTimer()
	var sls []schedule.Slice
	for i := 0; i < b.N; i++ {
		var err error
		if sls, err = schedule.ScheduleIntervals(res.Allocation, res.Assignment, res.Activity, schedule.EngineAuto, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	commands := schedule.BuildOmega(sls, res.Assignment, res.Windows, p.Topology.Nodes(), p.TauIn, res.Latency).NumCommands()
	if len(sls) != len(res.Slices) || commands != res.Omega.NumCommands() {
		b.Fatalf("%d slices and %d commands, the pipeline emitted %d and %d", len(sls), commands, len(res.Slices), res.Omega.NumCommands())
	}
	b.ReportMetric(float64(len(sls)), "slices/op")
	b.ReportMetric(float64(commands), "commands/op")
}

// BenchmarkBuildOmegaTenCube is Ω emission alone on the 10-cube: the
// pipeline's slices and path assignment into the per-node command
// lists (one slab, written in order).
func BenchmarkBuildOmegaTenCube(b *testing.B) {
	p, res := compileLargeSolve(b, cliutil.TenCubeTopo, cliutil.TenCubeBW)
	b.ReportAllocs()
	b.ResetTimer()
	var commands int
	for i := 0; i < b.N; i++ {
		om := schedule.BuildOmega(res.Slices, res.Assignment, res.Windows, p.Topology.Nodes(), p.TauIn, res.Latency)
		commands = om.NumCommands()
	}
	if commands != res.Omega.NumCommands() {
		b.Fatalf("%d commands, the pipeline emitted %d", commands, res.Omega.NumCommands())
	}
	b.ReportMetric(float64(commands), "commands/op")
}

// BenchmarkValidateTenCube is validation alone of the 10-cube's Ω: the
// id and window checks, the linkset table read back from the commands,
// and the contention sweep.
func BenchmarkValidateTenCube(b *testing.B) {
	p, res := compileLargeSolve(b, cliutil.TenCubeTopo, cliutil.TenCubeBW)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.Omega.Validate(p.Topology); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Omega.NumCommands()), "commands/op")
}

// benchAnneal is the annealing allocator alone at a 2 000-move budget;
// it reports the contention proxy the search ended on.
func benchAnneal(b *testing.B, g *tfg.Graph, top *topology.Topology) {
	b.ReportAllocs()
	b.ResetTimer()
	var as *alloc.Assignment
	for i := 0; i < b.N; i++ {
		var err error
		if as, err = alloc.Anneal(g, top, alloc.AnnealOptions{Seed: 2, Steps: 2000}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(alloc.LinkLoadCost(g, top, as), "cost")
}

// BenchmarkAnnealSixCube is the annealed candidate placement of
// BenchmarkExploreSixCube alone: DVB on the 6-cube, seed 2.
func BenchmarkAnnealSixCube(b *testing.B) {
	p := dvbSixCubeProblem(b, 0)
	benchAnneal(b, p.Graph, p.Topology)
}

// BenchmarkAnnealTorus32 anneals the compile_large graph on the 32x32
// torus: 1153 messages of up to 32 hops, where a move still re-routes
// only the messages of the one or two tasks it relocates.
func BenchmarkAnnealTorus32(b *testing.B) {
	p := layeredProblem(b, compileLargeTFG, cliutil.Torus32Topo, cliutil.Torus32BW)
	benchAnneal(b, p.Graph, p.Topology)
}

// BenchmarkExploreSixCube is the Pareto-exploration acceptance
// benchmark: each iteration searches the τin × latency × resources
// front for the 6-cube DVB problem with one annealed candidate
// placement — per placement a minimal-τin bisection plus a small
// period ladder with window minimization, the whole cost of answering
// the capacity-planning question instead of one solve.
func BenchmarkExploreSixCube(b *testing.B) {
	prob := dvbSixCubeProblem(b, 0)
	spec := schedule.ExploreSpec{GridPoints: 2, AnnealSeeds: []int64{2}, AnnealSteps: 2000}
	opts := schedule.Options{Seed: 1}
	var front int
	for i := 0; i < b.N; i++ {
		pf, err := schedule.Explore(context.Background(), prob, opts, spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(pf.Points) == 0 {
			b.Fatal("empty Pareto front")
		}
		front = len(pf.Points)
	}
	b.ReportMetric(float64(front), "front-pts")
}
