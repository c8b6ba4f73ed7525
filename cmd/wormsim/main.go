// Command wormsim simulates wormhole routing of a periodically invoked
// task-flow graph and reports per-invocation throughput and latency,
// flagging output inconsistency.
//
// Usage:
//
//	wormsim -tfg dvb:4 -topo cube:6 -bw 64 -tauin 75 -invocations 40
package main

import (
	"flag"
	"fmt"
	"os"

	"schedroute/internal/cliutil"
	"schedroute/internal/metrics"
	"schedroute/internal/wormhole"
)

func main() {
	pf := cliutil.AddProblemFlags(flag.CommandLine)
	invocations := flag.Int("invocations", 40, "measured invocations")
	warmup := flag.Int("warmup", 20, "warmup invocations excluded from measurement")
	adaptive := flag.Bool("adaptive", false, "adaptive cut-through path selection instead of LSD-to-MSD")
	strictVC := flag.Bool("strict-vc", false, "stricter model: two multiplexed virtual channels per physical channel (half bandwidth)")
	verbose := flag.Bool("v", false, "print every output interval")
	flag.Parse()

	b, _, err := pf.ParseProblem()
	if err != nil {
		cliutil.Fatal("wormsim", err)
	}
	g, tm, top := b.Graph, b.Timing, b.Topology
	period := b.TauIn

	res, err := wormhole.Simulate(wormhole.Config{
		Graph: g, Timing: tm, Topology: top, Assignment: b.Assignment,
		TauIn: period, Invocations: *invocations, Warmup: *warmup,
		Adaptive: *adaptive, StrictVC: *strictVC,
	})
	if err != nil {
		cliutil.Fatal("wormsim", err)
	}

	fmt.Printf("TFG %s on %s, B=%g bytes/µs, τin=%g µs (load %.4f)\n",
		g.Name(), top, pf.BW, period, tm.TauC()/period)
	if res.Deadlocked {
		fmt.Println("DEADLOCK: undelivered messages remain (path-holding cycle)")
		os.Exit(1)
	}
	cp, _ := g.CriticalPath(tm)
	ivs := metrics.Intervals(res.OutputCompletions)
	th, err := metrics.NormalizedThroughput(period, ivs)
	if err != nil {
		cliutil.Fatal("wormsim", err)
	}
	lat, err := metrics.NormalizedLatency(cp, res.Latencies)
	if err != nil {
		cliutil.Fatal("wormsim", err)
	}
	oi := metrics.OutputInconsistent(period, ivs, 1e-6)
	fmt.Printf("normalized throughput (min/mid/max): %s\n", th)
	fmt.Printf("normalized latency    (min/mid/max): %s\n", lat)
	fmt.Printf("output inconsistency: %v; total link wait %.1f µs\n", oi, res.TotalLinkWait)
	if *verbose {
		for i, iv := range ivs {
			fmt.Printf("  interval %2d: %.3f µs\n", i, iv)
		}
	}
}
