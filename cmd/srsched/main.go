// Command srsched computes a scheduled-routing communication schedule Ω
// for a task-flow graph on a multicomputer topology and reports the
// result: message time bounds, peak utilization, and per-node switching
// schedules.
//
// Usage:
//
//	srsched -tfg dvb:4 -topo cube:6 -bw 64 -tauin 141
//	srsched -tfg graph.json -topo torus:8,8 -bw 128 -tauin 75 -dump
//	srsched -tfg dvb:4 -topo cube:6 -tauin 141 -fail-link 0-1 -verify-packets 64
//	srsched -tfg dvb:4 -topo cube:6 -tauin 141 -trace -trace-out trace.json
//	srsched -tfg dvb:4 -topo cube:6 -tauin 150 -fail-link 0-1 -watch http://localhost:8080
//	srsched -tfg dvb:4 -topo cube:6 -tauin 50 -admit http://localhost:8080 -tenant video -priority 5 -rate 0.5
//	srsched -tfg dvb:4 -topo cube:6 -bw 64 -explore -anneal-seeds 2,3
//
// With -fail-link u-v the computed schedule is repaired for the named
// link fault through the degradation ladder (incremental reroute, full
// recompute, widened windows, reduced rate); -fail-node fails a node
// instead. Combined with -verify-packets, the repaired Ω is replayed
// with the fault injected mid-run. An infeasible repair exits with
// status 3.
//
// With -watch URL nothing is solved locally: the problem is registered
// as a /v1/watch subscription on a running srschedd, the fault (or a
// -watch-events random scenario) is replayed as watch events, and each
// incrementally repaired frame is printed as it streams back.
//
// With -admit URL the problem is submitted as a tenant admission
// (POST /v1/admit) against the shared fabric of a running srschedd:
// -tenant names the tenant, -priority ranks it for eviction, and -rate
// sets the minimum acceptable τin/τout fraction. An admission the
// degradation ladder cannot satisfy exits with status 4 and prints the
// rejection report. The same -tenant flag scopes a -watch subscription
// to an admitted tenant's standing schedule.
//
// With -explore the tool searches the Pareto front over τin × latency ×
// resources instead of solving one period: the -alloc placement and one
// annealed placement per -anneal-seeds entry are each bisected to their
// minimal feasible τin, a ladder of candidate periods above each
// minimum is solved for latency- and footprint-minimal schedules, and
// the non-dominated points are printed. -best, -admit, -watch and
// -explore are mutually exclusive modes; combining them exits with
// status 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"schedroute/internal/cliutil"
	"schedroute/internal/cpsim"
	"schedroute/internal/experiments"
	"schedroute/internal/gantt"
	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

func main() {
	pf := cliutil.AddProblemFlags(flag.CommandLine)
	pf.AddFaultFlags(flag.CommandLine)
	lsdOnly := flag.Bool("lsd", false, "skip AssignPaths, keep LSD-to-MSD paths")
	dump := flag.Bool("dump", false, "print every node switching schedule")
	margin := flag.Float64("margin", 0, "CP clock-skew margin in µs (Section 7)")
	retries := flag.Int("retries", 0, "AssignPaths feedback retries on downstream failure")
	save := flag.String("save", "", "write the computed Ω as JSON to this file")
	packets := flag.Int("verify-packets", 0, "re-verify Ω by packet-level CP simulation with this packet size (bytes)")
	chart := flag.Bool("gantt", false, "render the frame's link occupancy as an ASCII chart")
	shared := flag.Bool("shared", false, "allow several tasks per node (AP-sharing node schedule)")
	best := flag.Int("best", 0, "search this many random placements (plus rr and greedy) in parallel and keep the best schedule")
	procs := flag.Int("procs", 0, "worker goroutines for the -best candidate search, and for AssignPaths' restarts on a problem of 512 or more multi-path messages (0 = GOMAXPROCS, 1 = serial)")
	stats := flag.Bool("stats", false, "report pipeline attempts, AssignPaths evaluations and per-stage wall-clock times")
	showTrace := flag.Bool("trace", false, "record the solve pipeline as a span tree and render it after the run")
	traceOut := flag.String("trace-out", "", "write the recorded trace as Chrome trace_event JSON to this file (implies tracing)")
	watch := flag.String("watch", "", "stream repairs from a running srschedd at this base URL instead of solving locally: the -fail-link/-fail-node fault is replayed as fault then fault-repaired events over /v1/watch")
	watchEvents := flag.Int("watch-events", 0, "with -watch: replay a -seed random link-fault scenario of this many faults instead of the -fail-link/-fail-node pair")
	admitURL := flag.String("admit", "", "run the multi-tenant admission check for this problem on a running srschedd at this base URL (POST /v1/admit) instead of solving locally; a rejection exits with status 4")
	tenantID := flag.String("tenant", "", "tenant id for -admit or -watch requests (empty = the default tenant)")
	priority := flag.Int("priority", 0, "tenant priority for -admit: higher may evict strictly lower on a full fabric")
	rate := flag.Float64("rate", 0, "tenant rate guarantee for -admit: minimum acceptable τin/τout fraction in (0,1]; 0 accepts any degraded rate")
	explore := flag.Bool("explore", false, "explore the Pareto front over τin × latency × resources instead of solving one period: minimal feasible τin per placement by bisection, then latency- and footprint-minimal schedules, dominated points dropped")
	objectives := flag.String("objectives", "", "with -explore: comma-separated minimized objectives among tau_in, latency, links, buffers (empty = all four)")
	annealSeeds := flag.String("anneal-seeds", "", "with -explore: comma-separated annealer seeds, one candidate placement each (empty = seed+1, seed+2)")
	gridPoints := flag.Int("grid-points", 0, "with -explore: candidate periods per placement above its bisected minimum (0 = 5)")
	flag.Parse()
	if *best < 0 || *procs < 0 {
		fmt.Fprintf(os.Stderr, "srsched: -best and -procs must be >= 0, got -best %d -procs %d\n", *best, *procs)
		os.Exit(cliutil.ExitUsage)
	}
	if *watchEvents < 0 {
		fmt.Fprintf(os.Stderr, "srsched: -watch-events must be >= 0, got %d\n", *watchEvents)
		os.Exit(cliutil.ExitUsage)
	}

	cliutil.RequireExclusiveModes("srsched",
		cliutil.Mode{Flag: "best", Set: *best > 0},
		cliutil.Mode{Flag: "admit", Set: *admitURL != ""},
		cliutil.Mode{Flag: "watch", Set: *watch != ""},
		cliutil.Mode{Flag: "explore", Set: *explore},
	)

	tenant := wireTenant(*tenantID, *priority, *rate)
	if *admitURL != "" {
		runAdmit(*admitURL, pf, tenant)
		return
	}
	if *watch != "" {
		runWatch(*watch, pf, *watchEvents, tenant)
		return
	}

	ctx := context.Background()
	b, fs, err := pf.ParseProblem()
	if err != nil {
		cliutil.Fatal("srsched", err)
	}
	g, tm, top := b.Graph, b.Timing, b.Topology
	period := b.TauIn

	prob := b.ScheduleProblem()
	opts := schedule.Options{
		Seed: pf.Seed, LSDOnly: *lsdOnly, SyncMargin: *margin, Retries: *retries,
		AllowSharedNodes: *shared, Procs: *procs, CollectStats: *stats,
	}
	// The root spans the whole invocation (solve, repair, candidate
	// search); every pipeline stage records underneath it.
	var root *trace.Span
	if *showTrace || *traceOut != "" {
		root = trace.Start("srsched")
		opts.Trace = root
	}
	if *explore {
		runExplore(ctx, b, opts, *gridPoints, *annealSeeds, *objectives, root, *showTrace, *traceOut)
		return
	}
	var res *schedule.Result
	if *best > 0 {
		// Coupled placement search: rr, greedy, and -best random
		// placements are scheduled concurrently and the best outcome
		// kept (deterministic for a fixed seed, any -procs value).
		seeds := make([]int64, *best)
		for i := range seeds {
			seeds[i] = pf.Seed + int64(i)
		}
		cands, err := schedule.DefaultCandidates(ctx, prob, seeds...)
		if err != nil {
			cliutil.Fatal("srsched", err)
		}
		sr, err := schedule.ComputeBestAllocation(ctx, prob, opts, cands)
		if err != nil {
			cliutil.Fatal("srsched", err)
		}
		res = sr.Result
		fmt.Printf("candidate search: %d placements, best is #%d\n", len(cands), sr.Chosen)
	} else {
		res, err = schedule.Compute(prob, opts)
		if err != nil {
			cliutil.Fatal("srsched", err)
		}
	}

	fmt.Printf("TFG %s: %d tasks, %d messages; topology %s (%d links)\n",
		g.Name(), g.NumTasks(), g.NumMessages(), top, top.Links())
	fmt.Printf("τc = %g µs, τm = %g µs, τin = %g µs (load %.4f)\n",
		tm.TauC(), tm.TauM(), period, tm.TauC()/period)
	fmt.Printf("peak utilization: LSD-to-MSD %.4f, after AssignPaths %.4f\n",
		res.PeakLSD, res.Peak)
	if *stats {
		st := res.Stats
		fmt.Printf("stats: %d attempt(s), %d AssignPaths evaluations\n", st.Attempts, st.AssignIterations)
		fmt.Printf("stats: windows %v, assign %v, allocate %v, schedule %v, omega %v\n",
			st.WindowsTime, st.AssignTime, st.AllocateTime, st.ScheduleTime, st.OmegaTime)
	}
	if !res.Feasible {
		fmt.Printf("INFEASIBLE at stage: %s\n", res.FailStage)
		emitTrace(root, *showTrace, *traceOut)
		os.Exit(1)
	}
	fmt.Printf("FEASIBLE: %d intervals, %d slices, %d switching commands, latency %g µs (%.4f× critical path)\n",
		res.Intervals.K(), len(res.Slices), res.Omega.NumCommands(), res.Latency, normLatency(res, g, tm))
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			cliutil.Fatal("srsched", err)
		}
		if err := schedule.EncodeOmega(f, res.Omega); err != nil {
			cliutil.Fatal("srsched", err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fatal("srsched", err)
		}
		fmt.Printf("Ω written to %s\n", *save)
	}
	var repaired *schedule.Omega
	if fs != nil {
		rep, err := schedule.Repair(ctx, prob, opts, res, fs)
		if err != nil {
			cliutil.Fatal("srsched", err)
		}
		if rerr := rep.Err(); rerr != nil {
			cliutil.Fatal("srsched", rerr)
		}
		fmt.Printf("repair for %s: %s (%d affected, %d rerouted), peak %.4f",
			fs, rep.Outcome, len(rep.Affected), rep.Rerouted, rep.NewPeak)
		switch rep.Outcome {
		case schedule.RepairDegradedWindow:
			fmt.Printf(", window ×%.2f", rep.WindowScale)
		case schedule.RepairDegradedRate:
			fmt.Printf(", τout %g µs (%.2f× τin)", rep.TauOut, rep.TauOut/period)
		}
		fmt.Println()
		if rep.Result != nil {
			repaired = rep.Result.Omega
		}
	}
	if *packets > 0 {
		cfg := cpsim.Config{
			Omega: res.Omega, Graph: g, Topology: top,
			PacketBytes: *packets, Bandwidth: pf.BW,
		}
		if repaired != nil {
			// Replay 2 healthy frames, fail the element, then hand over
			// to the repaired Ω for the back half of the run.
			cfg.Invocations = 8
			cfg.Fault = &cpsim.FaultInjection{Faults: fs, FailAt: 2, Repaired: repaired, RepairAt: 4}
		}
		out, err := cpsim.Run(cfg)
		if err != nil {
			cliutil.Fatal("srsched", err)
		}
		fmt.Printf("packet-level CP simulation: %d packets delivered, %d violations, skew tolerance ±%.3g µs\n",
			out.PacketsDelivered, len(out.Violations), out.MaxSkewTolerated)
		if repaired != nil {
			fmt.Printf("fault injected mid-run: %d packets lost, OI window [%g, %g] µs, %d violations under the repaired Ω\n",
				out.LostPackets, out.OIStart, out.OIEnd, len(out.RepairViolations))
			if len(out.RepairViolations) > 0 {
				os.Exit(1)
			}
		}
		if len(out.Violations) > 0 && repaired == nil {
			os.Exit(1)
		}
	}
	if *chart {
		if err := gantt.Render(os.Stdout, res.Omega, top, 80); err != nil {
			cliutil.Fatal("srsched", err)
		}
		fmt.Println("legend:")
		if err := gantt.Legend(os.Stdout, g); err != nil {
			cliutil.Fatal("srsched", err)
		}
	}
	if *dump {
		dumpOmega(res.Omega, top)
	}
	emitTrace(root, *showTrace, *traceOut)
}

// runExplore runs the local Pareto-front exploration: every candidate
// placement (the -alloc placement plus one annealed placement per
// -anneal-seeds entry) is bisected to its minimal feasible τin, a small
// period ladder above each minimum is solved for latency- and
// footprint-minimal schedules, and the non-dominated front is printed.
// No feasible schedule anywhere in range exits with status 1, like an
// infeasible single solve.
func runExplore(ctx context.Context, b *schedroute.Built, opts schedule.Options, gridPoints int, annealSeeds, objectives string, root *trace.Span, showTrace bool, traceOut string) {
	spec, err := cliutil.ParseExploreSpec(gridPoints, annealSeeds, objectives)
	if err != nil {
		cliutil.Fatal("srsched", err)
	}
	if len(spec.AnnealSeeds) == 0 {
		spec.AnnealSeeds = []int64{opts.Seed + 1, opts.Seed + 2}
	}
	spec.Trace = root
	opts.Trace = nil // Explore records its own span family under spec.Trace
	front, err := schedule.Explore(ctx, b.ScheduleProblem(), opts, spec)
	if err != nil {
		cliutil.Fatal("srsched", err)
	}
	series := &experiments.ParetoSeries{
		Config: fmt.Sprintf("%s on %s", b.Graph.Name(), b.Topology),
		Front:  front,
	}
	if err := series.WriteText(os.Stdout); err != nil {
		cliutil.Fatal("srsched", err)
	}
	emitTrace(root, showTrace, traceOut)
	if len(front.Points) == 0 {
		os.Exit(1)
	}
}

// wireTenant builds the optional wire tenant from the three flags; all
// zero means no tenant field (a v1-shaped request).
func wireTenant(id string, priority int, rate float64) *schedroute.Tenant {
	if id == "" && priority == 0 && rate == 0 {
		return nil
	}
	return &schedroute.Tenant{ID: id, Priority: priority, RateGuarantee: rate}
}

// runAdmit asks a running srschedd to admit this problem as a tenant
// and prints the admission report. The exit status follows the errkind
// table: 0 admitted, 4 rejected (the service's 422), the error's own
// class otherwise.
func runAdmit(baseURL string, pf *cliutil.ProblemFlags, tenant *schedroute.Tenant) {
	spec, err := pf.Spec()
	if err != nil {
		cliutil.Fatal("srsched", err)
	}
	wc := &schedroute.WatchClient{BaseURL: baseURL}
	adm, err := wc.Admit(context.Background(), schedroute.AdmitRequest{Problem: spec, Tenant: tenant})
	if adm == nil {
		// Not an admission verdict (bad flags, unreachable fabric...):
		// the error carries the service's class, and exits with it.
		cliutil.Fatal("srsched", err)
	}

	fmt.Printf("tenant %q: %s", adm.TenantID, adm.Outcome)
	if adm.Admitted {
		fmt.Printf(", τout %g µs", adm.TauOut)
		if adm.WindowScale != 1 {
			fmt.Printf(", window ×%.2f", adm.WindowScale)
		}
		fmt.Printf(", peak %.4f", adm.Peak)
	}
	fmt.Println()
	if len(adm.Evicted) > 0 {
		fmt.Printf("evicted: %v\n", adm.Evicted)
	}
	if !adm.Admitted {
		fmt.Printf("reason: %s (bottleneck link %d, residual share %.3g)\n",
			adm.Reason, adm.BottleneckLink, adm.BottleneckShare)
		os.Exit(cliutil.ExitStatus(err))
	}
}

// runWatch drives a srschedd /v1/watch subscription instead of solving
// locally: it registers the flags' problem, replays the requested
// fault scenario as events, and prints each repaired frame as it
// streams back. The WatchClient reconnects dropped transports with
// backoff and Last-Event-ID resume, so a daemon restart mid-scenario
// only delays the stream. An infeasible repair exits with status 3,
// like the local -fail-link path.
func runWatch(baseURL string, pf *cliutil.ProblemFlags, nEvents int, tenant *schedroute.Tenant) {
	prob, err := pf.Spec()
	if err != nil {
		cliutil.Fatal("srsched", err)
	}

	// The event script: the single -fail-link/-fail-node fault struck and
	// then repaired, or a seeded random link-fault scenario — the one
	// case that needs the machine built on this side.
	var evs []schedroute.WatchEvent
	if spec := pf.FaultSpec(); nEvents > 0 {
		b, err := schedroute.NewProblem(prob)
		if err != nil {
			cliutil.Fatal("srsched", err)
		}
		if nEvents > b.Topology.Links() {
			cliutil.Fatal("srsched", fmt.Errorf("-watch-events %d exceeds the machine's %d links", nEvents, b.Topology.Links()))
		}
		evs = randomWatchScript(b.Topology, pf.Seed, nEvents)
	} else if spec.Empty() {
		cliutil.Fatal("srsched", fmt.Errorf("-watch needs -fail-link, -fail-node, or -watch-events"))
	} else {
		evs = []schedroute.WatchEvent{
			{Type: schedroute.WatchEventFault, Links: spec.Links, Nodes: spec.Nodes},
			{Type: schedroute.WatchEventRepaired, Links: spec.Links, Nodes: spec.Nodes},
		}
	}

	ctx := context.Background()
	wc := &schedroute.WatchClient{BaseURL: baseURL}
	st, err := wc.Subscribe(ctx, schedroute.WatchRequest{Problem: prob, Tenant: tenant, Execute: true})
	if err != nil {
		cliutil.Fatal("srsched", err)
	}
	hello := <-st.Frames
	fmt.Printf("watch %s: subscribed, τin %g µs", st.ID, hello.TauIn)
	if hello.Schedule != nil {
		fmt.Printf(", base peak %.4f", hello.Schedule.Peak)
	}
	fmt.Println()

	// Heartbeat and gap frames pass through the loops below untouched:
	// printFrame has nothing to say about them, and they answer no event.
	status := 0
	for _, ev := range evs {
		ack, err := wc.Send(ctx, st.ID, ev)
		if err != nil {
			cliutil.Fatal("srsched", err)
		}
		for f := range st.Frames {
			printFrame(f)
			if f.Terminal {
				os.Exit(1)
			}
			if f.EventSeq == ack.EventSeq {
				if f.Type == schedroute.WatchFrameError {
					status = 3
				}
				break
			}
		}
	}
	if err := wc.Close(ctx, st.ID); err != nil {
		cliutil.Fatal("srsched", err)
	}
	for f := range st.Frames {
		printFrame(f)
	}
	if err := st.Err(); err != nil {
		cliutil.Fatal("srsched", err)
	}
	os.Exit(status)
}

// randomWatchScript returns the watch events of a seeded random
// scenario of n link faults. Each fault strikes a distinct link at an
// invocation in [0, 8) and, with probability 1/2, is repaired 1 to 4
// invocations later. Invocation by invocation, the script sends one
// fault event for the links failing there, then one fault-repaired
// event for the links coming back; a link appears in each at most once,
// so every event changes the fault state. The caller keeps n at or
// below the link count.
func randomWatchScript(top *topology.Topology, seed int64, n int) []schedroute.WatchEvent {
	const horizon = 8
	type fault struct {
		link           string // "u-v"
		at, repairedAt int    // repairedAt < 0: permanent
	}
	rng := rand.New(rand.NewSource(seed))
	used := map[topology.LinkID]bool{}
	var faults []fault
	for len(faults) < n {
		at := rng.Intn(horizon)
		rng.Float64() // node or link: always a link, but the draw stays so each seed keeps its script
		l := topology.LinkID(rng.Intn(top.Links()))
		if used[l] {
			continue
		}
		used[l] = true
		lk := top.Link(l)
		f := fault{link: fmt.Sprintf("%d-%d", lk.A, lk.B), at: at, repairedAt: -1}
		if rng.Float64() < 0.5 {
			f.repairedAt = at + 1 + rng.Intn(horizon/2)
		}
		faults = append(faults, f)
	}
	sort.SliceStable(faults, func(a, b int) bool { return faults[a].at < faults[b].at })

	var evs []schedroute.WatchEvent
	for inv := 0; inv < horizon+horizon/2; inv++ {
		fail := schedroute.WatchEvent{Type: schedroute.WatchEventFault}
		repair := schedroute.WatchEvent{Type: schedroute.WatchEventRepaired}
		for _, f := range faults {
			if f.at == inv {
				fail.Links = append(fail.Links, f.link)
			}
			if f.repairedAt == inv {
				repair.Links = append(repair.Links, f.link)
			}
		}
		for _, ev := range []schedroute.WatchEvent{fail, repair} {
			if len(ev.Links) > 0 {
				evs = append(evs, ev)
			}
		}
	}
	return evs
}

// printFrame renders one stream frame the way the local repair path
// reports its ladder outcome.
func printFrame(f schedroute.WatchFrame) {
	switch f.Type {
	case schedroute.WatchFrameSchedule:
		if r := f.Repair; r != nil {
			fmt.Printf("frame %d [%s]: %s (%d affected, %d rerouted), peak %.4f, τout %g µs\n",
				f.Seq, f.State, r.Outcome, r.Affected, r.Rerouted, r.NewPeak, r.TauOut)
		} else if f.Schedule != nil {
			fmt.Printf("frame %d [%s]: rebased, peak %.4f, τin %g µs\n",
				f.Seq, f.State, f.Schedule.Peak, f.TauIn)
		}
		if f.OI != nil {
			oi := "consistent"
			if f.OI.OI {
				oi = "INCONSISTENT"
			}
			fmt.Printf("  executor: %d invocations, throughput %.4f, output %s\n",
				f.OI.Invocations, f.OI.ThroughputMid, oi)
		}
	case schedroute.WatchFrameError:
		fmt.Printf("frame %d [%s]: ERROR: %s\n", f.Seq, f.State, f.Reason)
		if r := f.Repair; r != nil && r.Stage != "" {
			fmt.Printf("  ladder exhausted at stage %s\n", r.Stage)
		}
	case schedroute.WatchFrameClosing:
		fmt.Printf("frame %d: closing (%s)\n", f.Seq, f.Reason)
	}
}

// emitTrace renders and/or exports the recorded span tree. The root is
// ended here, so unfinished subtrees (from an early exit) still show
// with their time-so-far.
func emitTrace(root *trace.Span, render bool, out string) {
	if root == nil {
		return
	}
	root.End()
	tree := root.Tree()
	if render {
		fmt.Println("trace:")
		if err := tree.Render(os.Stdout); err != nil {
			cliutil.Fatal("srsched", err)
		}
	}
	if out == "" {
		return
	}
	f, err := os.Create(out)
	if err != nil {
		cliutil.Fatal("srsched", err)
	}
	if err := trace.WriteChromeTrace(f, tree); err != nil {
		cliutil.Fatal("srsched", err)
	}
	if err := f.Close(); err != nil {
		cliutil.Fatal("srsched", err)
	}
	fmt.Printf("trace written to %s\n", out)
}

func normLatency(res *schedule.Result, g *tfg.Graph, tm *tfg.Timing) float64 {
	cp, _ := g.CriticalPath(tm)
	return res.Latency / cp
}

func dumpOmega(om *schedule.Omega, top *topology.Topology) {
	for n := 0; n < top.Nodes(); n++ {
		cmds := om.CommandsAt(topology.NodeID(n))
		if len(cmds) == 0 {
			continue
		}
		fmt.Printf("node %d:\n", n)
		for _, c := range cmds {
			fmt.Printf("  [%8.3f, %8.3f) msg %-3d %s -> %s\n", c.Start, c.End, c.Msg, c.In, c.Out)
		}
	}
}
