package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"schedroute/internal/alloc"
	"schedroute/internal/cpsim"
	"schedroute/internal/lp"
	"schedroute/internal/schedule"
	"schedroute/internal/service"
	"schedroute/internal/tfg"
	"schedroute/internal/trace"
	api "schedroute/pkg/schedroute"
)

// The traced run replays a workload's ops stage by stage through the
// public functions Solver.Solve calls, in its order, with a span from
// internal/trace around every call. The spans are recorded here, around
// the calls into each layer; nothing inside the program is touched.
// Span names are the per-layer metric names without their unit suffix.

// layerMetrics lists every per-layer metric with its unit, in the order
// of BENCHMARK.json. A name ending in _us or _ms is a span's self time
// (mean per op that ran the layer, over the inputs' steady latencies);
// the rest are counts attached to spans or read from the service.
var layerMetrics = []struct{ name, unit string }{
	{"schedroute.decode_us", "us"}, {"schedroute.build_us", "us"}, {"schedroute.result_us", "us"},
	{"schedroute.encode_us", "us"}, {"schedroute.response_bytes", "bytes"},
	{"service.rtt_us", "us"}, {"service.overhead_us", "us"}, {"service.queue_wait_us", "us"},
	{"service.structure_us", "us"}, {"service.cache_hit_ratio", "ratio"}, {"service.cache_evictions", "count"},
	{"service.coalesced", "count"}, {"service.shed_503", "count"}, {"service.p999_ms", "ms"},
	{"topology.shortest_paths_us", "us"}, {"topology.shortest_paths_calls", "count"}, {"topology.lsd_route_us", "us"},
	{"tfg.pipelined_start_us", "us"},
	{"schedule.windows_us", "us"}, {"schedule.lsd_baseline_us", "us"}, {"schedule.candidates_us", "us"},
	{"schedule.assign_paths_us", "us"}, {"schedule.assign_iterations", "count"},
	{"schedule.maximal_subsets_us", "us"}, {"schedule.subsets", "count"}, {"schedule.allocate_us", "us"},
	{"schedule.intsched_us", "us"}, {"schedule.slices", "count"}, {"schedule.omega_us", "us"},
	{"schedule.validate_us", "us"}, {"schedule.commands", "count"}, {"schedule.attempts", "count"},
	{"schedule.solve_us", "us"}, {"schedule.solve_warm_us", "us"}, {"schedule.structure_build_us", "us"},
	{"lp.solve_us", "us"}, {"lp.solves", "count"}, {"lp.rows", "count"}, {"lp.cols", "count"}, {"lp.nnz", "count"},
	{"schedule.repair_us", "us"}, {"schedule.repair_rung", "count"}, {"schedule.session_apply_us", "us"},
	{"schedule.admit_us", "us"}, {"schedule.explore_ms", "ms"}, {"schedule.explore_evaluated", "count"},
	{"alloc.anneal_ms", "ms"}, {"schedule.snapshot_encode_us", "us"}, {"schedule.snapshot_decode_us", "us"},
	{"schedule.snapshot_bytes", "bytes"},
	{"cpsim.run_us", "us"}, {"cpsim.packets", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.heap_peak_mb", "MiB"},
	{"trace.overhead_pct", "%"},
}

// solveStages are the spans that together replay one Solver.Solve.
var solveStages = []string{"tfg.pipelined_start", "schedule.windows", "schedule.lsd_baseline", "schedule.candidates",
	"schedule.assign_paths", "schedule.maximal_subsets", "schedule.allocate", "schedule.intsched", "schedule.omega", "schedule.validate"}

// structure is the τin-independent part of a problem the solver keeps
// between solves; the replay keeps it for a structure the service
// reported as cached and rebuilds it otherwise.
type structure struct {
	starts []float64
	lsd    *schedule.PathAssignment
	cands  *schedule.Candidates
}

type tracedRun struct {
	sys  *system
	root *trace.Span
	// warm holds the structures of service entries between requests.
	warm map[string]*structure
	hc   *http.Client
	// rtts are the raw client round trips, for the informational p99.9.
	rtts      []float64
	hits, req int
	heapPeak  uint64
	failures  []string
	failed    int
}

// span runs fn inside a child span of parent.
func span(parent *trace.Span, name string, fn func()) {
	sp := parent.Start(name)
	fn()
	sp.End()
}

func count(sp *trace.Span, name string, v float64) {
	sp.SetAttrs(trace.Float64(name, v))
}

func (t *tracedRun) fail(o *op, err error) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", o.entry.ID, err))
	}
}

// replaySolve is Solver.Solve restated over the public stage functions.
// st carries what a warm solver would already hold; a nil field is
// derived (and timed) here.
func replaySolve(sp *trace.Span, b *api.Built, tauIn float64, opt schedule.Options, st *structure) (*schedule.Result, error) {
	g, tm, top, as := b.Graph, b.Timing, b.Topology, b.Assignment
	window := opt.Window
	if window == 0 {
		window = tm.TauC()
	}
	sameNode := func(m tfg.Message) bool { return as.Node(m.Src) == as.Node(m.Dst) }
	if st.starts == nil {
		span(sp, "tfg.pipelined_start", func() { st.starts = g.PipelinedStart(tm, window) })
	}
	var ws []schedule.Window
	var act *schedule.Activity
	var err error
	span(sp, "schedule.windows", func() {
		if ws, err = schedule.ComputeWindowsFromStarts(g, tm, tauIn, window, st.starts, sameNode); err == nil {
			act = schedule.BuildActivity(ws, schedule.BuildIntervals(ws, tauIn))
		}
	})
	if err != nil {
		return nil, err
	}
	res := &schedule.Result{Windows: ws, Intervals: act.Intervals, Activity: act, Latency: g.LatencyOf(tm, st.starts)}
	var lsdU *schedule.Utilization
	span(sp, "schedule.lsd_baseline", func() {
		if st.lsd == nil {
			st.lsd, err = schedule.LSDAssignment(g, top, as, ws)
		}
		if err == nil {
			lsdU = schedule.ComputeUtilization(top, st.lsd, ws, act)
		}
	})
	if err != nil {
		return nil, err
	}
	res.PeakLSD = lsdU.Peak
	if st.cands == nil {
		span(sp, "schedule.candidates", func() { st.cands, err = schedule.BuildCandidates(g, top, as, ws, 24) })
		if err != nil {
			return nil, err
		}
	}
	for attempt := 0; ; attempt++ {
		res.Stats.Attempts = attempt + 1
		var ar *schedule.AssignPathsResult
		span(sp, "schedule.assign_paths", func() {
			ar = schedule.AssignPaths(st.lsd.Clone(), st.cands, top, ws, act, opt.Seed+int64(attempt), 6, 60)
		})
		res.Stats.AssignIterations += ar.Iterations
		pa, peak := ar.Assignment, ar.Util.Peak
		if peak > lsdU.Peak {
			pa, peak = st.lsd.Clone(), lsdU.Peak
		}
		if attempt == 0 || peak < res.Peak {
			res.Assignment, res.Peak = pa, peak
		}
		stage := schedule.StageOK
		var subsets [][]tfg.MessageID
		var allocation *schedule.Allocation
		var slices []schedule.Slice
		if peak > 1+1e-6 {
			stage = schedule.StageUtilization
		} else {
			span(sp, "schedule.maximal_subsets", func() { subsets = schedule.MaximalSubsets(pa, ws, act) })
			count(sp, "schedule.subsets", float64(len(subsets)))
			span(sp, "schedule.allocate", func() { allocation, err = schedule.AllocateIntervals(subsets, pa, ws, act) })
			var infeasible *schedule.ErrAllocationInfeasible
			if errors.As(err, &infeasible) {
				stage = schedule.StageAllocation
			} else if err != nil {
				return nil, err
			}
			// The same system through the lp package alone, in its own
			// span beside the stage: its verdict must be the stage's.
			lpSpan := sp.Start("lp.model")
			feasible, shape, lerr := restateAllocation(subsets, pa, ws, act, func(p *lp.Problem) (sol lp.Solution) {
				span(lpSpan, "lp.solve", func() { sol = p.Solve() })
				return sol
			})
			lpSpan.End()
			if lerr != nil {
				return nil, lerr
			}
			count(lpSpan, "lp.solves", float64(shape.solves))
			count(lpSpan, "lp.rows", float64(shape.rows))
			count(lpSpan, "lp.cols", float64(shape.cols))
			count(lpSpan, "lp.nnz", float64(shape.nnz))
			if feasible != (stage == schedule.StageOK) {
				return nil, fmt.Errorf("the §5.2 system restated through lp is feasible=%t, AllocateIntervals says %t", feasible, stage == schedule.StageOK)
			}
		}
		if stage == schedule.StageOK {
			span(sp, "schedule.intsched", func() { slices, err = schedule.ScheduleIntervals(allocation, pa, act, opt.Engine, 0) })
			var infeasible *schedule.ErrIntervalInfeasible
			if errors.As(err, &infeasible) {
				stage = schedule.StageIntervalSchedule
			} else if err != nil {
				return nil, err
			}
		}
		if stage != schedule.StageOK {
			res.FailStage = stage
			if attempt < opt.Retries {
				continue
			}
			break
		}
		res.Assignment, res.Peak, res.Allocation, res.Slices = pa, peak, allocation, slices
		span(sp, "schedule.omega", func() {
			res.Omega = schedule.BuildOmega(slices, pa, ws, top.Nodes(), tauIn, res.Latency)
			res.Omega.Starts = st.starts
		})
		span(sp, "schedule.validate", func() { err = res.Omega.Validate(top) })
		if err != nil {
			return nil, err
		}
		res.Feasible, res.FailStage = true, schedule.StageOK
		count(sp, "schedule.slices", float64(len(slices)))
		count(sp, "schedule.commands", float64(res.Omega.NumCommands()))
		break
	}
	count(sp, "schedule.attempts", float64(res.Stats.Attempts))
	count(sp, "schedule.assign_iterations", float64(res.Stats.AssignIterations))
	return res, nil
}

// scheduleOp traces one compute or post entry. Spans under the op span
// are, in order: the live round trip (post), the wire decode and build,
// the replayed solve, the wire result and encode; then, beside them, the
// direct solves the replay is compared with, the snapshot round trip,
// the path enumeration on its own, and the packet replay.
func (t *tracedRun) scheduleOp(sp *trace.Span, o *op) error {
	opt := t.sys.opts
	b := o.built
	st := &structure{}
	rebuilt := false // the replay derived the structure anew, on a topology with an empty path cache
	if o.entry.Kind == kindPost {
		body, err := json.Marshal(api.ScheduleRequest{Problem: o.entry.Problem, Options: t.sys.w.Options, IncludeOmega: o.entry.IncludeOmega})
		if err != nil {
			return err
		}
		hit, err := t.liveRequest(sp, body)
		if err != nil {
			return err
		}
		var req api.ScheduleRequest
		span(sp, "schedroute.decode", func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&req)
		})
		if err != nil {
			return err
		}
		skey := req.Problem.StructureKey()
		if w := t.warm[skey]; hit && w != nil {
			st = w
		} else {
			span(sp, "schedroute.build", func() { b, err = api.NewProblem(req.Problem) })
			if err != nil {
				return err
			}
			t.warm[skey] = st
			rebuilt = true
		}
	}
	res, err := replaySolve(sp, b, o.tauIn, opt, st)
	if err != nil {
		return err
	}
	if o.entry.Kind == kindPost {
		var out *api.ScheduleResult
		span(sp, "schedroute.result", func() { out, err = api.NewScheduleResult(b, res, o.tauIn, o.entry.IncludeOmega, false) })
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		span(sp, "schedroute.encode", func() { err = json.NewEncoder(&buf).Encode(out) })
		if err != nil {
			return err
		}
		count(sp, "schedroute.response_bytes", float64(buf.Len()))
	}

	// The direct solves: cold on a fresh solver, then warm on the same.
	// Where the replay enumerated paths on a fresh topology, so must the
	// cold solve it is compared with; the replay has filled b's cache.
	if rebuilt {
		if b, err = api.NewProblem(o.entry.Problem); err != nil {
			return err
		}
	}
	solver := schedule.NewSolver(b.ScheduleProblem())
	var cold, warm *schedule.Result
	span(sp, "schedule.solve_cold", func() { cold, err = solver.Solve(context.Background(), o.tauIn, opt) })
	if err != nil {
		return err
	}
	span(sp, "schedule.solve_warm", func() { warm, err = solver.Solve(context.Background(), o.tauIn, opt) })
	if err != nil {
		return err
	}
	if cold.Feasible != res.Feasible || cold.Peak != res.Peak || warm.Peak != cold.Peak {
		return fmt.Errorf("replay says feasible=%t peak=%g, Solver.Solve says feasible=%t peak=%g", res.Feasible, res.Peak, cold.Feasible, cold.Peak)
	}

	var snap bytes.Buffer
	span(sp, "schedule.snapshot_encode", func() { err = schedule.EncodeSolverSnapshot(&snap, solver, "bench") })
	if err != nil {
		return err
	}
	count(sp, "schedule.snapshot_bytes", float64(snap.Len()))
	span(sp, "schedule.snapshot_decode", func() { _, err = schedule.DecodeSolverSnapshot(&snap, b.ScheduleProblem(), "bench") })
	if err != nil {
		return err
	}

	// Path enumeration alone, on a topology whose path cache is empty.
	fresh, err := api.ParseTopology(b.Spec.Topology)
	if err != nil {
		return err
	}
	calls := 0
	span(sp, "topology.shortest_paths", func() {
		for _, m := range b.Graph.Messages() {
			if s, d := b.Assignment.Node(m.Src), b.Assignment.Node(m.Dst); s != d {
				fresh.ShortestPaths(s, d, 24)
				calls++
			}
		}
	})
	count(sp, "topology.shortest_paths_calls", float64(calls))
	span(sp, "topology.lsd_route", func() {
		for _, m := range b.Graph.Messages() {
			if s, d := b.Assignment.Node(m.Src), b.Assignment.Node(m.Dst); s != d {
				fresh.LSDToMSD(s, d)
			}
		}
	})

	if res.Feasible && res.Omega.NumCommands() <= replayCommands {
		var sim *cpsim.Result
		span(sp, "cpsim.run", func() {
			sim, err = cpsim.Run(cpsim.Config{Omega: res.Omega, Graph: b.Graph, Topology: b.Topology, PacketBytes: 64, Bandwidth: b.Spec.Bandwidth})
		})
		if err != nil {
			return err
		}
		if len(sim.Violations) != 0 {
			return fmt.Errorf("cpsim: %d violations", len(sim.Violations))
		}
		count(sp, "cpsim.packets", float64(sim.PacketsDelivered))
	}
	return nil
}

// liveRequest sends one ?debug=trace request and turns the envelope the
// service attaches into spans of this run: the client's round trip with
// the service's own queue-wait, structure and solve spans beneath it.
func (t *tracedRun) liveRequest(sp *trace.Span, body []byte) (hit bool, err error) {
	rtt := sp.Start("service.rtt")
	raw, err := post(context.Background(), t.hc, t.sys.url+"/v1/schedule?debug=trace", body)
	rtt.End()
	if err != nil {
		return false, err
	}
	var res api.ScheduleResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return false, err
	}
	if res.Trace == nil || res.Trace.Root == nil {
		return false, fmt.Errorf("response carries no trace")
	}
	var solveNS int64
	for _, c := range res.Trace.Root.Children {
		switch c.Name {
		case service.SpanQueueWait:
			count(rtt, "service.queue_wait_us", float64(c.DurNS)/1e3)
		case service.SpanStructure:
			count(rtt, "service.structure_us", float64(c.DurNS)/1e3)
			for _, a := range c.Attrs {
				if a.Key == "cache_hit" {
					hit = a.Int != 0
				}
			}
		case schedule.SpanSolve:
			solveNS = c.DurNS
		}
	}
	d := rtt.Tree().DurNS
	count(rtt, "service.overhead_us", float64(d-solveNS)/1e3)
	t.rtts = append(t.rtts, float64(d)/1e6)
	t.req++
	if hit {
		t.hits++
	}
	return hit, nil
}

// ladderOp traces one repair, admit or explore entry.
func (t *tracedRun) ladderOp(sp *trace.Span, o *op) error {
	switch o.entry.Kind {
	case kindRepair, kindAdmit:
		name := "schedule.repair"
		if o.entry.Kind == kindAdmit {
			name = "schedule.admit"
		}
		var out outcome
		span(sp, name, func() { out, _ = o.run(context.Background()) })
		if out.err != nil {
			return out.err
		}
		if o.entry.Kind == kindAdmit {
			return nil
		}
		// The /v1/watch path: the same fault through a fresh session.
		p := o.built.ScheduleProblemAt(o.tauIn)
		base, err := schedule.Compute(p, t.sys.opts)
		if err != nil {
			return err
		}
		fs, err := api.FaultSpec{Links: []string{o.entry.FaultLink}}.Build(o.built.Topology)
		if err != nil {
			return err
		}
		sess, err := schedule.NewRepairSession(p, t.sys.opts, base)
		if err != nil {
			return err
		}
		var rep *schedule.RepairReport
		span(sp, "schedule.session_apply", func() { rep, _, err = sess.Apply(context.Background(), fs, nil) })
		if err != nil {
			return err
		}
		count(sp, "schedule.repair_rung", float64(rep.Outcome))
	case kindExplore:
		var pf *schedule.ParetoFront
		var err error
		span(sp, "schedule.explore", func() {
			pf, err = schedule.Explore(context.Background(), o.built.ScheduleProblemAt(0), t.sys.opts, exploreSpec())
		})
		if err != nil {
			return err
		}
		count(sp, "schedule.explore_evaluated", float64(pf.Evaluated))
		spec := exploreSpec()
		span(sp, "alloc.anneal", func() {
			_, err = alloc.Anneal(o.built.Graph, o.built.Topology, alloc.AnnealOptions{Seed: spec.AnnealSeeds[0], Steps: spec.AnnealSteps})
		})
		return err
	}
	return nil
}

var counterLine = regexp.MustCompile(`^(srschedd_cache_evictions_total|srschedd_coalesced_requests_total|srschedd_requests_total\{endpoint="schedule",code="503"\}) (\S+)$`)

const shed503 = `srschedd_requests_total{endpoint="schedule",code="503"}`

// serviceCounters reads the counters the traced run reports as deltas.
func (t *tracedRun) serviceCounters() (map[string]float64, error) {
	resp, err := t.hc.Get(t.sys.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if m := counterLine.FindStringSubmatch(line); m != nil {
			out[m[1]], _ = strconv.ParseFloat(m[2], 64)
		}
	}
	return out, nil
}

// opTotals folds one op's span subtree into per-name totals: self time
// in µs for spans, values (under "#name") for numeric attributes.
func opTotals(n *trace.Tree, into map[string]float64) {
	for _, a := range n.Attrs {
		if a.Kind == "float" {
			into["#"+a.Key] += a.Float
		}
	}
	for _, c := range n.Children {
		self := c.DurNS
		for _, gc := range c.Children {
			self -= gc.DurNS
		}
		into[c.Name] += float64(self) / 1e3
		opTotals(c, into)
	}
}

// runTraced is the --trace 1 run.
func runTraced(name string, seed int64, seconds float64, traceOut string) (*Result, *runInfo, error) {
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	sys, _, err := bringUp(name)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	t := &tracedRun{sys: sys, root: trace.Start("traced_run", trace.String("workload", name)), warm: map[string]*structure{}, hc: &http.Client{}}
	defer t.hc.CloseIdleConnections()
	var before map[string]float64
	if sys.srv != nil {
		if before, err = t.serviceCounters(); err != nil {
			return nil, nil, err
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	attempted := 0
	opEntry := []int{}
	// Every entry is traced at least once; the service sees two rounds at
	// least, so that its cache is judged on more than the priming order.
	minRounds := 1
	if sys.srv != nil {
		minRounds = 2
	}
	for round := 0; round < minRounds || time.Since(start).Seconds() < seconds; round++ {
		for _, ei := range roundOrder(seed, round, sys.plan) {
			o := &sys.ops[ei]
			sp := t.root.Start("op", trace.Int("entry", ei), trace.Int("id", attempted))
			if o.entry.Kind == kindPost || o.entry.Kind == kindCompute {
				err = t.scheduleOp(sp, o)
			} else {
				err = t.ladderOp(sp, o)
			}
			sp.End()
			if err != nil {
				t.fail(o, err)
			}
			attempted++
			opEntry = append(opEntry, ei)
			var ms runtime.MemStats
			if attempted%16 == 0 || len(sys.plan) < 16 {
				runtime.ReadMemStats(&ms)
				t.heapPeak = max(t.heapPeak, ms.HeapInuse)
			}
			if round >= minRounds && time.Since(start).Seconds() >= seconds {
				break
			}
		}
	}
	runtime.ReadMemStats(&m1)
	t.heapPeak = max(t.heapPeak, m1.HeapInuse)
	t.root.End()
	tree := t.root.Tree()

	// Fold the spans into one series per name, then into per-entry
	// steady values, then into the mean over the ops that have it.
	series := map[string][]sample{}
	kindOf := func(i int) string { return sys.ops[opEntry[i]].entry.Kind }
	opTotal := make([]map[string]float64, len(tree.Children))
	ran := map[string]map[string]bool{} // kind -> every name an op of that kind recorded
	for i, opNode := range tree.Children {
		totals := map[string]float64{}
		opTotals(opNode, totals)
		stageSum := 0.0
		for _, s := range solveStages {
			stageSum += totals[s]
		}
		if direct, ok := totals["schedule.solve_cold"]; ok {
			totals["schedule.structure_build"] = direct - totals["schedule.solve_warm"]
			totals["schedule.solve"] = direct
			if opNode.Count("schedroute.build") == 0 && sys.ops[opEntry[i]].entry.Kind == kindPost {
				totals["schedule.solve"] = totals["schedule.solve_warm"] // the service solved warm too
			}
			totals["trace.stage_sum"] = stageSum
		}
		opTotal[i] = totals
		if ran[kindOf(i)] == nil {
			ran[kindOf(i)] = map[string]bool{}
		}
		for k := range totals {
			ran[kindOf(i)][k] = true
		}
	}
	// A layer an op of some kind skipped (a cached structure, a stage
	// not reached) cost that op nothing: it counts as 0, not as absent.
	for i, totals := range opTotal {
		for k := range ran[kindOf(i)] {
			series[k] = append(series[k], sample{opEntry[i], totals[k]})
		}
	}
	value := func(name string) float64 {
		ss := series[name]
		if len(ss) == 0 {
			return 0
		}
		lat, counts := perEntry(ss, len(sys.ops))
		sum, n := 0.0, 0
		for _, e := range sys.plan {
			if counts[e] > 0 {
				sum += lat[e]
				n++
			}
		}
		return sum / float64(n)
	}

	metrics := map[string]Metric{}
	for _, lm := range layerMetrics {
		base := lm.name
		var v float64
		switch {
		case strings.HasSuffix(base, "_us"):
			if v = value(strings.TrimSuffix(base, "_us")); v == 0 {
				v = value("#" + base) // a time the service measured, carried as an attribute
			}
		case strings.HasSuffix(base, "_ms"):
			v = value(strings.TrimSuffix(base, "_ms")) / 1e3
		default:
			v = value("#" + base)
		}
		metrics[base] = Metric{v, lm.unit}
	}
	if sys.srv != nil {
		after, err := t.serviceCounters()
		if err != nil {
			return nil, nil, err
		}
		metrics["service.cache_hit_ratio"] = Metric{float64(t.hits) / float64(t.req), "ratio"}
		metrics["service.cache_evictions"] = Metric{after["srschedd_cache_evictions_total"] - before["srschedd_cache_evictions_total"], "count"}
		metrics["service.coalesced"] = Metric{after["srschedd_coalesced_requests_total"] - before["srschedd_coalesced_requests_total"], "count"}
		metrics["service.shed_503"] = Metric{after[shed503] - before[shed503], "count"}
		sort.Float64s(t.rtts)
		metrics["service.p999_ms"] = Metric{quantile(t.rtts, 0.999), "ms"}
		// The workload must keep meaning what its name says.
		ratio := metrics["service.cache_hit_ratio"].Value
		if name == "svc_churn" && ratio >= 0.2 {
			return nil, nil, fmt.Errorf("svc_churn: service.cache_hit_ratio is %.3f, want < 0.2: the pool no longer churns the solver cache", ratio)
		}
		if name == "svc_hot" && ratio < 0.95 {
			return nil, nil, fmt.Errorf("svc_hot: service.cache_hit_ratio is %.3f, want >= 0.95: the pool no longer fits the solver cache", ratio)
		}
	}
	metrics["runtime.gc_cycles"] = Metric{float64(m1.NumGC - m0.NumGC), "count"}
	metrics["runtime.gc_pause_ms"] = Metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"}
	metrics["runtime.heap_peak_mb"] = Metric{float64(t.heapPeak) / (1 << 20), "MiB"}
	if direct := value("schedule.solve"); direct > 0 {
		// The replayed stages against the direct, untraced Solver.Solve of
		// the same input: what the spans and the stage-by-stage calls cost,
		// and how far the stage times can be trusted to add up.
		metrics["trace.overhead_pct"] = Metric{100 * (value("trace.stage_sum") - direct) / direct, "%"}
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, nil, err
		}
		if err := trace.WriteChromeTrace(f, tree); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Close(); err != nil {
			return nil, nil, err
		}
	}
	printLayerTable(os.Stderr, name, metrics)

	info := &runInfo{Workload: name, Seed: seed, Seconds: seconds, Clients: 1, Loop: "closed, staged replay",
		Rounds: attempted / len(sys.plan), Samples: attempted, SequenceHash: sequenceHash(seed, sys.plan),
		Failures: t.failures, Env: environment()}
	return &Result{Correct: t.failed == 0, Attempted: attempted, Failed: t.failed, Metrics: metrics}, info, nil
}

func printLayerTable(w io.Writer, workload string, metrics map[string]Metric) {
	fmt.Fprintf(w, "per-layer metrics, %s\n", workload)
	for _, lm := range layerMetrics {
		m := metrics[lm.name]
		fmt.Fprintf(w, "  %-32s %14.3f %s\n", lm.name, m.Value, m.Unit)
	}
}
