package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"schedroute/internal/cliutil"
	"schedroute/internal/schedule"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
	api "schedroute/pkg/schedroute"
)

// Pool vetting (`bench -vet`): every candidate entry is solved in a
// child process under a deadline, admitted or turned away by its
// workload's rule, and the admitted pools are written to
// bench/workloads/*.json with their pinned outcomes in
// bench/expected/*.json. A candidate that blows the deadline goes to
// bench/known_slow.json with the stage that was running, never into a
// timed workload; candidates already listed there are not run again.

// KnownSlow is one entry of bench/known_slow.json.
type KnownSlow struct {
	Entry
	// Observed is how long the solve ran before it was given up on.
	Observed string `json:"observed"`
	// Stage is the pipeline stage that was running at that moment.
	Stage string `json:"stage"`
	Note  string `json:"note,omitempty"`
}

// vetReport is what the child prints for one candidate.
type vetReport struct {
	MS float64 `json:"ms"`
	// AllocShare is the allocation stage's share of the solve (compute
	// entries only).
	AllocShare float64  `json:"alloc_share"`
	Messages   int      `json:"messages"`
	Intervals  int      `json:"intervals"`
	Got        Expected `json:"got"`
	Timeout    bool     `json:"timeout,omitempty"`
	Stage      string   `json:"stage,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// The paper's four 64-node machines at both bandwidths: the 8 standard
// configurations of Figs. 5-10.
var standardTopologies = []string{"cube:6", "ghc:4,4,4", "torus:8,8", "torus:4,4,4"}
var standardBandwidths = []float64{64, 128}

// maxLPSolveMS is the longest solve a compile_lp entry may take here:
// long enough for the LP to dominate, short enough that a round of the
// pool fits several times into a run.
const maxLPSolveMS = 150

const lpPerTopology = 3

const tauC = 50.0 // uniform task time of the wire Problem's default timing

// loadPoint is the i-th of the twelve Fig. 7-10 periods between τc and 5τc.
func loadPoint(i int) float64 { return tauC * (1 + 4*float64(i)/11) }

func topoID(spec string) string {
	return strings.NewReplacer(":", "", ",", "").Replace(spec)
}

func svcHotCandidates() *Workload {
	w := &Workload{Name: "svc_hot", Clients: 2, TailPercentile: 0.99, DeadlineMS: 5000}
	for _, topo := range standardTopologies {
		for _, bw := range standardBandwidths {
			for i := 0; i < 12; i++ {
				for _, omega := range []bool{false, true} {
					id := fmt.Sprintf("%s-b%g-lp%02d", topoID(topo), bw, i)
					if omega {
						id += "-omega"
					}
					w.Entries = append(w.Entries, Entry{ID: id, Kind: kindPost, IncludeOmega: omega,
						Problem: api.Problem{TFG: "dvb:4", Topology: topo, Bandwidth: bw, TauIn: loadPoint(i)}})
				}
			}
		}
	}
	return w
}

func svcChurnCandidates() *Workload {
	w := &Workload{Name: "svc_churn", Clients: 2, TailPercentile: 0.99, DeadlineMS: 5000}
	for _, topo := range standardTopologies {
		for _, bw := range standardBandwidths {
			for seed := int64(1); seed <= 12; seed++ {
				w.Entries = append(w.Entries, Entry{
					ID: fmt.Sprintf("%s-b%g-rand%02d", topoID(topo), bw, seed), Kind: kindPost, IncludeOmega: seed%2 == 0,
					Problem: api.Problem{TFG: "dvb:4", Topology: topo, Bandwidth: bw, TauIn: loadPoint(int(seed - 1)),
						Allocator: "random", AllocSeed: seed}})
			}
		}
	}
	return w
}

// largeTFG is cliutil.LayeredLargeTFG with 6 inner layers of 64 tasks in
// place of 14: 448 tasks and 1153 messages where the preset has 960 and
// 2635. A solve of the preset takes 1.0-1.3 s, so a run held five of
// each, and on this shared host (a memory-bound solve of that size ran
// anywhere between 0.96 and 2.0 s, in phases of up to 25 s) the median
// of five spread 26-31 % over ten runs, past any bound the contract
// allows. At 0.15-0.3 s a run holds 40 to 50 of each.
const largeTFG = "layered:7,32,64*6,32,0.03"

// compileLargeCandidates keeps the presets' two 1024-node machines,
// bandwidths and period.
func compileLargeCandidates() *Workload {
	w := &Workload{Name: "compile_large", Clients: 1, Options: api.Options{Seed: 1}, TailPercentile: 0.75, DeadlineMS: 60000}
	w.Entries = []Entry{
		{ID: "tencube", Kind: kindCompute, Problem: api.Problem{TFG: largeTFG, Topology: cliutil.TenCubeTopo, Bandwidth: cliutil.TenCubeBW, TauIn: 200}},
		{ID: "torus32", Kind: kindCompute, Problem: api.Problem{TFG: largeTFG, Topology: cliutil.Torus32Topo, Bandwidth: cliutil.Torus32BW, TauIn: 200}},
	}
	return w
}

// compileLPCandidates spans mid-size layered TFGs on the six mid-size
// machines at periods that are not multiples of τc, so the windows cut
// the frame into many intervals and the allocation LP has real work.
func compileLPCandidates() *Workload {
	w := &Workload{Name: "compile_lp", Clients: 1, Options: api.Options{Seed: 1, Retries: 2}, TailPercentile: 0.90, DeadlineMS: 10000}
	type family struct {
		topos   []string
		widths  string
		density []string
	}
	families := []family{
		{[]string{"cube:6", "ghc:4,4,4", "torus:4,4,4"}, "8,8*5,8", []string{"0.15", "0.3"}},
		{[]string{"cube:7", "ghc:4,4,8"}, "16,16*6,16", []string{"0.05", "0.1"}},
		{[]string{"cube:8"}, "16,32*6,16", []string{"0.05"}},
	}
	for _, f := range families {
		for _, topo := range f.topos {
			for _, seed := range []int{3, 9, 4, 5} {
				for _, d := range f.density {
					for _, bw := range []float64{512, 256, 128} {
						for _, tauIn := range []float64{65, 90, 130, 170, 80, 110, 220} {
							tfg := fmt.Sprintf("layered:%d,%s,%s", seed, f.widths, d)
							w.Entries = append(w.Entries, Entry{
								ID:      fmt.Sprintf("%s-s%d-d%s-b%g-t%g", topoID(topo), seed, d, bw, tauIn),
								Kind:    kindCompute,
								Problem: api.Problem{TFG: tfg, Topology: topo, Bandwidth: bw, TauIn: tauIn}})
						}
					}
				}
			}
		}
	}
	return w
}

// laddersCandidates draws, per standard configuration at the period of
// load point 5, single-link faults from the links the base Ω uses, one
// admission pair, and one exploration.
func laddersCandidates() (*Workload, error) {
	w := &Workload{Name: "ladders", Clients: 1, Options: api.Options{Seed: 1}, TailPercentile: 0.99, DeadlineMS: 10000}
	rng := rand.New(rand.NewSource(1))
	for _, topo := range standardTopologies {
		for _, bw := range standardBandwidths {
			cfg := fmt.Sprintf("%s-b%g", topoID(topo), bw)
			prob := api.Problem{TFG: "dvb:4", Topology: topo, Bandwidth: bw, TauIn: loadPoint(5)}
			b, err := api.NewProblem(prob)
			if err != nil {
				return nil, err
			}
			base, err := schedule.Compute(b.ScheduleProblem(), schedule.Options{Seed: 1})
			if err != nil {
				return nil, err
			}
			if base.Feasible {
				used := map[topology.LinkID]bool{}
				for m := range base.Omega.Windows {
					for _, l := range base.Assignment.Links[m] {
						used[l] = true
					}
				}
				links := make([]int, 0, len(used))
				for l := range used {
					links = append(links, int(l))
				}
				sort.Ints(links)
				rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
				for _, l := range links[:min(6, len(links))] {
					lk := b.Topology.Link(topology.LinkID(l))
					spec := fmt.Sprintf("%d-%d", lk.A, lk.B)
					w.Entries = append(w.Entries, Entry{ID: fmt.Sprintf("repair-%s-l%s", cfg, spec), Kind: kindRepair, Problem: prob, FaultLink: spec})
				}
			}
			admit := prob
			admit.TauIn = 150
			w.Entries = append(w.Entries, Entry{ID: "admit-" + cfg, Kind: kindAdmit, Problem: admit})
			explore := prob
			explore.TauIn = 0
			w.Entries = append(w.Entries, Entry{ID: "explore-" + cfg, Kind: kindExplore, Problem: explore})
		}
	}
	return w, nil
}

// vetEntry is the child side: run one entry a few times under the
// deadline and print its report. A deadline miss reports the stage the
// solve was in and exits, which ends the runaway solve with the process.
func vetEntry(workloadJSON string) error {
	var w Workload
	if err := json.Unmarshal([]byte(workloadJSON), &w); err != nil {
		return err
	}
	sys, err := setup(&w)
	if err != nil {
		return printJSON(vetReport{Error: err.Error()})
	}
	defer sys.close()
	o := &sys.ops[0]
	rep := vetReport{Messages: o.built.Graph.NumMessages()}
	deadline := time.Duration(w.DeadlineMS * float64(time.Millisecond))

	// A traced solve first: it names the running stage on a timeout and
	// gives the stage split of a compute entry.
	if o.entry.Kind == kindCompute {
		root := trace.Start("vet")
		opts := sys.opts
		opts.Trace, opts.CollectStats = root, true
		type solved struct {
			res *schedule.Result
			err error
		}
		ch := make(chan solved, 1)
		t0 := time.Now()
		go func() {
			res, err := schedule.Compute(o.built.ScheduleProblemAt(o.tauIn), opts)
			ch <- solved{res, err}
		}()
		select {
		case s := <-ch:
			if s.err != nil {
				return printJSON(vetReport{Error: s.err.Error()})
			}
			st := s.res.Stats
			total := st.WindowsTime + st.AssignTime + st.AllocateTime + st.ScheduleTime + st.OmegaTime
			rep.AllocShare = float64(st.AllocateTime) / float64(total)
			rep.Intervals = s.res.Intervals.K()
			rep.MS = float64(time.Since(t0)) / float64(time.Millisecond)
			if w.Name == "compile_lp" && rep.MS > 2*maxLPSolveMS {
				return printJSON(rep) // far too slow to admit; no need to repeat it
			}
		case <-time.After(deadline):
			rep.Timeout, rep.Stage = true, runningStage(root.Tree())
			return printJSON(rep)
		}
	}
	c := newCaller(deadline)
	defer c.stop()
	for i := 0; i < 5; i++ {
		out, d := c.run(o)
		if out.err != nil {
			rep.Timeout = strings.Contains(out.err.Error(), "deadline")
			rep.Error = out.err.Error()
			return printJSON(rep)
		}
		if ms := float64(d) / float64(time.Millisecond); i == 0 || ms < rep.MS {
			rep.MS = ms
		}
		if i == 0 {
			got, _, err := checkEntry(o, out, Expected{})
			if err != nil {
				rep.Error = err.Error()
				return printJSON(rep)
			}
			rep.Got = got
		}
	}
	return printJSON(rep)
}

// runningStage names the deepest span still open when the tree was
// snapshotted: the last child at every level.
func runningStage(t *trace.Tree) string {
	for len(t.Children) > 0 {
		t = t.Children[len(t.Children)-1]
	}
	return t.Name
}

// vetChild runs one candidate in a child process and kills it a little
// after its own deadline.
func vetChild(w *Workload, e Entry) (vetReport, error) {
	one := *w
	one.Entries = []Entry{e}
	arg, err := json.Marshal(one)
	if err != nil {
		return vetReport{}, err
	}
	self, err := os.Executable()
	if err != nil {
		return vetReport{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(w.DeadlineMS)*time.Millisecond*6+10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, self, "-vet-entry", string(arg)).Output()
	if err != nil {
		return vetReport{Timeout: true, Stage: "unknown (child killed)"}, nil
	}
	var rep vetReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return vetReport{}, fmt.Errorf("entry %s: child printed %q: %w", e.ID, out, err)
	}
	return rep, nil
}

// vet writes the pools. dir is the benchmark's directory; only, when
// not empty, names the one workload to vet again.
func vet(dir, only string) error {
	var slow []KnownSlow
	if err := loadJSON("known_slow.json", &slow); err != nil {
		return err
	}
	isSlow := func(e Entry) bool {
		for _, s := range slow {
			if s.Problem.StructureKey() == e.Problem.StructureKey() && s.Problem.TauIn == e.Problem.TauIn {
				return true
			}
		}
		return false
	}
	ladders, err := laddersCandidates()
	if err != nil {
		return err
	}
	var problems []string
	for _, cand := range []*Workload{svcHotCandidates(), svcChurnCandidates(), compileLPCandidates(), compileLargeCandidates(), ladders} {
		if only != "" && cand.Name != only {
			continue
		}
		pool := *cand
		pool.Entries = nil
		exp := ExpectedFile{Workload: cand.Name, Entries: map[string]Expected{}}
		// compile_lp keeps at most lpPerTopology feasible and as many
		// infeasible entries per machine, so no topology or verdict
		// dominates the pool.
		type quota struct{ feasible, infeasible int }
		perTopo := map[string]*quota{}
		var ms []float64
		allocMS := 0.0 // time the pool spends in the allocation stage
		for _, e := range cand.Entries {
			if isSlow(e) {
				fmt.Fprintf(os.Stderr, "vet %s %s: listed in known_slow.json, skipped\n", cand.Name, e.ID)
				continue
			}
			q := perTopo[e.Problem.Topology]
			if q == nil {
				q = &quota{}
				perTopo[e.Problem.Topology] = q
			}
			if cand.Name == "compile_lp" && q.feasible >= lpPerTopology && q.infeasible >= lpPerTopology {
				continue
			}
			vw := *cand
			if cand.Name == "compile_lp" {
				vw.DeadlineMS = 2000 // turned away long before it could slow a round
			}
			rep, err := vetChild(&vw, e)
			if err != nil {
				return err
			}
			switch {
			case rep.Timeout:
				slow = append(slow, KnownSlow{Entry: e, Observed: fmt.Sprintf("> %g ms", vw.DeadlineMS), Stage: rep.Stage})
				fmt.Fprintf(os.Stderr, "vet %s %s: deadline missed in %s -> known_slow.json\n", cand.Name, e.ID, rep.Stage)
				continue
			case rep.Error != "":
				fmt.Fprintf(os.Stderr, "vet %s %s: rejected: %s\n", cand.Name, e.ID, rep.Error)
				continue
			}
			if cand.Name == "compile_lp" {
				// One solve takes 5-150 ms here, the frame has at least 8
				// intervals, and the allocation stage is at least half of the
				// solve. A feasible entry is excused from the last: the LPs of
				// a feasible problem are the easy ones, and the pool needs
				// feasible entries so that Ω emission runs and feasible_ratio
				// can move. The pool as a whole is held to a half below.
				minShare := 0.5
				if rep.Got.Feasible {
					minShare = 0
				}
				if rep.MS < 5 || rep.MS > maxLPSolveMS || rep.AllocShare < minShare || rep.Intervals < 8 || rep.Messages < 100 || rep.Messages > 480 {
					fmt.Fprintf(os.Stderr, "vet %s %s: turned away (%.1f ms, allocation %.0f%%, K=%d, %d messages, feasible=%t)\n", cand.Name, e.ID, rep.MS, 100*rep.AllocShare, rep.Intervals, rep.Messages, rep.Got.Feasible)
					continue
				}
				if rep.Got.Feasible {
					if q.feasible++; q.feasible > lpPerTopology {
						continue
					}
				} else if q.infeasible++; q.infeasible > lpPerTopology {
					continue
				}
			}
			fmt.Fprintf(os.Stderr, "vet %s %s: %.2f ms feasible=%t %s\n", cand.Name, e.ID, rep.MS, rep.Got.Feasible, rep.Got.Detail+rep.Got.FailStage)
			pool.Entries = append(pool.Entries, e)
			exp.Entries[e.ID] = rep.Got
			ms = append(ms, rep.MS)
			allocMS += rep.AllocShare * rep.MS
		}
		if cand.Name == "ladders" {
			weighLadders(&pool, ms)
		}
		if cand.Name == "compile_lp" {
			feasible := 0
			for _, x := range exp.Entries {
				if x.Feasible {
					feasible++
				}
			}
			total := 0.0
			for _, x := range ms {
				total += x
			}
			if len(pool.Entries) < 24 || 3*feasible < len(pool.Entries) || allocMS < 0.5*total {
				problems = append(problems, fmt.Sprintf("compile_lp: %d entries admitted, %d feasible, allocation %.0f%% of the pool's solve time; need at least 24, a third feasible, and half", len(pool.Entries), feasible, 100*allocMS/total))
			}
		}
		if err := writeJSON(filepath.Join(dir, "workloads", cand.Name+".json"), pool); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(dir, "expected", cand.Name+".json"), exp); err != nil {
			return err
		}
	}
	if err := writeKnownSlow(filepath.Join(dir, "known_slow.json"), slow); err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("pools written, but: %s", strings.Join(problems, "; "))
	}
	return nil
}

// weighLadders sets how often a round runs each entry so that repair,
// admit and explore each get about a third of the round's busy time.
func weighLadders(pool *Workload, ms []float64) {
	busy := map[string]float64{}
	for i, e := range pool.Entries {
		busy[e.Kind] += ms[i]
	}
	target := math.Max(busy[kindRepair], math.Max(busy[kindAdmit], busy[kindExplore]))
	for i := range pool.Entries {
		e := &pool.Entries[i]
		e.Repeat = max(1, int(math.Round(target/busy[e.Kind])))
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeKnownSlow writes one entry per line: the list is long and is
// read by grep as often as by the program.
func writeKnownSlow(path string, slow []KnownSlow) error {
	var sb strings.Builder
	sb.WriteString("[\n")
	for i, s := range slow {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		sb.Write(b)
		if i < len(slow)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("]\n")
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
