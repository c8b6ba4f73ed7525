package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"schedroute/internal/schedule"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a driver run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runInfo is what a run reports beside its metrics: provenance, sample
// counts for every percentile, and what failed.
type runInfo struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Clients      int      `json:"clients"`
	Loop         string   `json:"loop"`
	Rounds       int      `json:"rounds"`
	Samples      int      `json:"samples"`
	MinPerEntry  int      `json:"min_samples_per_entry"`
	TailPct      float64  `json:"tail_percentile"`
	BeyondTail   int      `json:"samples_beyond_tail"`
	WallOpsPerS  float64  `json:"wall_ops_per_s"`
	WallP50MS    float64  `json:"wall_p50_ms"`
	SetupCycles  int      `json:"setup_cycles"`
	SequenceHash string   `json:"sequence_hash"`
	OmegaChanged int      `json:"omega_changed"`
	Failures     []string `json:"failures,omitempty"`
	Env          envInfo  `json:"env"`
}

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func environment() envInfo {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if m := regexp.MustCompile(`model name\s*:\s*(.+)`).FindSubmatch(b); m != nil {
			cpu = string(m[1])
		}
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: cpu, Commit: commit}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := regexp.MustCompile(`VmHWM:\s*(\d+) kB`).FindSubmatch(b)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024
}

// setupBudget bounds how much of a run repeated set-up may take, as a
// share of the measured seconds.
const setupBudget = 0.4

// bringUp performs one set-up cycle: load the pool and its pinned
// outcomes, build every entry's inputs, start the system under test,
// and run every entry once. That fills the service's solver cache and,
// in every workload, the topologies' path caches: an entry's first op
// allocates ten times what its later ones do, and left inside the
// window it would decide allocs_per_op by how many rounds the window
// happened to hold.
func bringUp(name string) (*system, *ExpectedFile, error) {
	w, exp, err := loadWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	if len(w.Entries) == 0 {
		return nil, nil, fmt.Errorf("workload %s: empty pool (run `bench -vet`)", name)
	}
	sys, err := setup(w)
	if err != nil {
		return nil, nil, err
	}
	c := newCaller(time.Duration(w.DeadlineMS * float64(time.Millisecond)))
	defer c.stop()
	for i := range sys.ops {
		if out, _ := c.run(&sys.ops[i]); out.err != nil {
			sys.close()
			return nil, nil, fmt.Errorf("entry %s: priming op: %w", sys.ops[i].entry.ID, out.err)
		}
	}
	return sys, exp, nil
}

// runWorkload is one timed run: repeated set-up, the measured closed
// loop, then the correctness checks on every entry's output.
func runWorkload(name string, seed int64, seconds float64) (*Result, *runInfo, error) {
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	// Set up several times and report the cycles' steady figure, so the
	// host's slow spells do not decide setup_s; the last cycle's system
	// is measured.
	var sys *system
	var exp *ExpectedFile
	var setups []float64
	budget := time.Duration(setupBudget * seconds * float64(time.Second))
	began := time.Now()
	for {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, exp, err = bringUp(name); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		n, spent := len(setups), time.Since(began)
		if n >= 9 || spent > budget || (n >= 3 && spent > budget/2) {
			break
		}
	}
	defer sys.close()
	sort.Float64s(setups)

	clients := sys.w.Clients
	if runtime.NumCPU() < 2 {
		clients = 1
	}
	win := measure(sys, clients, seconds, seed)
	rss := peakRSSMiB()

	info := &runInfo{Workload: name, Seed: seed, Seconds: seconds, Clients: clients, Loop: "closed",
		Rounds: win.rounds, Samples: win.attempted, TailPct: sys.w.TailPercentile,
		SetupCycles: len(setups), SequenceHash: win.seqHash, Failures: win.failures, Env: environment()}

	// Correctness, outside the timed region, on every pool entry.
	failed := win.failed
	feasibleOps := 0
	lat, counts := perEntry(win.samples, len(sys.ops))
	solvers := map[string]*schedule.Solver{}
	for i := range sys.ops {
		o := &sys.ops[i]
		out := win.last[i]
		if out.err != nil {
			continue // already counted, op by op, in the loop
		}
		got, changed, err := checkEntry(o, out, exp.Entries[o.entry.ID])
		if err == nil && o.entry.Kind == kindPost {
			err = crossCheck(o, got, sys.opts, solvers)
		}
		if err != nil {
			failed += counts[i]
			if len(info.Failures) < 8 {
				info.Failures = append(info.Failures, fmt.Sprintf("%s: %v", o.entry.ID, err))
			}
			continue
		}
		if changed {
			info.OmegaChanged++
		}
		if got.Feasible {
			feasibleOps += counts[i]
		}
	}
	if failed > win.attempted {
		failed = win.attempted
	}

	info.MinPerEntry = counts[0]
	for _, c := range counts {
		info.MinPerEntry = min(info.MinPerEntry, c)
	}
	dist := roundLatencies(lat, sys.plan)
	info.BeyondTail = int(float64(win.attempted) * (1 - sys.w.TailPercentile))
	info.WallOpsPerS = float64(win.attempted) / win.wall.Seconds()
	all := make([]float64, len(win.samples))
	for i, s := range win.samples {
		all[i] = s.ms
	}
	info.WallP50MS = median(all)

	ops := float64(win.attempted)
	res := &Result{Correct: failed == 0, Attempted: win.attempted, Failed: failed, Metrics: map[string]Metric{
		// Little's law on the steady latencies: with every client always
		// waiting on one op, throughput is clients over mean latency.
		"ops_per_s":      {float64(clients) * 1000 / mean(dist), "1/s"},
		"op_p50_ms":      {quantile(dist, 0.5), "ms"},
		"op_tail_ms":     {quantile(dist, sys.w.TailPercentile), "ms"},
		"success_ratio":  {1 - float64(failed)/ops, "ratio"},
		"feasible_ratio": {float64(feasibleOps) / ops, "ratio"},
		"allocs_per_op":  {float64(win.mallocs) / ops, "count"},
		"kb_per_op":      {float64(win.bytes) / 1024 / ops, "KiB"},
		"peak_rss_mb":    {rss, "MiB"},
		"setup_s":        {steady(setups), "s"},
	}}
	return res, info, nil
}
