// Command bench is the repository's benchmark: five closed-loop
// workloads over the scheduled-routing compiler and the srschedd
// service, nine end-to-end metrics each, and a traced run that times
// the calls into every layer from outside. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
)

// defaultSeconds is the measured time per workload when no -seconds is
// given; BENCHMARK.json's run_seconds names the same figure.
const defaultSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (driver mode); empty runs all five, each in a child process")
		seed     = flag.Int64("seed", 1, "workload seed: orders every round's ops")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		traceOn  = flag.Int("trace", 0, "1 = staged-replay traced run printing the per-layer metrics")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		traceOut = flag.String("trace-out", "", "traced run: write Chrome trace_event JSON here")
		smoke    = flag.Bool("smoke", false, "tiny run of every workload, timed and traced (about 0.3 s each)")
		doVet    = flag.Bool("vet", false, "vet the candidate pools (all, or the one named by -workload) and write workloads/, expected/ and known_slow.json under -dir")
		vetOne   = flag.String("vet-entry", "", "internal: vet one entry (child of -vet)")
		dir      = flag.String("dir", "bench", "the benchmark's directory, for -vet")
		repeat   = flag.Int("repeat", 0, "run the suite N times and print median, quartiles and spread per workload and metric")
		compare  = flag.Bool("compare", false, "compare two suite documents: bench -compare a.json b.json")
	)
	flag.Parse()
	if *traced {
		*traceOn = 1
	}
	if *smoke {
		*seconds = 0.3
	}
	var err error
	switch {
	case *vetOne != "":
		err = vetEntry(*vetOne)
	case *doVet:
		err = vet(*dir, *workload)
	case *compare:
		err = compareFiles(flag.Args())
	case *repeat > 0:
		err = repeatSuite(*repeat, *seed, *seconds)
	case *workload != "":
		err = driverRun(*workload, *seed, *seconds, *traceOn == 1, *traceOut)
	default:
		var doc *SuiteDoc
		if doc, err = runSuite(*seed, *seconds, *traceOn == 1 || *smoke, !(*traceOn == 1) || *smoke); err == nil {
			err = printIndented(doc)
			if err == nil && !doc.Correct {
				err = fmt.Errorf("correctness checks failed")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverRun is the contract's entry: one workload, one process, the
// result as the last line of standard output.
func driverRun(name string, seed int64, seconds float64, traced bool, traceOut string) error {
	if !slices.Contains(workloadNames, name) {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	var res *Result
	var info *runInfo
	var err error
	if traced {
		res, info, err = runTraced(name, seed, seconds, traceOut)
	} else {
		res, info, err = runWorkload(name, seed, seconds)
	}
	if err != nil {
		return err
	}
	if err := printJSON(struct {
		Info *runInfo `json:"info"`
	}{info}); err != nil {
		return err
	}
	for _, f := range info.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// SuiteDoc is the one JSON document a whole-suite run prints.
type SuiteDoc struct {
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Env       envInfo                 `json:"env"`
	Correct   bool                    `json:"correct"`
	Workloads map[string]*WorkloadDoc `json:"workloads"`
}

// WorkloadDoc is one workload's part of a SuiteDoc.
type WorkloadDoc struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Info      *runInfo          `json:"info,omitempty"`
	EndToEnd  map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]Metric `json:"per_layer,omitempty"`
}

// runSuite runs every workload in a child process of its own, so that
// peak_rss_mb and the allocation counts belong to one workload each.
func runSuite(seed int64, seconds float64, traced, timed bool) (*SuiteDoc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	doc := &SuiteDoc{Seed: seed, Seconds: seconds, Env: environment(), Correct: true, Workloads: map[string]*WorkloadDoc{}}
	for _, name := range workloadNames {
		wd := &WorkloadDoc{}
		doc.Workloads[name] = wd
		for _, tr := range []bool{false, true} {
			if (tr && !traced) || (!tr && !timed) {
				continue
			}
			trace := "0"
			if tr {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if len(lines) < 2 {
				return nil, fmt.Errorf("workload %s: no result (%v)", name, runErr)
			}
			var info struct {
				Info *runInfo `json:"info"`
			}
			var res Result
			if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
				return nil, fmt.Errorf("workload %s: %w", name, err)
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return nil, fmt.Errorf("workload %s: %w", name, err)
			}
			if tr {
				wd.PerLayer = res.Metrics
			} else {
				wd.EndToEnd, wd.Info = res.Metrics, info.Info
				wd.Attempted, wd.Failed = res.Attempted, res.Failed
			}
			if wd.Info == nil {
				wd.Info = info.Info
			}
			doc.Correct = doc.Correct && res.Correct && runErr == nil
		}
	}
	return doc, nil
}

// printJSON prints v on one line: the form the driver reads.
func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func printIndented(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
