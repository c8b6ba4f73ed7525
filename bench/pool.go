package main

import (
	"embed"
	"encoding/json"
	"fmt"

	api "schedroute/pkg/schedroute"
)

// The five workloads, in the order the suite runs them. Every later
// performance issue refers to these names.
var workloadNames = []string{"svc_hot", "svc_churn", "compile_lp", "compile_large", "ladders"}

// Op kinds. A "post" entry is one POST /v1/schedule round trip; the
// rest are library calls made by a single caller.
const (
	kindPost    = "post"
	kindCompute = "compute"
	kindRepair  = "repair"
	kindAdmit   = "admit"
	kindExplore = "explore"
)

// Entry is one distinct input of a workload's pool. A round of the
// workload executes every entry Repeat times, in seeded order.
type Entry struct {
	ID      string      `json:"id"`
	Kind    string      `json:"kind"`
	Problem api.Problem `json:"problem"`
	// IncludeOmega asks the service for the full Ω (post entries).
	IncludeOmega bool `json:"include_omega,omitempty"`
	// FaultLink is the failed link "u-v" of a repair entry.
	FaultLink string `json:"fault_link,omitempty"`
	// Repeat is how many times a round executes the entry (0 = 1).
	Repeat int `json:"repeat,omitempty"`
}

// Workload is the vetted pool of one workload, as written by -vet to
// bench/workloads/<name>.json.
type Workload struct {
	Name string `json:"workload"`
	// Clients is the closed loop's client count at nproc >= 2.
	Clients int `json:"clients"`
	// Options are the solver options every op of the workload uses.
	Options api.Options `json:"options"`
	// TailPercentile fixes which percentile op_tail_ms reports.
	TailPercentile float64 `json:"tail_percentile"`
	// DeadlineMS is the per-op deadline; an op still running after it is
	// a failed op.
	DeadlineMS float64 `json:"deadline_ms"`
	Entries    []Entry `json:"entries"`
}

// Expected pins one entry's outcome at the commit that vetted the pool.
type Expected struct {
	Feasible  bool   `json:"feasible"`
	FailStage string `json:"fail_stage,omitempty"`
	// Peak is the quality figure that must not rise: peak link
	// utilization for schedule, repair and admit entries, the minimal
	// feasible period for explore entries.
	Peak float64 `json:"peak"`
	// OmegaSHA256 is the hash of the emitted Ω (schema JSON); a different
	// hash with a valid Ω is reported, not failed.
	OmegaSHA256 string `json:"omega_sha256,omitempty"`
	// Detail names the rung or front the entry settled on.
	Detail string `json:"detail,omitempty"`
}

// ExpectedFile is bench/expected/<name>.json.
type ExpectedFile struct {
	Workload string              `json:"workload"`
	Entries  map[string]Expected `json:"entries"`
}

//go:embed workloads/*.json expected/*.json known_slow.json
var dataFS embed.FS

func loadWorkload(name string) (*Workload, *ExpectedFile, error) {
	var w Workload
	if err := loadJSON("workloads/"+name+".json", &w); err != nil {
		return nil, nil, err
	}
	var e ExpectedFile
	if err := loadJSON("expected/"+name+".json", &e); err != nil {
		return nil, nil, err
	}
	if w.Name != name || e.Workload != name {
		return nil, nil, fmt.Errorf("workload %s: files name %q and %q", name, w.Name, e.Workload)
	}
	for _, en := range w.Entries {
		if _, ok := e.Entries[en.ID]; !ok {
			return nil, nil, fmt.Errorf("workload %s: entry %s has no expected outcome", name, en.ID)
		}
	}
	return &w, &e, nil
}

func loadJSON(path string, into any) error {
	b, err := dataFS.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s: %w (run `bench -vet` to write the pools)", path, err)
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}

// roundPlan lists the entry index of every op of one round, in pool
// order; the loop permutes it per round from the seed.
func (w *Workload) roundPlan() []int {
	var plan []int
	for i, e := range w.Entries {
		n := e.Repeat
		if n < 1 {
			n = 1
		}
		for r := 0; r < n; r++ {
			plan = append(plan, i)
		}
	}
	return plan
}
