package schedroute_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/service"
	"schedroute/pkg/schedroute"
)

// checkProblem runs everything the request path does with a decoded
// problem short of building it (a decodable spec can name a machine or
// a graph too large to build once per fuzz iteration).
func checkProblem(p schedroute.Problem, o schedroute.Options, t *schedroute.Tenant) []error {
	_ = p.StructureKey()
	_, oerr := o.ToSchedule()
	return []error{p.Validate(), oerr, schedroute.TenantOrDefault(t).Validate()}
}

// requestTypes is every request body srschedd decodes, each with the
// validation its endpoint runs before any solver is involved.
var requestTypes = []struct {
	name  string
	check func(decode func(into any) error) []error
}{
	{"Schedule", func(decode func(any) error) []error {
		var r schedroute.ScheduleRequest
		if err := decode(&r); err != nil {
			return []error{err}
		}
		return checkProblem(r.Problem, r.Options, r.Tenant)
	}},
	{"BatchSchedule", func(decode func(any) error) []error {
		var r schedroute.BatchScheduleRequest
		if err := decode(&r); err != nil {
			return []error{err}
		}
		errs := []error{schedroute.CheckSchemaVersion(r.SchemaVersion)}
		for _, it := range r.Items {
			errs = append(errs, checkProblem(it.Problem, it.Options, it.Tenant)...)
		}
		return errs
	}},
	{"Repair", func(decode func(any) error) []error {
		var r schedroute.RepairRequest
		if err := decode(&r); err != nil {
			return []error{err}
		}
		_ = r.Fault.Empty()
		return checkProblem(r.Problem, r.Options, r.Tenant)
	}},
	{"Admit", func(decode func(any) error) []error {
		var r schedroute.AdmitRequest
		if err := decode(&r); err != nil {
			return []error{err}
		}
		return checkProblem(r.Problem, r.Options, r.Tenant)
	}},
	{"Explore", func(decode func(any) error) []error {
		var r schedroute.ExploreRequest
		if err := decode(&r); err != nil {
			return []error{err}
		}
		_, _ = r.Mode(), r.TauInAxisOrDefault()
		return append(checkProblem(r.Problem, r.Options, r.Tenant), r.Validate())
	}},
	{"Watch", func(decode func(any) error) []error {
		var r schedroute.WatchRequest
		if err := decode(&r); err != nil {
			return []error{err}
		}
		return append(checkProblem(r.Problem, r.Options, r.Tenant), r.Validate())
	}},
	{"WatchEvent", func(decode func(any) error) []error {
		var r schedroute.WatchEvent
		if err := decode(&r); err != nil {
			return []error{err}
		}
		return []error{r.Validate()}
	}},
}

// FuzzRequestDecode feeds arbitrary bytes through srschedd's strict
// decode into every request type and on through the validation that
// runs before a solver is involved. Nothing may panic, a body Decode
// accepts must be exactly one JSON value, and every refusal must be the
// client's fault by the errkind table — bad_input or
// unknown_schema_version — never an unclassified (500) error.
func FuzzRequestDecode(f *testing.F) {
	goldens, err := filepath.Glob("testdata/*.json")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no wire goldens to seed from (%v)", err)
	}
	for _, path := range goldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// One entry of each repository-benchmark workload, as the schedule
	// request bench/ would post for it.
	workloads, err := filepath.Glob("../../bench/workloads/*.json")
	if err != nil || len(workloads) == 0 {
		f.Fatalf("no benchmark workloads to seed from (%v)", err)
	}
	for _, path := range workloads {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var w struct {
			Entries []struct {
				Problem json.RawMessage `json:"problem"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(raw, &w); err != nil || len(w.Entries) == 0 {
			f.Fatalf("%s: no entries (%v)", path, err)
		}
		f.Add([]byte(`{"problem":` + string(w.Entries[0].Problem) + `}`))
	}
	f.Add([]byte(`{"type":"fault","links":["0-1"]}`))
	f.Add([]byte(`{"type":"fault","links":["0-1"]} x`))
	f.Add([]byte(`{"type":"fault","links":["0-1"]}{"type":"fault","links":["0-1"]}`))
	f.Add([]byte(`{"problem":{"tfg":"/etc/hostname","topology":"cube:6"}}`))
	f.Add([]byte(`{"items":[{"problem":{"tfg":"dvb:4","topology":"cube:6"}}]}`))
	f.Add([]byte(`{"problem":{"tfg":"dvb:4","topology":"cube:6"},"axes":{"placement":{"anneal_seeds":[2],"anneal_steps":-5}}}`))
	f.Add([]byte(`{"problem":{"tfg":"dvb:4","topology":"cube:6"},"execute":true,"invocations":-1}`))
	f.Add([]byte(`{"problem":{"tfg":"dvb:4","topology":"cube:6","tau_in":150},"execute":true,"invocations":30000000,"axes":{"tau_in":{"min":10}}}`))
	for _, field := range []string{"max_paths", "max_outer", "max_inner", "retries"} {
		f.Add([]byte(`{"problem":{"tfg":"dvb:4","topology":"torus:32,32","allocator":"random","alloc_seed":3,"tau_in":400},"options":{"` + field + `":1000000000}}`))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rt := range requestTypes {
			decode := func(into any) error {
				err := service.Decode(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data)), into)
				if err == nil && !json.Valid(data) {
					t.Errorf("%s: accepted %q, which is not one JSON value", rt.name, data)
				}
				return err
			}
			for _, err := range rt.check(decode) {
				if err == nil {
					continue
				}
				if kind := errkind.Name(err); kind != "bad_input" && kind != "unknown_schema_version" {
					t.Errorf("%s: %q classifies as %s: %v", rt.name, data, kind, err)
				}
			}
		}
	})
}

// choices reads a fuzz input one choice at a time: pick(n) is the next
// byte mod n, 0 once the input runs out.
type choices []byte

func (c *choices) pick(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0])
	*c = (*c)[1:]
	return v % n
}

// fuzzProblem reads a wire Problem and Options from data. Every spec is
// drawn from the parsers' own grammar over small machines (at most 64
// nodes) and small graphs, parameters running one or two past the
// ranges the generators accept, so a refusal is as likely as a solve.
func fuzzProblem(data []byte) (schedroute.Problem, schedroute.Options) {
	c := choices(data)
	radix := func() int { return c.pick(9) - 1 } // -1 .. 7
	var top string
	switch c.pick(5) {
	case 0:
		top = fmt.Sprintf("cube:%d", c.pick(8)-1)
	case 1:
		top = fmt.Sprintf("torus:%d,%d", radix(), radix())
	case 2:
		top = fmt.Sprintf("torus:%d,%d,%d", c.pick(5), c.pick(5), c.pick(5))
	case 3:
		top = fmt.Sprintf("ghc:%d,%d", radix(), radix())
	default:
		top = fmt.Sprintf("mesh:%d,%d", radix(), radix())
	}
	var graph string
	switch kind := c.pick(6); kind {
	case 5:
		widths := ""
		for w := c.pick(4); w >= 0; w-- {
			widths += fmt.Sprintf("%d,", c.pick(9))
		}
		graph = fmt.Sprintf("layered:%d,%s%.2f", c.pick(256), widths, float64(c.pick(101))/100)
	default:
		graph = fmt.Sprintf("%s:%d", []string{"dvb", "chain", "fan", "fft", "stencil"}[kind], c.pick(7)-1)
	}
	p := schedroute.Problem{
		TFG:       graph,
		Topology:  top,
		Bandwidth: []float64{0, 16, 64, 128, 512, -1}[c.pick(6)],
		Speed:     []float64{0, 0, 0, 1, 20}[c.pick(5)],
		TauIn:     []float64{0, 0, 25, 50, 100, 200, 400, -1}[c.pick(8)] * (1 + float64(c.pick(8))/8),
		Allocator: []string{"", "rr", "greedy", "random", "anneal", "best"}[c.pick(6)],
		AllocSeed: int64(c.pick(256)),
	}
	o := schedroute.Options{
		Seed:             int64(c.pick(256)),
		MaxPaths:         []int{0, 1, 2, 4, schedroute.MaxPathsLimit + 1}[c.pick(5)],
		MaxOuter:         []int{0, 1, 3}[c.pick(3)],
		MaxInner:         []int{0, 1, 5}[c.pick(3)],
		Engine:           []string{"", "auto", "greedy", "exact", "lp"}[c.pick(5)],
		Window:           []float64{0, 0, 10, 60, -1}[c.pick(5)],
		LSDOnly:          c.pick(4) == 1,
		SyncMargin:       []float64{0, 0, 0.5, 2}[c.pick(4)],
		Retries:          []int{0, 0, 1, 2}[c.pick(4)],
		AllowSharedNodes: c.pick(4) == 1,
	}
	return p, o
}

// FuzzProblemSolve drives the pipeline end to end: bytes → wire Problem
// and Options (fuzzProblem) → NewProblem → Solver.Solve under a 1 s
// deadline. An input is either refused or answered. A refusal must be
// the client's fault (bad_input) or the deadline's (unavailable, as the
// service marks it), never an unclassified (500) error; an answer is a
// feasible Ω that passes Validate, or an infeasible verdict.
func FuzzProblemSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 0, 5, 2, 0, 5, 0, 1, 0, 1})                         // dvb:4 on cube:5, B=64, τin 200
	f.Add([]byte{1, 8, 8, 1, 6, 3, 0, 5, 0, 1, 0, 1, 0, 0, 0, 3})          // chain:5 on torus:7,7, exact engine
	f.Add([]byte{3, 5, 5, 5, 2, 4, 6, 5, 30, 15, 2, 0, 4, 0, 1, 0, 9})     // layered:30,4,6,5,0.15 on ghc:4,4
	f.Add([]byte{4, 4, 4, 3, 3, 2, 0, 6, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 2}) // fft:2 on mesh:3,3, sync margin 0.5
	// stencil:4 on cube:5 at τin 81.25 with AP sharing: a task longer
	// than the period once came back unclassified (HTTP 500).
	f.Add([]byte{0, 6, 4, 5, 0, 4, 3, 5, 0, 67, 82, 2, 0, 0, 3, 3, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, o := fuzzProblem(data)
		refused := func(stage string, err error) {
			t.Helper()
			if errors.Is(err, context.DeadlineExceeded) {
				err = errkind.Mark(err, errkind.ErrUnavailable)
			}
			if kind := errkind.Name(err); kind != "bad_input" && kind != "unavailable" {
				t.Fatalf("%s of %+v %+v classifies as %s: %v", stage, p, o, kind, err)
			}
		}
		opts, err := o.ToSchedule()
		if err != nil {
			refused("ToSchedule", err)
			return
		}
		b, err := schedroute.NewProblem(p)
		if err != nil {
			refused("NewProblem", err)
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		res, err := schedule.NewSolver(b.ScheduleProblem()).Solve(ctx, b.TauIn, opts)
		if err != nil {
			refused("Solve", err)
			return
		}
		if res.Feasible {
			if err := res.Omega.Validate(b.Topology); err != nil {
				t.Fatalf("%+v %+v: feasible Ω fails Validate: %v", p, o, err)
			}
		}
	})
}
