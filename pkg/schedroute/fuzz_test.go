package schedroute_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"schedroute/internal/errkind"
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
// runs before a solver is involved. Nothing may panic, and every
// refusal must be the client's fault by the errkind table — bad_input
// or unknown_schema_version — never an unclassified (500) error.
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
				return service.Decode(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data)), into)
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
