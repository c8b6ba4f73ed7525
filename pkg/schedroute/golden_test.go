package schedroute

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"schedroute/internal/schedule"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestScheduleResultWireGolden pins the wire format byte-for-byte
// against testdata: NewProblem and the tracing layer must not move,
// rename, or reorder a single field of the pre-existing response
// schema. Regenerate deliberately with `go test -run Golden -update`
// and bump SchemaVersion when the diff is intended.
func TestScheduleResultWireGolden(t *testing.T) {
	b, err := NewProblem(Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64, TauIn: 150})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := Options{}.ToSchedule()
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.Compute(b.ScheduleProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewScheduleResult(b, res, b.TauIn, true, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "schedule_result.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./pkg/schedroute -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s\ngot:  %.400s\nwant: %.400s", path, got, want)
	}
}

// TestNewProblemMatchesBuild: the Build method is now a thin alias for
// the canonical constructor, so both paths must agree exactly.
func TestNewProblemMatchesBuild(t *testing.T) {
	spec := Problem{TFG: "dvb:4", Topology: "ghc:4,4,4", Bandwidth: 128, Allocator: "greedy"}
	a, err := NewProblem(spec)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewProblem(spec)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a.Spec)
	bj, _ := json.Marshal(bb.Spec)
	if !bytes.Equal(aj, bj) {
		t.Errorf("resolved specs differ: %s vs %s", aj, bj)
	}
	if a.TauIn != bb.TauIn || a.Spec.StructureKey() != bb.Spec.StructureKey() {
		t.Errorf("NewProblem and Build disagree: τin %g/%g key %q/%q",
			a.TauIn, bb.TauIn, a.Spec.StructureKey(), bb.Spec.StructureKey())
	}
}
