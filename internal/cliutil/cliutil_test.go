package cliutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/pkg/schedroute"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec  string
		nodes int
		kind  topology.Kind
	}{
		{"cube:6", 64, topology.KindGHC},
		{"ghc:4,4,4", 64, topology.KindGHC},
		{"torus:8,8", 64, topology.KindTorus},
		{"mesh:4,4", 16, topology.KindMesh},
	}
	for _, c := range cases {
		top, err := ParseTopology(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if top.Nodes() != c.nodes || top.Kind() != c.kind {
			t.Errorf("%s: got %d nodes kind %v", c.spec, top.Nodes(), top.Kind())
		}
	}
}

func TestParseTopologyRejects(t *testing.T) {
	for _, spec := range []string{"", "cube", "cube:", "cube:x", "cube:2,2", "blob:4", "torus:4,oops"} {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

func TestParseAllocator(t *testing.T) {
	g, err := tfg.Chain(4, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	top, err := topology.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rr", "roundrobin", "greedy", "random", "anneal"} {
		a, err := ParseAllocator(name, g, top, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := a.Validate(g, top, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ParseAllocator("nope", g, top, 0); err == nil {
		t.Error("unknown allocator should fail")
	}
}

func TestLoadGraphBuiltins(t *testing.T) {
	cases := []struct {
		spec  string
		tasks int
	}{
		{"dvb:4", 15},
		{"chain:5", 5},
		{"fan:3", 5},
	}
	for _, c := range cases {
		g, err := LoadGraph(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.NumTasks() != c.tasks {
			t.Errorf("%s: %d tasks, want %d", c.spec, g.NumTasks(), c.tasks)
		}
	}
	if _, err := LoadGraph("dvb:zero"); err == nil {
		t.Error("bad size should fail")
	}
	if _, err := LoadGraph("mystery:3"); err == nil {
		t.Error("unknown kind should fail")
	}
}

// diamondFile writes tfg.Diamond as tfggen would and returns its path.
func diamondFile(t *testing.T) (string, *tfg.Graph) {
	t.Helper()
	g, err := tfg.Diamond(100, 640)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tfg.Encode(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestLoadGraphFromFile(t *testing.T) {
	path, _ := diamondFile(t)
	got, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != 4 || got.NumMessages() != 4 {
		t.Errorf("round trip wrong: %d tasks %d messages", got.NumTasks(), got.NumMessages())
	}
	if _, err := LoadGraph(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

// TestProblemFlagsSendFileGraphInline: a -tfg naming a file is read by
// the CLI, never by whoever receives the spec — the request srsched
// -admit / -watch posts carries the graph as tfg_inline and no name, and
// the same spec solves locally. A missing or non-graph file is the
// user's mistake, reported by the CLI.
func TestProblemFlagsSendFileGraphInline(t *testing.T) {
	path, g := diamondFile(t)
	dir := filepath.Dir(path)
	flags := func(tfgArg string) *ProblemFlags {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		pf := AddProblemFlags(fs)
		if err := fs.Parse([]string{"-tfg", tfgArg, "-topo", "cube:3", "-tauin", "400"}); err != nil {
			t.Fatal(err)
		}
		return pf
	}

	pf := flags(path)
	spec, err := pf.Spec()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(schedroute.AdmitRequest{Problem: spec})
	if err != nil {
		t.Fatal(err)
	}
	var sent struct {
		Problem map[string]json.RawMessage `json:"problem"`
	}
	if err := json.Unmarshal(body, &sent); err != nil {
		t.Fatal(err)
	}
	if _, named := sent.Problem["tfg"]; named || strings.Contains(string(body), dir) {
		t.Errorf("the request names a file on the client's disk: %s", body)
	}
	if inline, err := tfg.Decode(bytes.NewReader(sent.Problem["tfg_inline"])); err != nil || inline.NumMessages() != g.NumMessages() {
		t.Errorf("tfg_inline does not carry the graph (%v): %s", err, body)
	}
	b, _, err := pf.ParseProblem()
	if err != nil || b.Graph.NumTasks() != g.NumTasks() {
		t.Fatalf("local solve from the file: %v", err)
	}
	if spec, _ := flags("dvb:4").Spec(); spec.TFG != "dvb:4" || spec.TFGInline != nil {
		t.Errorf("a generator spec must travel by name: %+v", spec)
	}

	if _, _, err := flags(filepath.Join(dir, "missing.json")).ParseProblem(); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("missing file: got %v, want ErrBadInput", err)
	}
	if err := os.WriteFile(path, []byte(`{"not":"a graph"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := flags(path).ParseProblem(); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("file that is no graph: got %v, want ErrBadInput", err)
	}
}

// TestExitStatusesMatchErrkindTable pins that the CLIs take their exit
// statuses from the same errkind table the service takes its HTTP
// statuses from: one row per family, no drift between the surfaces.
func TestExitStatusesMatchErrkindTable(t *testing.T) {
	for _, row := range errkind.Table {
		err := errkind.Mark(fmt.Errorf("synthetic %s", row.Name), row.Kind)
		if got := ExitStatus(err); got != row.Exit {
			t.Errorf("%s: ExitStatus = %d, table says %d", row.Name, got, row.Exit)
		}
	}
	if got := ExitStatus(errors.New("unclassified")); got != errkind.Generic.Exit {
		t.Errorf("generic: ExitStatus = %d, table says %d", got, errkind.Generic.Exit)
	}
	if ExitFailure != errkind.Generic.Exit {
		t.Errorf("ExitFailure (%d) drifted from the table's generic exit (%d)", ExitFailure, errkind.Generic.Exit)
	}
}

// TestParseProblemFlags: the shared flag bundle resolves the same
// defaults in every tool and builds a solvable problem.
func TestParseProblemFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	pf := AddProblemFlags(fs)
	pf.AddFaultFlags(fs)
	if err := fs.Parse([]string{"-topo", "torus:8,8", "-bw", "128", "-tauin", "150", "-fail-link", "0-1"}); err != nil {
		t.Fatal(err)
	}
	b, fault, err := pf.ParseProblem()
	if err != nil {
		t.Fatal(err)
	}
	if b.Topology.Nodes() != 64 || b.Spec.Bandwidth != 128 || b.TauIn != 150 {
		t.Fatalf("flags not reflected in built problem: %+v", b.Spec)
	}
	if b.Graph.NumTasks() != 15 {
		t.Fatalf("default -tfg dvb:4 not applied: %d tasks", b.Graph.NumTasks())
	}
	if fault == nil || fault.Empty() {
		t.Fatal("-fail-link did not build a fault set")
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	pf = AddProblemFlags(fs)
	pf.AddFaultFlags(fs)
	if err := fs.Parse([]string{"-topo", "klein-bottle:6"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pf.ParseProblem(); !errors.Is(err, errkind.ErrBadInput) {
		t.Fatalf("bad -topo spec: got %v, want ErrBadInput", err)
	}
}

func TestExitStatusInfeasibleRepair(t *testing.T) {
	ire := &schedule.InfeasibleRepairError{Faults: "link 0-1", Stage: schedule.StageAllocation, Reason: "no surviving path"}
	if got := ExitStatus(ire); got != ExitInfeasibleRepair {
		t.Errorf("ExitStatus(bare) = %d, want %d", got, ExitInfeasibleRepair)
	}
	wrapped := fmt.Errorf("sweep: %w", ire)
	if got := ExitStatus(wrapped); got != ExitInfeasibleRepair {
		t.Errorf("ExitStatus(wrapped) = %d, want %d", got, ExitInfeasibleRepair)
	}
	if got := ExitStatus(errors.New("boom")); got != ExitFailure {
		t.Errorf("ExitStatus(generic) = %d, want %d", got, ExitFailure)
	}
}

func TestWriteErrorRemediationHint(t *testing.T) {
	var b strings.Builder
	ire := &schedule.InfeasibleRepairError{Faults: "link 0-1", Stage: schedule.StageAllocation, Reason: "no surviving path"}
	WriteError(&b, "srsched", fmt.Errorf("repair: %w", ire))
	out := b.String()
	if !strings.Contains(out, "srsched: repair:") {
		t.Errorf("missing tool-prefixed error: %q", out)
	}
	if !strings.Contains(out, "hint:") || !strings.Contains(out, "lower load") {
		t.Errorf("infeasible repair must carry a remediation hint: %q", out)
	}
	b.Reset()
	WriteError(&b, "srsched", errors.New("boom"))
	if strings.Contains(b.String(), "hint:") {
		t.Errorf("generic errors must not get the repair hint: %q", b.String())
	}
}

func TestExclusiveModes(t *testing.T) {
	modes := func(set ...bool) []Mode {
		names := []string{"best", "admit", "watch", "explore"}
		ms := make([]Mode, len(set))
		for i, s := range set {
			ms[i] = Mode{Flag: names[i], Set: s}
		}
		return ms
	}
	if err := ExclusiveModes(modes(false, false, false, false)...); err != nil {
		t.Errorf("no mode selected: %v", err)
	}
	if err := ExclusiveModes(modes(false, false, true, false)...); err != nil {
		t.Errorf("one mode selected: %v", err)
	}
	err := ExclusiveModes(modes(true, false, true, true)...)
	if err == nil {
		t.Fatal("three modes selected, no error")
	}
	msg := err.Error()
	for _, want := range []string{"-best", "-watch", "-explore", "conflicting modes", "-admit"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
