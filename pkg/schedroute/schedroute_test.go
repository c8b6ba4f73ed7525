package schedroute

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
)

func jsonReader(raw json.RawMessage) io.Reader { return bytes.NewReader(raw) }

func TestProblemValidate(t *testing.T) {
	good := Problem{TFG: "dvb:4", Topology: "cube:6"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := map[string]Problem{
		"no tfg":        {Topology: "cube:6"},
		"both tfg":      {TFG: "dvb:4", TFGInline: json.RawMessage(`{}`), Topology: "cube:6"},
		"no topology":   {TFG: "dvb:4"},
		"negative rate": {TFG: "dvb:4", Topology: "cube:6", TauIn: -1},
	}
	for name, p := range cases {
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, errkind.ErrBadInput) {
			t.Errorf("%s: not classified bad input: %v", name, err)
		}
	}
	bad := Problem{SchemaVersion: 99, TFG: "dvb:4", Topology: "cube:6"}
	if err := bad.Validate(); !errors.Is(err, errkind.ErrUnknownVersion) {
		t.Errorf("schema_version 99: got %v, want ErrUnknownVersion", err)
	}
}

func TestBuildResolvesDefaults(t *testing.T) {
	b, err := NewProblem(Problem{TFG: "dvb:4", Topology: "cube:6"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec.Bandwidth != 64 || b.Spec.Allocator != "rr" || b.Spec.SchemaVersion != SchemaVersion {
		t.Fatalf("defaults not applied: %+v", b.Spec)
	}
	if b.TauIn != b.Timing.TauC() {
		t.Fatalf("τin default: got %g, want τc=%g", b.TauIn, b.Timing.TauC())
	}
	if b.Topology.Nodes() != 64 {
		t.Fatalf("cube:6 has %d nodes", b.Topology.Nodes())
	}
}

// TestStructureKeyIdentity: the key folds out everything a Solver does
// not depend on (τin, spelled-out defaults, seeds of deterministic
// allocators) and keeps everything it does.
func TestStructureKeyIdentity(t *testing.T) {
	base := Problem{TFG: "dvb:4", Topology: "cube:6"}
	same := []Problem{
		{TFG: "dvb:4", Topology: "cube:6", TauIn: 141},
		{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64, Allocator: "rr"},
		{TFG: "dvb:4", Topology: "cube:6", AllocSeed: 7}, // rr ignores seeds
	}
	for i, p := range same {
		if p.StructureKey() != base.StructureKey() {
			t.Errorf("case %d: key %q != base %q", i, p.StructureKey(), base.StructureKey())
		}
	}
	diff := []Problem{
		{TFG: "dvb:4", Topology: "ghc:4,4,4"},
		{TFG: "chain:8", Topology: "cube:6"},
		{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 128},
		{TFG: "dvb:4", Topology: "cube:6", Allocator: "random"},
		{TFG: "dvb:4", Topology: "cube:6", Allocator: "random", AllocSeed: 7},
	}
	for i, p := range diff {
		if p.StructureKey() == base.StructureKey() {
			t.Errorf("case %d: key collides with base", i)
		}
	}
}

func TestOptionsEngineMapping(t *testing.T) {
	for name, want := range map[string]schedule.Engine{
		"": schedule.EngineAuto, "auto": schedule.EngineAuto,
		"greedy": schedule.EngineGreedy, "exact": schedule.EngineExact,
	} {
		o, err := Options{Engine: name}.ToSchedule()
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if o.Engine != want {
			t.Errorf("engine %q: got %v, want %v", name, o.Engine, want)
		}
	}
	if _, err := (Options{Engine: "quantum"}).ToSchedule(); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("unknown engine: got %v, want ErrBadInput", err)
	}
}

func TestFaultSpecBuild(t *testing.T) {
	b, err := NewProblem(Problem{TFG: "dvb:4", Topology: "cube:6"})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := FaultSpec{Links: []string{"0-1"}, Nodes: []int{63}}.Build(b.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if fs == nil || fs.Empty() {
		t.Fatal("fault set empty")
	}
	if got, _ := (FaultSpec{}).Build(b.Topology); got != nil {
		t.Fatal("empty spec should build a nil fault set")
	}
	if _, err := (FaultSpec{Nodes: []int{64}}).Build(b.Topology); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("out-of-range node: got %v, want ErrBadInput", err)
	}
	if _, err := (FaultSpec{Links: []string{"0~1"}}).Build(b.Topology); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("bad link spec: got %v, want ErrBadInput", err)
	}
}

// TestScheduleResultWire pins the wire conversion: schema version
// stamped, stats gating, Ω embedding.
func TestScheduleResultWire(t *testing.T) {
	b, err := NewProblem(Problem{TFG: "dvb:4", Topology: "cube:6", TauIn: 141})
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.Compute(b.ScheduleProblem(), schedule.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("fixture infeasible at %v", res.FailStage)
	}
	out, err := NewScheduleResult(b, res, b.TauIn, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.SchemaVersion != SchemaVersion || !out.Feasible {
		t.Fatalf("bad wire header: %+v", out)
	}
	if len(out.Omega) == 0 {
		t.Fatal("IncludeOmega did not embed the artifact")
	}
	if out.Stats == nil || out.Stats.Attempts < 1 {
		t.Fatal("deterministic counters missing")
	}
	if out.Stats.WindowsNS != 0 {
		t.Fatal("wall-clock stats leaked without CollectStats")
	}
	// The embedded artifact is the -save format: it must decode.
	om, err := schedule.DecodeOmega(jsonReader(out.Omega))
	if err != nil {
		t.Fatalf("embedded Ω does not decode: %v", err)
	}
	if om.TauIn != 141 {
		t.Fatalf("embedded Ω period %g", om.TauIn)
	}

	lean, err := NewScheduleResult(b, res, b.TauIn, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.Omega) != 0 {
		t.Fatal("Ω embedded without IncludeOmega")
	}
}

// TestWireOmegaIsCompactArtifact: for every feasible point of the
// standard grid (the DVB on the four 64-node networks at both
// bandwidths and the twelve load points), the Ω a response embeds is
// json.Compact of the -save artifact EncodeOmega writes, and the
// response marshals to the same bytes as one embedding the indented
// artifact.
func TestWireOmegaIsCompactArtifact(t *testing.T) {
	feasible := 0
	for _, topo := range []string{"cube:6", "ghc:4,4,4", "torus:8,8", "torus:4,4,4"} {
		for _, bw := range []float64{64, 128} {
			for k := 0; k < 12; k++ {
				tauIn := 50 * (1 + 4*float64(k)/11)
				b, err := NewProblem(Problem{TFG: "dvb:4", Topology: topo, Bandwidth: bw, TauIn: tauIn})
				if err != nil {
					t.Fatal(err)
				}
				res, err := schedule.Compute(b.ScheduleProblem(), schedule.Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Feasible {
					continue
				}
				feasible++
				out, err := NewScheduleResult(b, res, tauIn, true, false)
				if err != nil {
					t.Fatal(err)
				}
				var saved, want bytes.Buffer
				if err := schedule.EncodeOmega(&saved, res.Omega); err != nil {
					t.Fatal(err)
				}
				if err := json.Compact(&want, saved.Bytes()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Omega, want.Bytes()) {
					t.Fatalf("%s B=%g k=%d: embedded Ω is not the compacted artifact", topo, bw, k)
				}
				indented := *out
				indented.Omega = bytes.TrimSpace(saved.Bytes())
				got, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				before, err := json.Marshal(&indented)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, before) {
					t.Fatalf("%s B=%g k=%d: response bytes differ from the indented embedding's", topo, bw, k)
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible grid point")
	}
	t.Logf("%d feasible grid points", feasible)
}
