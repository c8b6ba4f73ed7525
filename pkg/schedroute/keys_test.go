package schedroute

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// structureKeyReference is StructureKey as a seven-verb Sprintf, the
// spelling the appended one must reproduce byte for byte.
func structureKeyReference(p Problem) string {
	spec := p.withDefaults()
	tfgID := spec.TFG
	if len(spec.TFGInline) > 0 {
		sum := sha256.Sum256(spec.TFGInline)
		tfgID = "inline:" + hex.EncodeToString(sum[:])
	}
	seed := spec.AllocSeed
	if spec.Allocator != "random" && spec.Allocator != "anneal" {
		seed = 0
	}
	return fmt.Sprintf("v%d|tfg=%s|topo=%s|bw=%g|speed=%g|alloc=%s|seed=%d",
		SchemaVersion, tfgID, spec.Topology, spec.Bandwidth, spec.Speed, spec.Allocator, seed)
}

// machineKeyReference is machine.key as fmt.Sprint.
func machineKeyReference(m machine) string { return fmt.Sprint(m.kind, m.radices) }

// TestKeysMatchSprintf: StructureKey and machine.key, built by appends,
// equal their fmt spellings on every problem of the repository
// benchmark's five pools and on edge values — extreme and zero floats,
// a negative seed, an inline graph, machines of one and many radices.
func TestKeysMatchSprintf(t *testing.T) {
	paths, err := filepath.Glob("../../bench/workloads/*.json")
	if err != nil || len(paths) != 5 {
		t.Fatalf("want the five benchmark pools, found %v (%v)", paths, err)
	}
	var probs []Problem
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var w struct {
			Entries []struct {
				Problem Problem `json:"problem"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(raw, &w); err != nil || len(w.Entries) == 0 {
			t.Fatalf("%s: no entries (%v)", path, err)
		}
		for _, e := range w.Entries {
			probs = append(probs, e.Problem)
		}
	}
	base := Problem{TFG: "dvb:4", Topology: "torus:8,8"}
	for _, edit := range []func(*Problem){
		func(p *Problem) { p.Bandwidth = 1e21 },
		func(p *Problem) { p.Bandwidth = 1e-7 },
		func(p *Problem) { p.Bandwidth = 123456789.125 },
		func(p *Problem) { p.Bandwidth = math.Inf(1) },
		func(p *Problem) { p.Bandwidth = math.SmallestNonzeroFloat64 },
		func(p *Problem) { p.Speed = 0 },
		func(p *Problem) { p.Speed = 2.5e-300 },
		func(p *Problem) { p.Allocator, p.AllocSeed = "random", -7 },
		func(p *Problem) { p.Allocator, p.AllocSeed = "anneal", math.MinInt64 },
		func(p *Problem) { p.Allocator, p.AllocSeed = "greedy", 99 },
		func(p *Problem) {
			p.TFG, p.TFGInline = "", json.RawMessage(`{"name":"x","tasks":[{"name":"a","ops":1}]}`)
		},
		func(p *Problem) { p.Topology = "" },
		func(p *Problem) { p.SchemaVersion = 1 },
	} {
		p := base
		edit(&p)
		probs = append(probs, p)
	}
	for _, p := range probs {
		if got, want := p.StructureKey(), structureKeyReference(p); got != want {
			t.Errorf("StructureKey %q, Sprintf %q", got, want)
		}
	}
	for _, spec := range []string{"cube:6", "torus:8, 8", "ghc:4,4,4", "mesh:-3,0,12", "torus:2000000000,1",
		"ghc:" + "2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"} {
		m, err := parseMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.key(), machineKeyReference(m); got != want {
			t.Errorf("%s: key %q, Sprint %q", spec, got, want)
		}
	}
}
