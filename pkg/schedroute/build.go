package schedroute

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// Built is a wire Problem resolved into the internal solver inputs.
type Built struct {
	// Spec is the normalized wire problem (defaults applied).
	Spec       Problem
	Graph      *tfg.Graph
	Timing     *tfg.Timing
	Topology   *topology.Topology
	Assignment *alloc.Assignment
	// TauIn is the resolved invocation period (the spec's 0 becomes τc).
	TauIn float64
}

// withDefaults normalizes the spec: explicit defaults so equal problems
// produce equal structure keys regardless of which zero values the
// caller spelled out.
func (p Problem) withDefaults() Problem {
	out := p
	out.SchemaVersion = SchemaVersion
	if out.Bandwidth == 0 {
		out.Bandwidth = 64
	}
	if out.Allocator == "" {
		out.Allocator = "rr"
	}
	return out
}

// Validate checks the spec's shape without building anything.
func (p Problem) Validate() error {
	if err := CheckSchemaVersion(p.SchemaVersion); err != nil {
		return err
	}
	if p.TFG == "" && len(p.TFGInline) == 0 {
		return badInput("problem: one of tfg or tfg_inline is required")
	}
	if p.TFG != "" && len(p.TFGInline) > 0 {
		return badInput("problem: tfg and tfg_inline are mutually exclusive")
	}
	if p.Topology == "" {
		return badInput("problem: topology is required")
	}
	if p.Bandwidth < 0 || p.Speed < 0 || p.TauIn < 0 {
		return badInput("problem: bandwidth, speed and tau_in must be non-negative")
	}
	return nil
}

// NewProblem is the canonical problem constructor: every path from a
// wire spec to solver inputs — service request handling, the CLIs'
// cliutil.ParseProblem, sweep endpoints — funnels through here, so a
// spec resolves to the same graph, timing, topology, placement and
// effective invocation period no matter who asks. Every rejection — the
// spec parsers', a graph generator's, the timing's, an allocator's — is
// an errkind.ErrBadInput (or ErrUnknownVersion), so callers derive the
// exit or HTTP status from the shared table
// (TestRefusedParametersAreBadInput).
func NewProblem(p Problem) (*Built, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	spec := p.withDefaults()
	var g *tfg.Graph
	var err error
	if len(spec.TFGInline) > 0 {
		g, err = tfg.Decode(bytes.NewReader(spec.TFGInline))
		if err != nil {
			return nil, errkind.Mark(fmt.Errorf("tfg_inline: %w", err), errkind.ErrBadInput)
		}
	} else {
		g, err = LoadGraph(spec.TFG)
		if err != nil {
			return nil, err
		}
	}
	top, err := ParseTopology(spec.Topology)
	if err != nil {
		return nil, err
	}
	var tm *tfg.Timing
	if spec.Speed > 0 {
		tm, err = tfg.NewTiming(g, spec.Speed, spec.Bandwidth)
	} else {
		tm, err = tfg.NewUniformTiming(g, 50, spec.Bandwidth)
	}
	if err != nil {
		return nil, errkind.Mark(err, errkind.ErrBadInput)
	}
	as, err := ParseAllocator(spec.Allocator, g, top, spec.AllocSeed)
	if err != nil {
		// An allocator refuses a graph the machine cannot hold.
		return nil, errkind.Mark(err, errkind.ErrBadInput)
	}
	tauIn := spec.TauIn
	if tauIn == 0 {
		tauIn = tm.TauC()
	}
	return &Built{Spec: spec, Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: tauIn}, nil
}

// ScheduleProblem packages the built inputs for the scheduling
// pipeline (fault-free; repairs construct their own degraded problems).
func (b *Built) ScheduleProblem() schedule.Problem {
	return b.ScheduleProblemAt(b.TauIn)
}

// ScheduleProblemAt packages the built inputs at an explicit invocation
// period. This is the form a structure cache needs: one Built is keyed
// by StructureKey — which deliberately excludes τin — so a cached
// Built's own TauIn belongs to whichever request created it, and every
// later request must supply its own period here rather than inherit it.
func (b *Built) ScheduleProblemAt(tauIn float64) schedule.Problem {
	return schedule.Problem{
		Graph: b.Graph, Timing: b.Timing, Topology: b.Topology,
		Assignment: b.Assignment, TauIn: tauIn,
	}
}

// StructureKey is the canonical identity of everything a
// schedule.Solver caches: the problem minus the invocation period.
// Requests with equal keys can share one Solver (the τin-independent
// candidates, baseline, and task starts), which is exactly how the
// service's solver cache is keyed.
func (p Problem) StructureKey() string {
	spec := p.withDefaults()
	tfgID := spec.TFG
	if len(spec.TFGInline) > 0 {
		sum := sha256.Sum256(spec.TFGInline)
		tfgID = "inline:" + hex.EncodeToString(sum[:])
	}
	// AllocSeed only matters for the seeded allocators; folding it to 0
	// otherwise keeps "rr seed 1" and "rr seed 2" on one Solver.
	seed := spec.AllocSeed
	if spec.Allocator != "random" && spec.Allocator != "anneal" {
		seed = 0
	}
	return fmt.Sprintf("v%d|tfg=%s|topo=%s|bw=%g|speed=%g|alloc=%s|seed=%d",
		SchemaVersion, tfgID, spec.Topology, spec.Bandwidth, spec.Speed, spec.Allocator, seed)
}
