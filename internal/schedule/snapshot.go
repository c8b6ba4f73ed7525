package schedule

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"schedroute/internal/errkind"
	"schedroute/internal/topology"
)

// No caller outside bench/traced.go and snapshot_test.go: warm-start left in
// PR 16 (decoding costs 2.7-19x the derivation it replaces); this file goes
// when a [benchmark] PR drops the schedule.snapshot_* metrics (ROADMAP item 6).
//
// A solver snapshot serializes the τin-independent state a Solver has
// derived for one problem structure — the fault-aware LSD baseline,
// the candidate path sets per MaxPaths, the static task-start tables,
// and the validation outcomes — so a restarting daemon or a newly
// provisioned replica can hydrate a warm Solver from disk or a peer
// instead of re-deriving everything from scratch. A hydrated Solver is
// indistinguishable from one that did the cold derivation itself: the
// cached values are exactly the values a fresh run would rebuild, so
// Solve output stays byte-identical (pinned by the round-trip tests).
//
// Only successful derivations are snapshotted, as they are the only
// ones a Solver keeps: a failed validation or a disconnected baseline
// is recomputed on demand.

// SolverSnapshotSchemaVersion is the schema_version written by
// EncodeSolverSnapshot. DecodeSolverSnapshot accepts exactly this
// version; anything else is rejected with an errkind.ErrUnknownVersion
// error so a stale replica fails loudly instead of misreading a future
// layout. Snapshot stores key their entries by structure key AND this
// version, so a schema bump naturally invalidates old files.
const SolverSnapshotSchemaVersion = 1

type solverSnapJSON struct {
	SchemaVersion int `json:"schema_version"`
	// StructureKey is the caller-supplied identity of the problem
	// structure (the service uses schedroute.Problem.StructureKey).
	// Decode refuses a snapshot whose key differs from the expected one.
	StructureKey string `json:"structure_key"`
	// Shape fingerprint: a snapshot for a different graph or machine is
	// rejected even when the keys collide.
	Tasks    int    `json:"tasks"`
	Messages int    `json:"messages"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	Faults   string `json:"faults,omitempty"`

	// Validated lists the strictness levels Assignment.Validate passed.
	Validated []bool `json:"validated,omitempty"`
	// Starts are the static task-start tables per window length;
	// SharedStarts the AP-sharing variants per (window, τin).
	Starts       []startsSnapJSON       `json:"starts,omitempty"`
	SharedStarts []sharedStartsSnapJSON `json:"shared_starts,omitempty"`
	// LSD is the fault-aware deterministic baseline assignment, as
	// per-message node paths (links are re-derived on decode).
	LSD *assignSnapJSON `json:"lsd,omitempty"`
	// Candidates are the per-MaxPaths equivalent-path sets.
	Candidates []candsSnapJSON `json:"candidates,omitempty"`
}

type startsSnapJSON struct {
	Window float64   `json:"window"`
	Starts []float64 `json:"starts"`
}

type sharedStartsSnapJSON struct {
	Window float64   `json:"window"`
	TauIn  float64   `json:"tau_in"`
	Starts []float64 `json:"starts"`
}

type assignSnapJSON struct {
	// Paths[i] is message i's node sequence; empty for local messages.
	Paths [][]int `json:"paths"`
}

type candsSnapJSON struct {
	MaxPaths int `json:"max_paths"`
	// PathsOf[i] lists message i's alternative paths as node sequences,
	// in heuristic iteration order.
	PathsOf [][][]int `json:"paths_of"`
}

func pathToSnap(p topology.Path) []int {
	out := make([]int, len(p.Nodes))
	for i, n := range p.Nodes {
		out[i] = int(n)
	}
	return out
}

func assignToSnap(pa *PathAssignment) *assignSnapJSON {
	sj := &assignSnapJSON{Paths: make([][]int, len(pa.Paths))}
	for i, p := range pa.Paths {
		sj.Paths[i] = pathToSnap(p)
	}
	return sj
}

// faultsSig is the snapshot fingerprint of the problem's fault set.
func faultsSig(fs *topology.FaultSet) string {
	if fs == nil || fs.Empty() {
		return ""
	}
	return fs.String()
}

// EncodeSolverSnapshot writes the Solver's cached τin-independent
// structure as schema-versioned JSON. structureKey is the caller's
// identity for the problem structure and is embedded in the artifact;
// DecodeSolverSnapshot verifies it. Safe to call concurrently with
// Solve — the cached values are immutable once stored, and each memo
// walks a snapshot of itself.
func EncodeSolverSnapshot(w io.Writer, s *Solver, structureKey string) error {
	if s.p.Graph == nil || s.p.Timing == nil || s.p.Topology == nil || s.p.Assignment == nil {
		return fmt.Errorf("schedule: encode solver snapshot: incomplete problem")
	}
	sj := solverSnapJSON{
		SchemaVersion: SolverSnapshotSchemaVersion,
		StructureKey:  structureKey,
		Tasks:         s.p.Graph.NumTasks(),
		Messages:      s.p.Graph.NumMessages(),
		Nodes:         s.p.Topology.Nodes(),
		Links:         s.p.Topology.Links(),
		Faults:        faultsSig(s.p.Faults),
	}

	// Only passing verdicts are written: a refusal is rebuilt on demand.
	s.validated.Each(func(level bool, verdict error) {
		if verdict == nil {
			sj.Validated = append(sj.Validated, level)
		}
	})
	s.lsd.Each(func(_ struct{}, v baselineVerdict) {
		if v.err == nil {
			sj.LSD = assignToSnap(v.pa)
		}
	})
	s.starts.Each(func(window float64, st []float64) {
		sj.Starts = append(sj.Starts, startsSnapJSON{Window: window, Starts: st})
	})
	s.sharedStarts.Each(func(key [2]float64, st []float64) {
		sj.SharedStarts = append(sj.SharedStarts, sharedStartsSnapJSON{Window: key[0], TauIn: key[1], Starts: st})
	})
	s.cands.Each(func(maxPaths int, c *Candidates) {
		cj := candsSnapJSON{MaxPaths: maxPaths, PathsOf: make([][][]int, len(c.PathsOf))}
		for i, list := range c.PathsOf {
			if len(list) == 0 {
				continue
			}
			paths := make([][]int, len(list))
			for k, p := range list {
				paths[k] = pathToSnap(p)
			}
			cj.PathsOf[i] = paths
		}
		sj.Candidates = append(sj.Candidates, cj)
	})

	// The walks above follow recency order; sort every table so
	// the same solver state always serializes to the same bytes (snapshot
	// files diff cleanly and tests can compare artifacts directly).
	sort.Slice(sj.Validated, func(i, j int) bool { return !sj.Validated[i] && sj.Validated[j] })
	sort.Slice(sj.Starts, func(i, j int) bool { return sj.Starts[i].Window < sj.Starts[j].Window })
	sort.Slice(sj.SharedStarts, func(i, j int) bool {
		a, b := sj.SharedStarts[i], sj.SharedStarts[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		return a.TauIn < b.TauIn
	})
	sort.Slice(sj.Candidates, func(i, j int) bool { return sj.Candidates[i].MaxPaths < sj.Candidates[j].MaxPaths })

	enc := json.NewEncoder(w)
	return enc.Encode(sj)
}

func badSnapshot(format string, args ...any) error {
	return errkind.BadInput("schedule: decode solver snapshot: "+format, args...)
}

// snapToPath rebuilds one path and its link sequence, validating every
// node id and the adjacency of consecutive hops against the topology.
func snapToPath(top *topology.Topology, nodes []int) (topology.Path, []topology.LinkID, error) {
	p := topology.Path{Nodes: make([]topology.NodeID, len(nodes))}
	for i, n := range nodes {
		if n < 0 || n >= top.Nodes() {
			return topology.Path{}, nil, badSnapshot("path node %d out of range [0,%d)", n, top.Nodes())
		}
		p.Nodes[i] = topology.NodeID(n)
	}
	links, err := p.Links(top)
	if err != nil {
		return topology.Path{}, nil, badSnapshot("%v", err)
	}
	return p, links, nil
}

// DecodeSolverSnapshot reads a snapshot back into a warm Solver for
// problem p. structureKey, when non-empty, must match the key embedded
// in the artifact; the snapshot's shape fingerprint (task, message,
// node, link counts and the fault signature) must match p either way.
// An unknown schema_version is rejected with errkind.ErrUnknownVersion;
// any structural mismatch or malformed content with errkind.ErrBadInput.
//
// The hydrated Solver's build counters (SolverCacheStats) stay zero:
// hydration is not a derivation, and the fleet tests assert exactly
// that a restarted replica's first solve performs no structure builds.
func DecodeSolverSnapshot(r io.Reader, p Problem, structureKey string) (*Solver, error) {
	if p.Graph == nil || p.Timing == nil || p.Topology == nil || p.Assignment == nil {
		return nil, fmt.Errorf("schedule: decode solver snapshot: incomplete problem")
	}
	var sj solverSnapJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, badSnapshot("%v", err)
	}
	if sj.SchemaVersion != SolverSnapshotSchemaVersion {
		return nil, errkind.Mark(
			fmt.Errorf("schedule: decode solver snapshot: schema_version %d not supported (this build reads %d)",
				sj.SchemaVersion, SolverSnapshotSchemaVersion),
			errkind.ErrUnknownVersion)
	}
	if structureKey != "" && sj.StructureKey != structureKey {
		return nil, badSnapshot("structure key %q does not match expected %q", sj.StructureKey, structureKey)
	}
	if sj.Tasks != p.Graph.NumTasks() || sj.Messages != p.Graph.NumMessages() {
		return nil, badSnapshot("graph shape %d tasks/%d messages does not match problem %d/%d",
			sj.Tasks, sj.Messages, p.Graph.NumTasks(), p.Graph.NumMessages())
	}
	if sj.Nodes != p.Topology.Nodes() || sj.Links != p.Topology.Links() {
		return nil, badSnapshot("topology shape %d nodes/%d links does not match problem %d/%d",
			sj.Nodes, sj.Links, p.Topology.Nodes(), p.Topology.Links())
	}
	if sig := faultsSig(p.Faults); sj.Faults != sig {
		return nil, badSnapshot("fault set %q does not match problem %q", sj.Faults, sig)
	}

	s := NewSolver(p)
	for _, level := range sj.Validated {
		s.validated.Put(level, nil)
	}
	for _, st := range sj.Starts {
		if len(st.Starts) != sj.Tasks {
			return nil, badSnapshot("starts table for window %g has %d entries, want %d", st.Window, len(st.Starts), sj.Tasks)
		}
		s.starts.Put(st.Window, st.Starts)
	}
	for _, st := range sj.SharedStarts {
		if len(st.Starts) != sj.Tasks {
			return nil, badSnapshot("shared starts table for window %g has %d entries, want %d", st.Window, len(st.Starts), sj.Tasks)
		}
		s.sharedStarts.Put([2]float64{st.Window, st.TauIn}, st.Starts)
	}
	if sj.LSD != nil {
		if len(sj.LSD.Paths) != sj.Messages {
			return nil, badSnapshot("lsd covers %d messages, want %d", len(sj.LSD.Paths), sj.Messages)
		}
		pa := &PathAssignment{
			Paths: make([]topology.Path, sj.Messages),
			Links: make([][]topology.LinkID, sj.Messages),
		}
		for i, nodes := range sj.LSD.Paths {
			if len(nodes) == 0 {
				continue
			}
			path, links, err := snapToPath(p.Topology, nodes)
			if err != nil {
				return nil, err
			}
			pa.Paths[i] = path
			pa.Links[i] = links
		}
		s.lsd.Put(struct{}{}, baselineVerdict{pa: pa})
	}
	for _, cj := range sj.Candidates {
		if cj.MaxPaths < 1 {
			return nil, badSnapshot("candidate set with max_paths %d", cj.MaxPaths)
		}
		if len(cj.PathsOf) != sj.Messages {
			return nil, badSnapshot("candidates for max_paths %d cover %d messages, want %d", cj.MaxPaths, len(cj.PathsOf), sj.Messages)
		}
		c := &Candidates{PathsOf: make([][]topology.Path, sj.Messages), LinksOf: make([][][]topology.LinkID, sj.Messages)}
		for i, paths := range cj.PathsOf {
			if len(paths) == 0 {
				continue
			}
			c.PathsOf[i], c.LinksOf[i] = make([]topology.Path, len(paths)), make([][]topology.LinkID, len(paths))
			for k, nodes := range paths {
				var err error
				if c.PathsOf[i][k], c.LinksOf[i][k], err = snapToPath(p.Topology, nodes); err != nil {
					return nil, err
				}
			}
		}
		s.cands.Put(cj.MaxPaths, c)
	}
	return s, nil
}
