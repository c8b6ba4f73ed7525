package schedroute

import (
	"strconv"
	"strings"

	"schedroute/internal/alloc"
	"schedroute/internal/dvb"
	"schedroute/internal/errkind"
	"schedroute/internal/memo"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// The spec parsers live in the facade so the CLIs (via
// internal/cliutil) and the service resolve identical strings to
// identical machines. Every rejection is an errkind.ErrBadInput, so the
// shared table maps it to exit 1 on a CLI and HTTP 400 on the service.

// ParseTopology builds a topology from a spec string:
//
//	cube:D        binary hypercube of dimension D
//	ghc:M1,M2,..  generalized hypercube
//	torus:K1,K2,… k-ary n-cube torus
//	mesh:K1,K2,…  mesh
//
// Every call builds a fresh machine, its route memo empty; NewProblem
// shares one per machine instead (internTopology).
func ParseTopology(spec string) (*topology.Topology, error) {
	m, err := parseMachine(spec)
	if err != nil {
		return nil, err
	}
	return m.build()
}

// machine is what a topology spec names, whatever its spelling: the
// family and the parsed radices.
type machine struct {
	kind    string
	radices []int
}

func parseMachine(spec string) (machine, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return machine{}, errkind.BadInput("topology spec %q: want kind:radices", spec)
	}
	radices := make([]int, 0, 4) // room for every machine in use: one allocation
	for more := true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return machine{}, errkind.BadInput("topology spec %q: %v", spec, err)
		}
		radices = append(radices, v)
	}
	switch kind {
	case "cube":
		if len(radices) != 1 {
			return machine{}, errkind.BadInput("cube spec wants a single dimension, got %q", spec)
		}
	case "ghc", "torus", "mesh":
	default:
		return machine{}, errkind.BadInput("unknown topology kind %q", kind)
	}
	return machine{kind, radices}, nil
}

// key is the machine's canonical spelling, e.g. "torus[8 8]".
func (m machine) key() string {
	var buf [64]byte
	b := append(append(buf[:0], m.kind...), '[')
	for i, r := range m.radices {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	return string(append(b, ']'))
}

func (m machine) build() (*topology.Topology, error) {
	var top *topology.Topology
	var err error
	switch m.kind {
	case "cube":
		top, err = topology.NewHypercube(m.radices[0])
	case "ghc":
		top, err = topology.NewGHC(m.radices...)
	case "torus":
		top, err = topology.NewTorus(m.radices...)
	default:
		top, err = topology.NewMesh(m.radices...)
	}
	if err != nil {
		return nil, errkind.Mark(err, errkind.ErrBadInput)
	}
	return top, nil
}

// internedMachines bounds the machine intern (DESIGN §3.11).
const internedMachines = 8

// machines holds the Topology NewProblem hands every structure on a
// machine, so that they share its adjacency, link index and fault-free
// route memo: the paper's equivalent shortest paths depend on the
// machine and a (src, dst) pair alone. A Topology is immutable but for
// that memo, a pure cache, so sharing one changes no answer.
var machines = memo.New[string, *topology.Topology](internedMachines)

// internTopology resolves a spec to its machine's interned Topology,
// building it on a miss; a spec that fails to build leaves no entry.
func internTopology(spec string) (*topology.Topology, error) {
	m, err := parseMachine(spec)
	if err != nil {
		return nil, err
	}
	top, _, err := machines.Get(m.key(), m.build)
	return top, err
}

// InternedMachines reports what the machine intern holds: the machines
// and the fault-free route enumerations memoized on them.
func InternedMachines() (n, routes int) {
	machines.Each(func(_ string, top *topology.Topology) {
		n++
		routes += top.RouteMemoLen()
	})
	return n, routes
}

// ParseAllocator places g on top using the named strategy: "rr"
// (round-robin, the experiments' default), "greedy", "random" (with
// the given seed), or "anneal" (simulated annealing on the link-load
// proxy).
func ParseAllocator(name string, g *tfg.Graph, top *topology.Topology, seed int64) (*alloc.Assignment, error) {
	switch name {
	case "rr", "roundrobin":
		return alloc.RoundRobin(g, top)
	case "greedy":
		return alloc.Greedy(g, top)
	case "random":
		return alloc.Random(g, top, seed)
	case "anneal":
		return alloc.Anneal(g, top, alloc.AnnealOptions{Seed: seed})
	default:
		return nil, errkind.BadInput("unknown allocator %q (want rr, greedy, random or anneal)", name)
	}
}

// LoadGraph builds a TFG from a built-in generator spec ("dvb:4",
// "chain:8", "fan:6", "fft:3", "stencil:4",
// "layered:seed,widths...,density"), refusing more than tfg.MaxTasks
// tasks before building any. It opens no file — the service resolves
// client-supplied strings through it; the CLIs read a graph file
// themselves and send it as Problem.TFGInline (internal/cliutil). Every
// call builds afresh; NewProblem shares one Graph per spec instead
// (internGraph).
func LoadGraph(spec string) (*tfg.Graph, error) {
	if kind, rest, ok := strings.Cut(spec, ":"); ok {
		if kind == "layered" {
			return parseLayered(spec, rest)
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			return nil, errkind.BadInput("graph spec %q: %v", spec, err)
		}
		var g *tfg.Graph
		switch kind {
		case "dvb":
			g, err = dvb.New(n)
		case "chain":
			g, err = tfg.Chain(n, 1925, 1536)
		case "fan":
			g, err = tfg.FanOutIn(n, 1925, 1536)
		case "fft":
			g, err = tfg.FFT(n, 1925, 1536)
		case "stencil":
			g, err = tfg.Stencil(n, 1925, 1536, 384)
		default:
			return nil, errkind.BadInput("unknown graph kind %q", kind)
		}
		// A generator refuses an N outside its range.
		return g, errkind.Mark(err, errkind.ErrBadInput)
	}
	return nil, errkind.BadInput("unknown graph spec %q", spec)
}

// parseLayered resolves "layered:seed,w1,w2,...,density" into a
// deterministic tfg.RandomLayered graph (the large-scale benchmark
// workload): the first field is the generator seed, the last — the only
// one containing a '.' — is the extra-edge density, and the fields in
// between are layer widths (tfg.ParseWidths: "64*14" repeats a width 14
// times).
// Ops and bytes ranges are fixed to the tfggen defaults (400-1925 ops,
// 192-3200 bytes) so a spec names exactly one graph.
func parseLayered(spec, rest string) (*tfg.Graph, error) {
	parts := strings.Split(rest, ",")
	if len(parts) < 3 {
		return nil, errkind.BadInput("graph spec %q: want layered:seed,widths...,density", spec)
	}
	last := strings.TrimSpace(parts[len(parts)-1])
	if !strings.Contains(last, ".") {
		return nil, errkind.BadInput("graph spec %q: final field %q must be a density like 0.03", spec, last)
	}
	seed, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return nil, errkind.BadInput("graph spec %q: seed: %v", spec, err)
	}
	density, err := strconv.ParseFloat(last, 64)
	if err != nil {
		return nil, errkind.BadInput("graph spec %q: density: %v", spec, err)
	}
	// The widths are the fields between the seed and the density.
	widths, err := tfg.ParseWidths(rest[strings.IndexByte(rest, ',')+1 : strings.LastIndexByte(rest, ',')])
	if err != nil {
		return nil, errkind.BadInput("graph spec %q: %v", spec, err)
	}
	g, err := tfg.RandomLayered(seed, widths, 400, 1925, 192, 3200, density)
	if err != nil {
		return nil, errkind.Mark(err, errkind.ErrBadInput)
	}
	return g, nil
}

// Build resolves a FaultSpec against a topology into a FaultSet.
// Returns nil when the spec is empty.
func (f FaultSpec) Build(top *topology.Topology) (*topology.FaultSet, error) {
	if f.Empty() {
		return nil, nil
	}
	fs := topology.NewFaultSet()
	for _, spec := range f.Links {
		l, err := top.ParseLinkSpec(spec)
		if err != nil {
			return nil, errkind.Mark(err, errkind.ErrBadInput)
		}
		fs.FailLink(l)
	}
	for _, n := range f.Nodes {
		if n < 0 || n >= top.Nodes() {
			return nil, errkind.BadInput("fault node %d out of range [0,%d)", n, top.Nodes())
		}
		fs.FailNode(topology.NodeID(n))
	}
	return fs, nil
}
