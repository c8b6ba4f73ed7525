// Package cliutil holds the helpers shared by the command-line tools:
// the common problem flag set (-tfg/-topo/-bw/-tauin/-speed/-alloc/
// -seed and the fault flags), spec parsing (delegated to the public
// pkg/schedroute facade so CLIs and the srschedd service resolve specs
// identically), and error-to-exit-status mapping driven by the
// internal/errkind table.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
	"schedroute/pkg/schedroute"
)

// Exit statuses shared by the command-line tools, derived from the
// errkind table (see TestExitStatusesMatchErrkindTable). A repair that
// exhausts every rung of the degradation ladder is an expected
// operational outcome, not a tool malfunction, so scripts driving
// fault sweeps get a distinct status to branch on.
const (
	ExitFailure          = 1 // generic error
	ExitUsage            = 2 // flag misuse (the flag package's own status)
	ExitInfeasibleRepair = 3 // errkind.ErrInfeasibleRepair anywhere in the chain
)

// ExitStatus maps an error to the tool's process exit status via the
// errkind classification table.
func ExitStatus(err error) int {
	return errkind.ExitStatus(err)
}

// WriteError renders err for the named tool, appending a remediation
// hint when the error is an infeasible repair abort.
func WriteError(w io.Writer, tool string, err error) {
	fmt.Fprintf(w, "%s: %v\n", tool, err)
	if errors.Is(err, errkind.ErrInfeasibleRepair) {
		fmt.Fprintf(w, "%s: hint: the fault disconnects or overloads the topology at this rate; retry at a lower load (larger -tauin), a richer topology, or drop the failed element from the fault set\n", tool)
	}
}

// Fatal reports err on stderr via WriteError and exits with the
// status from ExitStatus.
func Fatal(tool string, err error) {
	WriteError(os.Stderr, tool, err)
	os.Exit(ExitStatus(err))
}

// Mode names one of a tool's mutually exclusive operating modes: a
// flag name (without the leading dash) and whether this invocation
// selected it.
type Mode struct {
	Flag string
	Set  bool
}

// ExclusiveModes checks that at most one of the given modes is
// selected. It returns nil when the invocation is consistent and a
// usage error naming the conflicting flags otherwise, so each tool
// states its mode vocabulary once instead of growing pairwise checks.
func ExclusiveModes(modes ...Mode) error {
	var set []string
	all := make([]string, len(modes))
	for i, m := range modes {
		all[i] = "-" + m.Flag
		if m.Set {
			set = append(set, "-"+m.Flag)
		}
	}
	if len(set) <= 1 {
		return nil
	}
	return fmt.Errorf("%s select conflicting modes; pick at most one of %s",
		strings.Join(set, " and "), strings.Join(all, ", "))
}

// RequireExclusiveModes enforces ExclusiveModes for the named tool:
// a conflict is reported on stderr with a remediation hint and the
// process exits with ExitUsage (2), the flag package's own misuse
// status.
func RequireExclusiveModes(tool string, modes ...Mode) {
	err := ExclusiveModes(modes...)
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	fmt.Fprintf(os.Stderr, "%s: hint: each mode is a complete run; invoke the tool once per mode instead of combining them\n", tool)
	os.Exit(ExitUsage)
}

// LoadGraph reads a TFG: either a built-in spec ("dvb:4", "chain:8",
// "fan:6", "fft:3", "stencil:4", "layered:seed,widths...,density") or —
// anything without a colon — a path to a JSON file produced by tfggen.
// Opening files is the CLIs' business: the wire Problem names a
// generator or carries the graph (see Spec).
func LoadGraph(spec string) (*tfg.Graph, error) {
	if strings.Contains(spec, ":") {
		return schedroute.LoadGraph(spec)
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, errkind.Mark(err, errkind.ErrBadInput)
	}
	defer f.Close()
	g, err := tfg.Decode(f)
	return g, errkind.Mark(err, errkind.ErrBadInput)
}

// Large-scale problem presets: the workloads that size the 10-cube and
// 32x32-torus feasibility benchmarks. The layered graph is ~960 tasks /
// ~2.6k messages; the bandwidths are chosen so τin=200µs is feasible on
// the matching topology (see BenchmarkScheduleTenCube and
// BenchmarkScheduleTorus32).
const (
	// LayeredLargeTFG is the shared large layered task-flow graph spec.
	LayeredLargeTFG = "layered:7,32,64*14,32,0.03"
	// TenCubePreset pairs LayeredLargeTFG with a 10-cube at 512 B/µs.
	TenCubeTopo = "cube:10"
	TenCubeBW   = 512
	// Torus32 pairs LayeredLargeTFG with a 32x32 torus at 2048 B/µs.
	Torus32Topo = "torus:32,32"
	Torus32BW   = 2048
)

// ProblemFlags is the flag set every problem-driven tool shares. Use
// AddProblemFlags (and AddFaultFlags for tools that repair) during flag
// registration, then ParseProblem after flag.Parse.
type ProblemFlags struct {
	TFG   string
	Topo  string
	BW    float64
	TauIn float64
	Speed float64
	Alloc string
	Seed  int64

	FailLink string
	FailNode int
	hasFault bool
}

// AddProblemFlags registers the common problem flags (-tfg, -topo,
// -bw, -tauin, -speed, -alloc, -seed) on fs with the defaults every
// tool has always used.
func AddProblemFlags(fs *flag.FlagSet) *ProblemFlags {
	f := &ProblemFlags{FailNode: -1}
	fs.StringVar(&f.TFG, "tfg", "dvb:4", "TFG: dvb:N, chain:N, fan:N, fft:N, stencil:N, layered:seed,widths...,density or a JSON file")
	fs.StringVar(&f.Topo, "topo", "cube:6", "topology: cube:D, ghc:..., torus:..., mesh:...")
	fs.Float64Var(&f.BW, "bw", 64, "link bandwidth in bytes/µs")
	fs.Float64Var(&f.TauIn, "tauin", 0, "invocation period in µs (0 = τc, maximum load)")
	fs.Float64Var(&f.Speed, "speed", 0, "processor speed in ops/µs (0 = uniform τc=50µs tasks)")
	fs.StringVar(&f.Alloc, "alloc", "rr", "task allocator: rr, greedy, random or anneal")
	fs.Int64Var(&f.Seed, "seed", 1, "seed for AssignPaths and random allocation")
	return f
}

// AddFaultFlags registers the fault flags (-fail-link, -fail-node) for
// tools that repair schedules.
func (f *ProblemFlags) AddFaultFlags(fs *flag.FlagSet) {
	f.hasFault = true
	fs.StringVar(&f.FailLink, "fail-link", "", "repair the schedule for a failed link, given as the node pair u-v")
	fs.IntVar(&f.FailNode, "fail-node", -1, "repair the schedule for a failed node")
}

// Spec returns the wire-form problem the flags describe — the same
// schedroute.Problem a service client would POST. A -tfg naming a file
// (no colon) is read here into tfg_inline, so local and remote modes
// alike hand over the graph, not a name on this machine's disk.
func (f *ProblemFlags) Spec() (schedroute.Problem, error) {
	p := schedroute.Problem{
		TFG: f.TFG, Topology: f.Topo, Bandwidth: f.BW, Speed: f.Speed,
		TauIn: f.TauIn, Allocator: f.Alloc, AllocSeed: f.Seed,
	}
	if !strings.Contains(f.TFG, ":") {
		raw, err := os.ReadFile(f.TFG)
		if err != nil {
			return p, errkind.Mark(err, errkind.ErrBadInput)
		}
		p.TFG, p.TFGInline = "", raw
	}
	return p, nil
}

// FaultSpec returns the wire form of the fault flags (empty when no
// fault was requested).
func (f *ProblemFlags) FaultSpec() schedroute.FaultSpec {
	var spec schedroute.FaultSpec
	if f.FailLink != "" {
		spec.Links = []string{f.FailLink}
	}
	if f.FailNode >= 0 {
		spec.Nodes = []int{f.FailNode}
	}
	return spec
}

// ParseProblem resolves the flags into the built problem (graph,
// timing, topology, placement, resolved τin) and, when fault flags were
// registered and set, the fault set to repair for.
func (f *ProblemFlags) ParseProblem() (*schedroute.Built, *topology.FaultSet, error) {
	spec, err := f.Spec()
	if err != nil {
		return nil, nil, err
	}
	b, err := schedroute.NewProblem(spec)
	if err != nil {
		return nil, nil, err
	}
	var fs *topology.FaultSet
	if f.hasFault {
		fs, err = f.FaultSpec().Build(b.Topology)
		if err != nil {
			return nil, nil, err
		}
	}
	return b, fs, nil
}

// ParseExploreSpec resolves the exploration flags `srsched -explore` and
// `experiments -fig pareto` share — -grid-points and the comma-separated
// -anneal-seeds and -objectives — into an ExploreSpec. An empty list
// leaves its field to the caller's default; a malformed entry is an
// errkind.ErrBadInput.
func ParseExploreSpec(gridPoints int, annealSeeds, objectives string) (schedule.ExploreSpec, error) {
	spec := schedule.ExploreSpec{GridPoints: gridPoints}
	if annealSeeds != "" {
		for _, tok := range strings.Split(annealSeeds, ",") {
			seed, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				return spec, errkind.BadInput("bad -anneal-seeds entry %q: %v", tok, err)
			}
			spec.AnnealSeeds = append(spec.AnnealSeeds, seed)
		}
	}
	if objectives != "" {
		obs, err := schedule.ParseObjectives(strings.Split(objectives, ","))
		if err != nil {
			return spec, errkind.Mark(err, errkind.ErrBadInput)
		}
		spec.Objectives = obs
	}
	return spec, nil
}
