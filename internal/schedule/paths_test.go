package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"schedroute/internal/alloc"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// routeCase is a random placement of a small layered graph on one
// machine, tasks free to share a node, with its windows' Local flags and
// a seeded fault set: a few failed links and, now and then, a failed
// node.
type routeCase struct {
	name string
	top  *topology.Topology
	g    *tfg.Graph
	as   *alloc.Assignment
	ws   []Window
	fs   *topology.FaultSet
}

// routeCases draws seeds cases on each of cube:4, torus:4,4, ghc:3,3
// and mesh:3,4.
func routeCases(t *testing.T, seeds int) []routeCase {
	t.Helper()
	var tops []*topology.Topology
	for _, build := range []func() (*topology.Topology, error){
		func() (*topology.Topology, error) { return topology.NewHypercube(4) },
		func() (*topology.Topology, error) { return topology.NewTorus(4, 4) },
		func() (*topology.Topology, error) { return topology.NewGHC(3, 3) },
		func() (*topology.Topology, error) { return topology.NewMesh(3, 4) },
	} {
		top, err := build()
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	var out []routeCase
	for _, top := range tops {
		for seed := int64(0); seed < int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			g, err := tfg.RandomLayered(seed, []int{4, 5, 4, 3}, 1, 10, 1, 10, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			as := &alloc.Assignment{NodeOf: make([]topology.NodeID, g.NumTasks())}
			for i := range as.NodeOf {
				as.NodeOf[i] = topology.NodeID(rng.Intn(top.Nodes()))
			}
			ws := make([]Window, g.NumMessages())
			for i := range ws {
				m := g.Message(tfg.MessageID(i))
				ws[i].Local = as.Node(m.Src) == as.Node(m.Dst)
			}
			fs := topology.NewFaultSet()
			for range 1 + rng.Intn(3) {
				fs.FailLink(topology.LinkID(rng.Intn(top.Links())))
			}
			if rng.Intn(4) == 0 {
				fs.FailNode(topology.NodeID(rng.Intn(top.Nodes())))
			}
			out = append(out, routeCase{fmt.Sprintf("%v seed %d %v", top, seed, fs), top, g, as, ws, fs})
		}
	}
	return out
}

// TestFaultRouteAssignmentMatchesRouteAround holds the LSD baseline to a
// per-message reference, topology.RouteAround and Path.Links, with and
// without the case's faults, and with windows that route every message,
// even one whose tasks share a node: the same path and links for every
// message, every row capped at its length, and where a message's
// endpoints are cut apart, an error naming the first such message.
func TestFaultRouteAssignmentMatchesRouteAround(t *testing.T) {
	blocked := 0
	for _, c := range routeCases(t, 25) {
		for _, run := range []struct {
			ws []Window
			fs *topology.FaultSet
		}{{c.ws, nil}, {c.ws, c.fs}, {make([]Window, len(c.ws)), c.fs}} {
			ws, fs := run.ws, run.fs
			got, err := FaultRouteAssignment(c.g, c.top, c.as, ws, fs)
			for i := range ws {
				if ws[i].Local {
					if err == nil && (got.Paths[i].Nodes != nil || got.Links[i] != nil) {
						t.Fatalf("%s: local message %d routed", c.name, i)
					}
					continue
				}
				m := c.g.Message(tfg.MessageID(i))
				src, dst := c.as.Node(m.Src), c.as.Node(m.Dst)
				want, werr := c.top.RouteAround(src, dst, fs)
				if werr != nil {
					var nr *topology.NoRouteError
					if !errors.As(err, &nr) || !strings.Contains(err.Error(), fmt.Sprintf("message %d:", i)) {
						t.Fatalf("%s: message %d has no route (%v), FaultRouteAssignment returned %v", c.name, i, werr, err)
					}
					break
				}
				if err != nil {
					continue // a later message has no route
				}
				links, lerr := want.Links(c.top)
				if lerr != nil {
					t.Fatal(lerr)
				}
				if !fs.Survives(c.top, src, c.top.AppendLSDLinks(nil, src, dst)) {
					blocked++
				}
				if !slices.Equal(got.Paths[i].Nodes, want.Nodes) || !slices.Equal(got.Links[i], links) {
					t.Fatalf("%s: message %d routed %v over %v, RouteAround %v over %v", c.name, i, got.Paths[i], got.Links[i], want, links)
				}
				if n := got.Paths[i].Nodes; len(n) != cap(n) || len(got.Links[i]) != cap(got.Links[i]) {
					t.Fatalf("%s: message %d: rows of length %d and %d have capacities %d and %d", c.name, i, len(n), len(got.Links[i]), cap(n), cap(got.Links[i]))
				}
			}
		}
	}
	// A routed message whose tasks share a dead node has no route,
	// though its path crosses no link.
	for _, c := range routeCases(t, 5) {
		for i := range c.ws {
			if !c.ws[i].Local {
				continue
			}
			ws := make([]Window, len(c.ws))
			for j := range ws {
				ws[j].Local = j != i
			}
			fs := topology.NewFaultSet()
			fs.FailNode(c.as.Node(c.g.Message(tfg.MessageID(i)).Src))
			var nr *topology.NoRouteError
			if _, err := FaultRouteAssignment(c.g, c.top, c.as, ws, fs); !errors.As(err, &nr) {
				t.Fatalf("%s: message %d on dead node %v: %v, want a NoRouteError", c.name, i, fs, err)
			}
			break
		}
	}
	if blocked == 0 {
		t.Fatal("no fault blocked an LSD path; the cases test nothing of the detour")
	}
	t.Logf("%d LSD paths blocked", blocked)
}

// TestCandidatesAreTheMemoRows: BuildCandidatesFault hands out the route
// memo's own rows, the arrays SurvivingRoutes returns, not copies of
// them, with and without faults, at two MaxPaths.
func TestCandidatesAreTheMemoRows(t *testing.T) {
	for _, c := range routeCases(t, 10) {
		for _, fs := range []*topology.FaultSet{nil, c.fs} {
			for _, maxPaths := range []int{3, 24} {
				cands, err := BuildCandidatesFault(c.g, c.top, c.as, c.ws, maxPaths, fs)
				for i := range c.ws {
					if c.ws[i].Local {
						continue
					}
					m := c.g.Message(tfg.MessageID(i))
					paths, links, werr := c.top.SurvivingRoutes(c.as.Node(m.Src), c.as.Node(m.Dst), maxPaths, fs)
					if werr != nil {
						if err == nil {
							t.Fatalf("%s: message %d has no route (%v), BuildCandidatesFault returned no error", c.name, i, werr)
						}
						break
					}
					if err != nil {
						continue // a later message has no route
					}
					if unsafe.SliceData(cands.PathsOf[i]) != unsafe.SliceData(paths) || unsafe.SliceData(cands.LinksOf[i]) != unsafe.SliceData(links) ||
						len(cands.PathsOf[i]) != len(paths) || len(cands.LinksOf[i]) != len(links) {
						t.Fatalf("%s max %d: message %d's candidates are not the memo's rows", c.name, maxPaths, i)
					}
				}
			}
		}
	}
}

// TestRouteBuildsAllocatePerStage pins what the LSD baseline and a
// candidate build over a warm route memo allocate: the same handful of
// arrays at 29 messages and at 281, around faults and without.
func TestRouteBuildsAllocatePerStage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race include the detector's")
	}
	top, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs := topology.NewFaultSet()
	fs.FailLink(0)
	fs.FailLink(77)
	counts := map[string]float64{}
	for _, widths := range [][]int{{4, 8, 4}, {8, 16, 16, 16, 8}} {
		g, err := tfg.RandomLayered(1, widths, 1, 10, 1, 10, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		as, err := alloc.Random(g, top, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]Window, g.NumMessages())
		for _, f := range []*topology.FaultSet{nil, fs} {
			lsd := testing.AllocsPerRun(5, func() {
				if _, err := FaultRouteAssignment(g, top, as, ws, f); err != nil {
					t.Fatal(err)
				}
			})
			cands := testing.AllocsPerRun(5, func() {
				if _, err := BuildCandidatesFault(g, top, as, ws, 24, f); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d messages, faults %v: LSD baseline %v allocations, candidates %v", g.NumMessages(), f, lsd, cands)
			for key, n := range map[string]float64{fmt.Sprintf("lsd %v", f): lsd, fmt.Sprintf("cands %v", f): cands} {
				if n > 5 {
					t.Errorf("%s at %d messages: %v allocations, more than 5", key, g.NumMessages(), n)
				}
				if prev, ok := counts[key]; ok && prev != n {
					t.Errorf("%s: %v allocations at %d messages, %v at fewer", key, n, g.NumMessages(), prev)
				}
				counts[key] = n
			}
		}
	}
}
