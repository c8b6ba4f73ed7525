package topology

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestFaultSetBasics(t *testing.T) {
	fs := NewFaultSet(10, 8)
	if !fs.Empty() {
		t.Fatal("new set should be empty")
	}
	fs.FailLink(3)
	fs.FailNode(5)
	if fs.Empty() || !fs.LinkFailed(3) || !fs.NodeFailed(5) {
		t.Fatal("failures not recorded")
	}
	if fs.LinkFailed(4) || fs.NodeFailed(4) {
		t.Fatal("phantom failures")
	}
	if fs.NumFailedLinks() != 1 {
		t.Fatalf("%d failed links, want 1", fs.NumFailedLinks())
	}
	if got := fs.String(); got != "faults{links:3 nodes:5}" {
		t.Errorf("String = %q", got)
	}
	fs.RepairLink(3)
	fs.RepairNode(5)
	if !fs.Empty() {
		t.Fatal("repair did not empty the set")
	}
	// Nil receiver means "no faults" everywhere.
	var nilFS *FaultSet
	if !nilFS.Empty() || nilFS.LinkFailed(0) || nilFS.NodeFailed(0) {
		t.Error("nil fault set must be empty")
	}
}

func TestFaultSetLinkUsable(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := top.LinkBetween(0, 1)
	if !ok {
		t.Fatal("0-1 must be adjacent")
	}
	fs := NewFaultSet(top.Links(), top.Nodes())
	if !fs.LinkUsable(top, l) {
		t.Fatal("healthy link unusable")
	}
	fs.FailNode(1)
	if fs.LinkUsable(top, l) {
		t.Error("link incident on a dead node must be unusable")
	}
	if fs.LinkFailed(l) {
		t.Error("node fault must not mark the link itself failed")
	}
}

func TestSurvivingPathsRoutesAroundLinkFault(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 1 is a single-hop LSD route; fail that link and the
	// survivors must be 3-hop detours (hypercube parity) that avoid it.
	l, _ := top.LinkBetween(0, 1)
	fs := NewFaultSet(top.Links(), top.Nodes())
	fs.FailLink(l)
	paths, err := top.SurvivingPaths(0, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no surviving paths in a 3-cube with one dead link")
	}
	for _, p := range paths {
		if p.Hops() != 3 {
			t.Errorf("path %s: want a 3-hop detour", p)
		}
		if err := p.ValidateFault(top, fs); err != nil {
			t.Errorf("path %s crosses the fault: %v", p, err)
		}
	}
	// Determinism: a second enumeration (now cached) is identical.
	again, err := top.SurvivingPaths(0, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(paths) {
		t.Fatalf("cached enumeration size changed: %d vs %d", len(again), len(paths))
	}
	for i := range again {
		if !again[i].Equal(paths[i]) {
			t.Errorf("cached path %d differs: %s vs %s", i, again[i], paths[i])
		}
	}
}

func TestSurvivingPathsCacheInvalidatesOnEpoch(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet(top.Links(), top.Nodes())
	l01, _ := top.LinkBetween(0, 1)
	fs.FailLink(l01)
	withFault, err := top.SurvivingPaths(0, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	fs.RepairLink(l01)
	repaired, err := top.SurvivingPaths(0, 1, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) == len(withFault) && repaired[0].Hops() == withFault[0].Hops() {
		t.Errorf("repair must change the enumeration: %d 2-hop detours vs direct link", len(withFault))
	}
	if repaired[0].Hops() != 1 {
		t.Errorf("after repair the direct link should return: got %s", repaired[0])
	}
}

func TestSurvivingPathsNodeFault(t *testing.T) {
	top, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet(top.Links(), top.Nodes())
	fs.FailNode(1)
	// 0 -> 2 along dimension 0 normally passes node 1; survivors must
	// detour around it.
	paths, err := top.SurvivingPaths(0, 2, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		for _, n := range p.Nodes {
			if n == 1 {
				t.Errorf("path %s visits the dead node", p)
			}
		}
	}
	// Dead endpoints are unroutable.
	if _, err := top.SurvivingPaths(1, 2, 0, fs); err == nil {
		t.Error("dead source must be unroutable")
	} else {
		var nre *NoRouteError
		if !errors.As(err, &nre) {
			t.Errorf("want *NoRouteError, got %T", err)
		}
	}
}

func TestSurvivingPathsNonMinimalDetour(t *testing.T) {
	// On a 4x1... use a 4-ring (torus:4): 0 -> 1 direct, or 3 hops the
	// long way. Failing 0-1 leaves only the non-minimal detour.
	top, err := NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := top.LinkBetween(0, 1)
	if !ok {
		t.Fatal("0-1 must be adjacent")
	}
	fs := NewFaultSet(top.Links(), top.Nodes())
	fs.FailLink(l)
	p, err := top.RouteAround(0, 1, fs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() <= top.Distance(0, 1) {
		t.Errorf("surviving distance %d must exceed fault-free distance %d", p.Hops(), top.Distance(0, 1))
	}
	if err := p.ValidateFault(top, fs); err != nil {
		t.Errorf("RouteAround crosses the fault: %v", err)
	}
}

func TestRouteAroundPrefersLSD(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet(top.Links(), top.Nodes())
	// Fail a link unrelated to the 0 -> 3 LSD route (0->1->3).
	l, _ := top.LinkBetween(4, 5)
	fs.FailLink(l)
	p, err := top.RouteAround(0, 3, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(top.LSDToMSD(0, 3)) {
		t.Errorf("unaffected LSD route must be kept: got %s", p)
	}
}

func TestValidateFaultNamesFailedElement(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	p := top.LSDToMSD(0, 3) // 0 -> 1 -> 3
	links, err := p.Links(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("LSD route 0->3 should have 2 hops, got %d", len(links))
	}

	fs := NewFaultSet(top.Links(), top.Nodes())
	fs.FailLink(links[1])
	err = p.ValidateFault(top, fs)
	if err == nil {
		t.Fatal("path across failed link must not validate")
	}
	if want := fmt.Sprintf("link %d", links[1]); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}

	fs2 := NewFaultSet(top.Links(), top.Nodes())
	fs2.FailNode(1)
	err = p.ValidateFault(top, fs2)
	if err == nil {
		t.Fatal("path across failed node must not validate")
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Errorf("error must name the failed node: %v", err)
	}

	// Path.Links is fault-oblivious (it resolves adjacency only): the
	// links still resolve, and validation is what rejects them.
	if _, err := p.Links(top); err != nil {
		t.Errorf("Links must still resolve on a degraded topology: %v", err)
	}
	// And a clean path still validates under the fault set.
	q := Path{Nodes: []NodeID{4, 5}}
	if err := q.ValidateFault(top, fs2); err != nil {
		t.Errorf("fault-free path rejected: %v", err)
	}
}

func TestParseLinkSpec(t *testing.T) {
	top, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	l, err := top.ParseLinkSpec("0-1")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := top.LinkBetween(0, 1)
	if l != want {
		t.Errorf("got link %d want %d", l, want)
	}
	for _, bad := range []string{"", "0", "0-9", "0-3", "x-1", "0-x", "-1-2"} {
		if _, err := top.ParseLinkSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}
