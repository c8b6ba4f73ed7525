package faults

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"schedroute/internal/topology"
)

func cube(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestSingleLinkCoversEveryLink(t *testing.T) {
	top := cube(t)
	trs := SingleLink(top, 2)
	if len(trs) != top.Links() {
		t.Fatalf("%d scenarios for %d links", len(trs), top.Links())
	}
	seen := map[topology.LinkID]bool{}
	for _, tr := range trs {
		if len(tr.Events) != 1 || tr.Events[0].IsNode {
			t.Fatalf("scenario %s malformed", tr.Name)
		}
		e := tr.Events[0]
		if e.At != 2 || e.RepairedAt >= 0 {
			t.Errorf("scenario %s: want permanent fault at invocation 2, got %s", tr.Name, e)
		}
		seen[e.Link] = true
	}
	if len(seen) != top.Links() {
		t.Errorf("scenarios cover %d distinct links, want %d", len(seen), top.Links())
	}
}

func TestActiveAtWindows(t *testing.T) {
	top := cube(t)
	tr := Trace{Events: []Event{
		{Link: 0, At: 2, RepairedAt: 5},
		{IsNode: true, Node: 3, At: 4, RepairedAt: -1},
	}}
	cases := []struct {
		inv        int
		link, node bool
	}{
		{0, false, false},
		{2, true, false},
		{4, true, true},
		{5, false, true},
		{9, false, true},
	}
	for _, c := range cases {
		fs := tr.ActiveAt(top, c.inv)
		if fs.LinkFailed(0) != c.link || fs.NodeFailed(3) != c.node {
			t.Errorf("inv %d: link=%v node=%v, want link=%v node=%v",
				c.inv, fs.LinkFailed(0), fs.NodeFailed(3), c.link, c.node)
		}
	}
	if got, want := tr.Epochs(10), []int{2, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Epochs = %v, want %v", got, want)
	}
	if got := tr.Epochs(4); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("Epochs(4) = %v, want [2]", got)
	}
}

func TestRandomTraceDeterministic(t *testing.T) {
	top := cube(t)
	opts := RandomOptions{Events: 5, Horizon: 6, NodeFraction: 0.3, RepairFraction: 0.5}
	a := RandomTrace(top, 42, opts)
	b := RandomTrace(top, 42, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give the same trace")
	}
	if len(a.Events) != 5 {
		t.Fatalf("%d events, want 5", len(a.Events))
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Error("events must be sorted by failure time")
		}
	}
	for _, e := range a.Events {
		if e.RepairedAt >= 0 && e.RepairedAt <= e.At {
			t.Errorf("event %s repaired before it fails", e)
		}
	}
}

// TestValidateMalformedTraces table-tests every malformed shape
// Validate must reject with a typed *InvalidTraceError.
func TestValidateMalformedTraces(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		bad    int    // expected offending index, -1 for a valid trace
		reason string // substring of the expected reason
	}{
		{"valid permanent", []Event{{Link: 1, At: 2, RepairedAt: -1}}, -1, ""},
		{"valid transient", []Event{{Link: 1, At: 2, RepairedAt: 5}}, -1, ""},
		{"valid sorted pair", []Event{
			{Link: 1, At: 0, RepairedAt: -1}, {Link: 2, At: 3, RepairedAt: 4}}, -1, ""},
		{"empty", nil, -1, ""},
		{"negative fault time", []Event{{Link: 1, At: -3, RepairedAt: -1}}, 0, "negative fault time"},
		{"negative repair time", []Event{{Link: 1, At: 0, RepairedAt: -2}}, 0, "negative repair time"},
		{"repair before fail", []Event{{Link: 1, At: 5, RepairedAt: 3}}, 0, "repaired at or before"},
		{"repair at fail instant", []Event{{Link: 1, At: 5, RepairedAt: 5}}, 0, "repaired at or before"},
		{"unsorted", []Event{
			{Link: 1, At: 4, RepairedAt: -1}, {Link: 2, At: 1, RepairedAt: -1}}, 1, "not sorted"},
		{"second event negative", []Event{
			{Link: 1, At: 0, RepairedAt: -1}, {Node: 2, IsNode: true, At: -1, RepairedAt: -1}}, 1, "negative fault time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := Trace{Name: tc.name, Events: tc.events}
			err := tr.Validate()
			if tc.bad < 0 {
				if err != nil {
					t.Fatalf("valid trace rejected: %v", err)
				}
				return
			}
			var ite *InvalidTraceError
			if !errors.As(err, &ite) {
				t.Fatalf("want *InvalidTraceError, got %v", err)
			}
			if ite.Index != tc.bad {
				t.Fatalf("offending index %d, want %d (%v)", ite.Index, tc.bad, err)
			}
			if !strings.Contains(ite.Reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", ite.Reason, tc.reason)
			}
		})
	}
}

// TestDeltasReproduceActiveAt replays a seeded transient trace as an
// event stream and checks the cumulative fault set against ActiveAt at
// every epoch — the contract the watch-service scenario replayer
// leans on.
func TestDeltasReproduceActiveAt(t *testing.T) {
	top := cube(t)
	tr := RandomTrace(top, 7, RandomOptions{Events: 5, Horizon: 10, RepairFraction: 0.6, NodeFraction: 0.2})
	const horizon = 16
	ds, err := tr.Deltas(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("no deltas from a 5-event trace")
	}
	fs := topology.NewFaultSet(top.Links(), top.Nodes())
	last := -1
	for _, d := range ds {
		if d.Inv <= last {
			t.Fatalf("deltas out of order: %d after %d", d.Inv, last)
		}
		last = d.Inv
		for _, e := range d.Fail {
			if e.IsNode {
				fs.FailNode(e.Node)
			} else {
				fs.FailLink(e.Link)
			}
		}
		for _, e := range d.Repair {
			if e.IsNode {
				fs.RepairNode(e.Node)
			} else {
				fs.RepairLink(e.Link)
			}
		}
		want := tr.ActiveAt(top, d.Inv)
		if fs.String() != want.String() {
			t.Fatalf("epoch %d: cumulative deltas give %s, ActiveAt gives %s", d.Inv, fs, want)
		}
	}
}

// TestDeltasRejectInvalid: the replayer refuses malformed traces
// rather than replaying nonsense.
func TestDeltasRejectInvalid(t *testing.T) {
	tr := Trace{Name: "bad", Events: []Event{{Link: 0, At: 3, RepairedAt: 1}}}
	if _, err := tr.Deltas(8); err == nil {
		t.Fatal("Deltas accepted a repair-before-fail trace")
	}
}
