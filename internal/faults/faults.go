// Package faults generates deterministic fault scenarios for the
// robustness layer: which links or nodes die, at which invocation, and
// when (if ever) they return to service. Scenario generation is seeded
// and reproducible, so survivability sweeps are byte-identical across
// runs and across serial/parallel execution.
//
// A scenario is a trace of fault events against invocation indices; at
// any invocation it induces a topology.FaultSet, which the scheduler's
// repair pipeline and the packet simulator's mid-run injection consume.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"schedroute/internal/topology"
)

// Event is one element failure in a trace: the element dies at the
// start of invocation At and returns to service at the start of
// invocation RepairedAt (RepairedAt < 0 means it never does).
type Event struct {
	// IsNode selects which element identifier is meaningful.
	IsNode bool
	Link   topology.LinkID
	Node   topology.NodeID
	// At is the invocation index at which the element fails.
	At int
	// RepairedAt is the invocation at which the element is back in
	// service; negative means the fault is permanent.
	RepairedAt int
}

// String renders the event, e.g. "link 3 @inv 2 (permanent)".
func (e Event) String() string {
	kind := fmt.Sprintf("link %d", e.Link)
	if e.IsNode {
		kind = fmt.Sprintf("node %d", e.Node)
	}
	if e.RepairedAt < 0 {
		return fmt.Sprintf("%s @inv %d (permanent)", kind, e.At)
	}
	return fmt.Sprintf("%s @inv %d (repaired @inv %d)", kind, e.At, e.RepairedAt)
}

// Trace is a named fault scenario.
type Trace struct {
	Name   string
	Events []Event
}

// InvalidTraceError reports a malformed scenario: negative times,
// repair-at-or-before-fail orderings, or events out of At order. Index
// names the offending event (the later one for ordering violations).
type InvalidTraceError struct {
	Trace  string
	Index  int
	Event  Event
	Reason string
}

func (e *InvalidTraceError) Error() string {
	return fmt.Sprintf("faults: trace %q event %d (%s): %s", e.Trace, e.Index, e.Event, e.Reason)
}

// Validate rejects malformed scenarios with a typed *InvalidTraceError
// instead of letting them silently produce nonsense fault sets:
//
//   - fault or repair times must be non-negative (RepairedAt < 0 is the
//     explicit "permanent" marker, any other negative value is an error);
//   - a transient fault must be repaired strictly after it strikes
//     (ActiveAt treats RepairedAt <= inv as back in service, so
//     RepairedAt <= At would be a fault that never existed);
//   - events must be sorted by non-decreasing At, the order every
//     generator in this package emits and every replayer assumes.
func (tr *Trace) Validate() error {
	for i, e := range tr.Events {
		fail := func(reason string) error {
			return &InvalidTraceError{Trace: tr.Name, Index: i, Event: e, Reason: reason}
		}
		if e.At < 0 {
			return fail("negative fault time")
		}
		if e.RepairedAt < -1 {
			return fail("negative repair time (use -1 for permanent)")
		}
		if e.RepairedAt >= 0 && e.RepairedAt <= e.At {
			return fail("repaired at or before the fault strikes")
		}
		if i > 0 && e.At < tr.Events[i-1].At {
			return fail("events not sorted by fault time")
		}
	}
	return nil
}

// Delta is the change to the fault population at one invocation epoch:
// the elements failing and the elements returning to service. This is
// the event-stream form of a trace — what a scenario replayer pushes
// at a /v1/watch subscription, one Delta per epoch.
type Delta struct {
	// Inv is the invocation index at which the change takes effect.
	Inv int
	// Fail lists the events whose element dies at this epoch.
	Fail []Event
	// Repair lists the events whose element returns at this epoch.
	Repair []Event
}

// Deltas converts the trace into its event-stream form over [0,
// horizon): one Delta per epoch, in invocation order. Applying the
// deltas cumulatively to an empty fault set reproduces ActiveAt at
// every epoch. The trace must be valid (see Validate).
func (tr *Trace) Deltas(horizon int) ([]Delta, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	out := make([]Delta, 0, len(tr.Events))
	for _, inv := range tr.Epochs(horizon) {
		d := Delta{Inv: inv}
		for _, e := range tr.Events {
			if e.At == inv {
				d.Fail = append(d.Fail, e)
			}
			if e.RepairedAt == inv {
				d.Repair = append(d.Repair, e)
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// ActiveAt returns the fault set in force during invocation inv: every
// event that has struck (At <= inv) and not yet been repaired
// (RepairedAt < 0 or RepairedAt > inv). The returned set is freshly
// built; callers own it.
func (tr *Trace) ActiveAt(top *topology.Topology, inv int) *topology.FaultSet {
	fs := topology.NewFaultSet(top.Links(), top.Nodes())
	for _, e := range tr.Events {
		if e.At > inv || (e.RepairedAt >= 0 && e.RepairedAt <= inv) {
			continue
		}
		if e.IsNode {
			fs.FailNode(e.Node)
		} else {
			fs.FailLink(e.Link)
		}
	}
	return fs
}

// Epochs returns the sorted invocation indices in [0, horizon) at which
// the active fault set changes — the points where a repair pipeline
// must produce a new Ω.
func (tr *Trace) Epochs(horizon int) []int {
	seen := map[int]bool{}
	for _, e := range tr.Events {
		if e.At >= 0 && e.At < horizon {
			seen[e.At] = true
		}
		if e.RepairedAt >= 0 && e.RepairedAt < horizon {
			seen[e.RepairedAt] = true
		}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// SingleLink enumerates one permanent single-link-fault scenario per
// link of the topology, striking at invocation failAt. This is the
// exhaustive population the survivability sweep measures.
func SingleLink(top *topology.Topology, failAt int) []Trace {
	out := make([]Trace, top.Links())
	for l := 0; l < top.Links(); l++ {
		lk := top.Link(topology.LinkID(l))
		out[l] = Trace{
			Name: fmt.Sprintf("link%d(%d-%d)", l, lk.A, lk.B),
			Events: []Event{{
				Link: topology.LinkID(l), At: failAt, RepairedAt: -1,
			}},
		}
	}
	return out
}

// RandomOptions tunes RandomTrace.
type RandomOptions struct {
	// Events is the number of fault events to draw (default 3).
	Events int
	// Horizon is the invocation range [0, Horizon) fault times are drawn
	// from (default 8).
	Horizon int
	// NodeFraction in [0,1] is the probability an event kills a node
	// rather than a link (default 0: links only).
	NodeFraction float64
	// RepairFraction in [0,1] is the probability a fault is transient,
	// repaired after a uniform 1..Horizon/2 invocations (default 0:
	// permanent faults).
	RepairFraction float64
}

func (o RandomOptions) withDefaults() RandomOptions {
	if o.Events == 0 {
		o.Events = 3
	}
	if o.Horizon == 0 {
		o.Horizon = 8
	}
	return o
}

// RandomTrace draws a fail-at-invocation-k trace with optional repair
// times, deterministic per seed. Distinct elements are drawn without
// replacement so a trace never fails the same element twice.
func RandomTrace(top *topology.Topology, seed int64, opts RandomOptions) Trace {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	usedLink := map[topology.LinkID]bool{}
	usedNode := map[topology.NodeID]bool{}
	tr := Trace{Name: fmt.Sprintf("random(seed=%d)", seed)}
	for len(tr.Events) < o.Events {
		e := Event{At: rng.Intn(o.Horizon), RepairedAt: -1}
		if rng.Float64() < o.NodeFraction {
			n := topology.NodeID(rng.Intn(top.Nodes()))
			if usedNode[n] {
				continue
			}
			usedNode[n] = true
			e.IsNode, e.Node = true, n
		} else {
			l := topology.LinkID(rng.Intn(top.Links()))
			if usedLink[l] {
				continue
			}
			usedLink[l] = true
			e.Link = l
		}
		if o.RepairFraction > 0 && rng.Float64() < o.RepairFraction {
			span := o.Horizon / 2
			if span < 1 {
				span = 1
			}
			e.RepairedAt = e.At + 1 + rng.Intn(span)
		}
		tr.Events = append(tr.Events, e)
	}
	sort.SliceStable(tr.Events, func(a, b int) bool { return tr.Events[a].At < tr.Events[b].At })
	return tr
}
