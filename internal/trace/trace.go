// Package trace is the solve-pipeline span tracer: a zero-dependency,
// allocation-conscious tree of timed spans threaded through
// schedule.Solver.Solve, schedule.Repair, the experiment sweeps, and
// the srschedd request path.
//
// The enabled/disabled story is a nil check: every method is safe on a
// nil *Span and does nothing, so instrumented code calls
// `sp := parent.Start("stage")` unconditionally and a disabled pipeline
// (nil parent) pays one nil-receiver call per span site — no
// allocations, no clock reads, no locks.
//
// A finished span hierarchy is snapshotted into a Tree: a plain,
// JSON-taggable value with parent-relative start offsets, carried on
// schedule.Result, attached to service responses under ?debug=trace,
// rendered by `srsched -trace`, and exported as Chrome trace_event
// JSON by cmd/traceview.
//
// Concurrency: a Span's child list and attributes are mutex-guarded,
// so concurrent Start/SetAttrs/End on one span are safe (the
// determinism suite runs traced sweeps under -race). Child order is
// creation order; fan-out callers that need a deterministic tree
// pre-create their per-item spans serially in index order and hand one
// to each worker — see experiments.UtilizationSweep.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one small typed span attribute (stage inputs and outcomes:
// tau_in, candidate index, repair rung, links rerouted, ...).
type Attr struct {
	Key string `json:"key"`
	// Kind discriminates the value: "str", "int", "float" or "bool".
	Kind  string  `json:"kind"`
	Str   string  `json:"str,omitempty"`
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Kind: "str", Str: v} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Kind: "int", Int: int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(key string, v int64) Attr { return Attr{Key: key, Kind: "int", Int: v} }

// Float64 builds a floating-point attribute.
func Float64(key string, v float64) Attr { return Attr{Key: key, Kind: "float", Float: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, Kind: "bool"}
	if v {
		a.Int = 1
	}
	return a
}

// Value returns the attribute's dynamic value.
func (a Attr) Value() any {
	switch a.Kind {
	case "int":
		return a.Int
	case "float":
		return a.Float
	case "bool":
		return a.Int != 0
	default:
		return a.Str
	}
}

// nonFinite returns the wire form of a float encoding/json refuses to
// write as a number — "+Inf", "-Inf" or "NaN" — and whether v is one.
func nonFinite(v float64) (string, bool) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return strconv.FormatFloat(v, 'g', -1, 64), true
	}
	return "", false
}

// MarshalJSON writes the attribute as its tagged fields, except that a
// non-finite float travels as a string (a peak utilization over a link
// with no capacity left is +Inf, and one such attribute must not cost
// the response its whole trace).
func (a Attr) MarshalJSON() ([]byte, error) {
	type fields Attr
	s, ok := nonFinite(a.Float)
	if !ok {
		return json.Marshal(fields(a))
	}
	return json.Marshal(struct {
		fields
		Float string `json:"float"`
	}{fields(a), s})
}

// UnmarshalJSON reads what MarshalJSON writes.
func (a *Attr) UnmarshalJSON(b []byte) error {
	type fields Attr
	var w struct {
		fields
		Float json.RawMessage `json:"float"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*a = Attr(w.fields)
	if len(w.Float) == 0 {
		return nil
	}
	var s string
	if json.Unmarshal(w.Float, &s) != nil {
		return json.Unmarshal(w.Float, &a.Float)
	}
	v, err := strconv.ParseFloat(s, 64)
	if _, ok := nonFinite(v); err != nil || !ok {
		return fmt.Errorf("trace: attribute %q: float %q is not +Inf, -Inf or NaN", a.Key, s)
	}
	a.Float = v
	return nil
}

// Format renders the attribute as "key=value".
func (a Attr) Format() string { return fmt.Sprintf("%s=%v", a.Key, a.Value()) }

// Span is one live node of the trace. The zero value is not used;
// create roots with Start and children with (*Span).Start. A nil *Span
// is the disabled tracer: every method no-ops.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
	// adopted marks a pre-built subtree grafted with Adopt (a coalesced
	// flight's solve tree attached under a request span).
	adopted *Tree
}

// Start begins a new root span.
func Start(name string, attrs ...Attr) *Span {
	return &Span{name: name, start: time.Now(), attrs: attrs}
}

// Start begins a child span. Safe (and free) on a nil receiver.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), attrs: attrs}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End finishes the span. The first End wins; later calls (and a
// snapshot of a span never ended) keep the recorded time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttrs appends attributes to the span (stage outcomes recorded
// after the work ran).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Adopt grafts a pre-built Tree as a child, in creation order with the
// span's own children. The service uses it to attach a coalesced
// solve's tree — computed once, shared by every joined request — under
// each request's own span; the adopted tree's offsets stay relative to
// its original root (the flight may have started before this request).
func (s *Span) Adopt(t *Tree) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, &Span{name: t.Name, adopted: t})
	s.mu.Unlock()
}

// Enabled reports whether the span records anything (false exactly for
// the nil disabled tracer).
func (s *Span) Enabled() bool { return s != nil }

// Tree snapshots the span and its descendants. Spans not yet ended are
// measured up to the snapshot instant. Returns nil on a nil receiver,
// so `res.Trace = span.Tree()` is safe either way.
func (s *Span) Tree() *Tree {
	if s == nil {
		return nil
	}
	return s.tree(s.start, time.Now())
}

func (s *Span) tree(parentStart time.Time, now time.Time) *Tree {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adopted != nil {
		return s.adopted
	}
	end := s.end
	if end.IsZero() {
		end = now
	}
	t := &Tree{
		Name:    s.name,
		StartNS: s.start.Sub(parentStart).Nanoseconds(),
		DurNS:   end.Sub(s.start).Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		t.Attrs = append([]Attr(nil), s.attrs...)
	}
	for _, c := range s.children {
		t.Children = append(t.Children, c.tree(s.start, now))
	}
	return t
}

// Tree is the immutable snapshot of a span hierarchy: the wire- and
// file-level form (see pkg/schedroute for the schema-versioned
// envelope service responses carry).
type Tree struct {
	Name string `json:"name"`
	// StartNS is the span's start offset in nanoseconds relative to its
	// parent's start (0 for a root; an adopted subtree keeps offsets
	// relative to its original root).
	StartNS int64 `json:"start_ns"`
	// DurNS is the span duration in nanoseconds.
	DurNS    int64   `json:"dur_ns"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Tree `json:"children,omitempty"`
}

// Walk visits the tree depth-first, parents before children, with the
// node's depth (root = 0).
func (t *Tree) Walk(fn func(depth int, n *Tree)) {
	if t == nil {
		return
	}
	t.walk(0, fn)
}

func (t *Tree) walk(depth int, fn func(int, *Tree)) {
	fn(depth, t)
	for _, c := range t.Children {
		c.walk(depth+1, fn)
	}
}

// Names returns every span name in depth-first order — the structural
// fingerprint the determinism tests compare between serial and
// parallel runs (timings and cache attrs vary; structure must not).
func (t *Tree) Names() []string {
	var out []string
	t.Walk(func(_ int, n *Tree) { out = append(out, n.Name) })
	return out
}

// Count returns how many spans in the tree carry the given name.
func (t *Tree) Count(name string) int {
	n := 0
	t.Walk(func(_ int, node *Tree) {
		if node.Name == name {
			n++
		}
	})
	return n
}

// Render writes the tree as an indented span listing, one line per
// span: name, duration, attributes.
func (t *Tree) Render(w io.Writer) error {
	if t == nil {
		return nil
	}
	var err error
	t.Walk(func(depth int, n *Tree) {
		if err != nil {
			return
		}
		parts := make([]string, 0, len(n.Attrs))
		for _, a := range n.Attrs {
			parts = append(parts, a.Format())
		}
		line := fmt.Sprintf("%s%s %s", strings.Repeat("  ", depth), n.Name, time.Duration(n.DurNS))
		if len(parts) > 0 {
			line += "  " + strings.Join(parts, " ")
		}
		_, err = fmt.Fprintln(w, line)
	})
	return err
}

// sortedArgs renders a node's attributes as a deterministic key→value
// map for the Chrome exporter (encoding/json sorts map keys).
func sortedArgs(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	args := make(map[string]any, len(attrs))
	keys := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if _, dup := args[a.Key]; !dup {
			keys = append(keys, a.Key)
		}
		args[a.Key] = a.Value()
		if s, ok := nonFinite(a.Float); ok {
			args[a.Key] = s
		}
	}
	sort.Strings(keys)
	return args
}
