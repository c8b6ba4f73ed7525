package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	if s.Enabled() {
		t.Error("nil span reports enabled")
	}
	c := s.Start("child", Int("i", 1))
	if c != nil {
		t.Fatal("nil span spawned a real child")
	}
	c.SetAttrs(String("k", "v"))
	c.End()
	s.Adopt(&Tree{Name: "x"})
	if s.Tree() != nil {
		t.Error("nil span produced a tree")
	}
}

func TestTreeStructureAndOffsets(t *testing.T) {
	root := Start("solve", Float64("tau_in", 141))
	a := root.Start("time_bounds")
	a.End()
	b := root.Start("assign_paths", Int("attempt", 0))
	b.SetAttrs(Int("iterations", 42))
	b.End()
	root.End()

	tr := root.Tree()
	if tr.Name != "solve" || tr.StartNS != 0 {
		t.Fatalf("root: %+v", tr)
	}
	if got := tr.Names(); !reflect.DeepEqual(got, []string{"solve", "time_bounds", "assign_paths"}) {
		t.Fatalf("names: %v", got)
	}
	for _, c := range tr.Children {
		if c.StartNS < 0 || c.StartNS > tr.DurNS {
			t.Errorf("child %s offset %d outside parent duration %d", c.Name, c.StartNS, tr.DurNS)
		}
		if c.DurNS < 0 {
			t.Errorf("child %s negative duration", c.Name)
		}
	}
	ap := tr.Children[1]
	if len(ap.Attrs) != 2 || ap.Attrs[1].Key != "iterations" || ap.Attrs[1].Value() != int64(42) {
		t.Errorf("attrs not preserved: %+v", ap.Attrs)
	}
	if tr.Count("assign_paths") != 1 || tr.Count("missing") != 0 {
		t.Error("Count miscounts")
	}
}

func TestAttrValues(t *testing.T) {
	cases := []struct {
		a    Attr
		want any
		str  string
	}{
		{String("k", "v"), "v", "k=v"},
		{Int("n", 7), int64(7), "n=7"},
		{Int64("n", -1), int64(-1), "n=-1"},
		{Float64("f", 1.5), 1.5, "f=1.5"},
		{Bool("b", true), true, "b=true"},
		{Bool("b", false), false, "b=false"},
	}
	for _, c := range cases {
		if c.a.Value() != c.want {
			t.Errorf("%+v value %v, want %v", c.a, c.a.Value(), c.want)
		}
		if c.a.Format() != c.str {
			t.Errorf("%+v formats %q, want %q", c.a, c.a.Format(), c.str)
		}
	}
}

// Fan-out pattern: per-item spans pre-created serially, each worker
// recording only inside its own span. The resulting structure must be
// identical regardless of worker interleaving.
func TestConcurrentWorkersDeterministicStructure(t *testing.T) {
	root := Start("sweep")
	const n = 16
	points := make([]*Span, n)
	for i := range points {
		points[i] = root.Start("point", Int("index", i))
	}
	var wg sync.WaitGroup
	for i := range points {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := points[i].Start("solve")
			s.End()
			points[i].End()
		}(i)
	}
	wg.Wait()
	root.End()

	want := []string{"sweep"}
	for i := 0; i < n; i++ {
		want = append(want, "point", "solve")
	}
	if got := root.Tree().Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("structure depends on interleaving: %v", got)
	}
}

func TestAdoptKeepsOrderAndSubtree(t *testing.T) {
	flight := Start("flight")
	flight.Start("inner").End()
	flight.End()
	adopted := flight.Tree()

	root := Start("request")
	root.Start("queue_wait").End()
	root.Adopt(adopted)
	root.Start("after").End()
	root.End()

	got := root.Tree().Names()
	want := []string{"request", "queue_wait", "flight", "inner", "after"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adopted order: %v", got)
	}
}

func TestUnfinishedSpanSnapshot(t *testing.T) {
	root := Start("open")
	child := root.Start("still_running")
	tr := root.Tree() // no End anywhere
	if tr.DurNS < 0 || tr.Children[0].DurNS < 0 {
		t.Error("unfinished spans must measure up to the snapshot")
	}
	child.End()
	root.End()
}

func TestRender(t *testing.T) {
	root := Start("solve", Float64("tau_in", 150))
	root.Start("time_bounds").End()
	root.End()
	var buf bytes.Buffer
	if err := root.Tree().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "solve") || !strings.Contains(out, "tau_in=150") {
		t.Errorf("render missing root: %q", out)
	}
	if !strings.Contains(out, "\n  time_bounds") {
		t.Errorf("render missing indented child: %q", out)
	}
}

func TestChromeExport(t *testing.T) {
	root := Start("solve", Int("seed", 1))
	c := root.Start("assign_paths")
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, root.Tree()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("want 2 events, got %d", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "solve" || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("bad root event: %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[0].Args["seed"] != float64(1) {
		t.Errorf("args lost: %+v", doc.TraceEvents[0].Args)
	}
	child := doc.TraceEvents[1]
	if child.TS < doc.TraceEvents[0].TS {
		t.Errorf("child starts before parent: %v < %v", child.TS, doc.TraceEvents[0].TS)
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	root := Start("solve", Bool("cached", true))
	root.Start("omega_emission").End()
	root.End()
	in := root.Tree()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Tree
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Names(), out.Names()) || out.Attrs[0].Value() != true {
		t.Errorf("round trip lost data: %+v", out)
	}
}

// encoding/json refuses ±Inf and NaN as numbers; a float attribute
// holding one travels as a string instead, through the tree's own JSON
// and through the Chrome export.
func TestNonFiniteFloatAttrRoundTrip(t *testing.T) {
	root := Start("lsd_baseline", Float64("peak", math.Inf(1)), Float64("floor", math.Inf(-1)),
		Float64("ratio", math.NaN()), Float64("load", 0.75), Int("links", 3))
	root.End()
	b, err := json.Marshal(root.Tree())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"float":"+Inf"`, `"float":"-Inf"`, `"float":"NaN"`, `"float":0.75`, `"int":3`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("encoded tree lacks %s: %s", want, b)
		}
	}
	var out Tree
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Attrs) != 5 {
		t.Fatalf("decoded %d attributes, want 5: %+v", len(out.Attrs), out.Attrs)
	}
	if a := out.Attrs; !math.IsInf(a[0].Float, 1) || !math.IsInf(a[1].Float, -1) || !math.IsNaN(a[2].Float) ||
		a[3] != Float64("load", 0.75) || a[4] != Int("links", 3) {
		t.Errorf("round trip changed the attributes: %+v", a)
	}
	if err := json.Unmarshal([]byte(`{"key":"peak","kind":"float","float":"12"}`), new(Attr)); err == nil {
		t.Error("a finite number in a string decoded as a float attribute")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, root.Tree()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"peak":"+Inf"`) {
		t.Errorf("Chrome export lacks the +Inf peak: %s", buf.String())
	}
}
