package tfg

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func mustDiamond(t *testing.T) *Graph {
	t.Helper()
	g, err := Diamond(100, 640)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("bad")
	if _, err := b.Build(); err == nil {
		t.Error("empty graph should fail")
	}

	b = NewBuilder("bad-ops")
	b.AddTask("t", 0)
	if _, err := b.Build(); err == nil {
		t.Error("zero-op task should fail")
	}

	b = NewBuilder("bad-msg")
	a := b.AddTask("a", 1)
	b.AddMessage("self", a, a, 10)
	if _, err := b.Build(); err == nil {
		t.Error("self-loop should fail")
	}

	b = NewBuilder("bad-size")
	a = b.AddTask("a", 1)
	c := b.AddTask("c", 1)
	b.AddMessage("m", a, c, 0)
	if _, err := b.Build(); err == nil {
		t.Error("zero-byte message should fail")
	}

	b = NewBuilder("bad-ref")
	a = b.AddTask("a", 1)
	b.AddMessage("m", a, TaskID(99), 1)
	if _, err := b.Build(); err == nil {
		t.Error("dangling destination should fail")
	}
}

func TestCycleDetection(t *testing.T) {
	b := NewBuilder("cycle")
	a := b.AddTask("a", 1)
	c := b.AddTask("b", 1)
	b.AddMessage("m1", a, c, 1)
	b.AddMessage("m2", c, a, 1)
	if _, err := b.Build(); err == nil {
		t.Error("cycle should fail")
	}
}

func TestInputOutputTasks(t *testing.T) {
	g := mustDiamond(t)
	in, out := g.InputTasks(), g.OutputTasks()
	if len(in) != 1 || g.Task(in[0]).Name != "a" {
		t.Errorf("inputs = %v", in)
	}
	if len(out) != 1 || g.Task(out[0]).Name != "d" {
		t.Errorf("outputs = %v", out)
	}
}

func TestPrecedes(t *testing.T) {
	g := mustDiamond(t)
	if !g.Precedes(0, 3) {
		t.Error("a should precede d")
	}
	if g.Precedes(1, 2) {
		t.Error("b should not precede c")
	}
	if g.Precedes(3, 0) {
		t.Error("d should not precede a")
	}
	if g.Precedes(0, 0) {
		t.Error("strict precedence violated")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g, err := RandomLayered(42, []int{3, 4, 4, 2}, 50, 200, 64, 2048, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int)
	for i, id := range g.TopoOrder() {
		pos[id] = i
	}
	for _, m := range g.Messages() {
		if pos[m.Src] >= pos[m.Dst] {
			t.Errorf("message %s: src pos %d >= dst pos %d", m.Name, pos[m.Src], pos[m.Dst])
		}
	}
}

func TestTimingDerivation(t *testing.T) {
	g := mustDiamond(t) // ops=100, bytes=640
	tm, err := NewTiming(g, 2.0, 64.0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.ExecTime[0] != 50 {
		t.Errorf("exec = %g, want 50", tm.ExecTime[0])
	}
	if tm.XmitTime[0] != 10 {
		t.Errorf("xmit = %g, want 10", tm.XmitTime[0])
	}
	if tm.TauC() != 50 || tm.TauM() != 10 {
		t.Errorf("tauC=%g tauM=%g", tm.TauC(), tm.TauM())
	}
}

func TestUniformTiming(t *testing.T) {
	g := mustDiamond(t)
	tm, err := NewUniformTiming(g, 50, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tm.ExecTime {
		if e != 50 {
			t.Fatalf("exec = %g", e)
		}
	}
	if tm.XmitTime[0] != 5 {
		t.Errorf("xmit = %g, want 5", tm.XmitTime[0])
	}
	if _, err := NewUniformTiming(g, 0, 64); err == nil {
		t.Error("zero exec should fail")
	}
	if _, err := NewTiming(g, 1, 0); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g := mustDiamond(t)
	tm, _ := NewUniformTiming(g, 50, 64) // xmit 10
	length, chain := g.CriticalPath(tm)
	// a(50) + msg(10) + b(50) + msg(10) + d(50) = 170
	if math.Abs(length-170) > 1e-9 {
		t.Errorf("critical path = %g, want 170", length)
	}
	if len(chain) != 3 || chain[0] != 0 || chain[2] != 3 {
		t.Errorf("chain = %v", chain)
	}
}

func TestCriticalPathChain(t *testing.T) {
	g, err := Chain(5, 100, 320)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := NewUniformTiming(g, 50, 64) // xmit 5
	length, chain := g.CriticalPath(tm)
	want := 5*50.0 + 4*5.0
	if math.Abs(length-want) > 1e-9 {
		t.Errorf("critical path = %g, want %g", length, want)
	}
	if len(chain) != 5 {
		t.Errorf("chain length = %d", len(chain))
	}
}

func TestPipelinedStartAndLatency(t *testing.T) {
	g := mustDiamond(t)
	tm, _ := NewUniformTiming(g, 50, 64)
	start := g.PipelinedStart(tm, 50) // window = tauC
	// a at 0; b,c at 0+50+50=100; d at 100+50+50=200.
	want := []float64{0, 100, 100, 200}
	for i, w := range want {
		if math.Abs(start[i]-w) > 1e-9 {
			t.Errorf("start[%d] = %g, want %g", i, start[i], w)
		}
	}
	lat := g.LatencyOf(tm, g.PipelinedStart(tm, 50))
	if math.Abs(lat-250) > 1e-9 {
		t.Errorf("latency = %g, want 250", lat)
	}
}

func TestPipelinedLatencyAtLeastCriticalPath(t *testing.T) {
	g, err := RandomLayered(7, []int{2, 3, 3, 1}, 100, 100, 64, 3200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := NewUniformTiming(g, 50, 64)
	cp, _ := g.CriticalPath(tm)
	lat := g.LatencyOf(tm, g.PipelinedStart(tm, tm.TauC()))
	if lat < cp-1e-9 {
		t.Errorf("windowed latency %g below critical path %g", lat, cp)
	}
}

func TestFanOutIn(t *testing.T) {
	g, err := FanOutIn(4, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 6 || g.NumMessages() != 8 {
		t.Errorf("tasks=%d msgs=%d", g.NumTasks(), g.NumMessages())
	}
	if len(g.InputTasks()) != 1 || len(g.OutputTasks()) != 1 {
		t.Errorf("inputs/outputs wrong")
	}
}

func TestGeneratorsReject(t *testing.T) {
	if _, err := Chain(0, 1, 1); err == nil {
		t.Error("Chain(0) should fail")
	}
	if _, err := FanOutIn(0, 1, 1); err == nil {
		t.Error("FanOutIn(0) should fail")
	}
	if _, err := RandomLayered(1, nil, 1, 1, 1, 1, 0); err == nil {
		t.Error("empty layers should fail")
	}
	if _, err := RandomLayered(1, []int{2, 0}, 1, 1, 1, 1, 0); err == nil {
		t.Error("zero-width layer should fail")
	}
}

func TestRandomLayeredDeterministic(t *testing.T) {
	a, err := RandomLayered(99, []int{2, 3, 2}, 10, 100, 64, 1024, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomLayered(99, []int{2, 3, 2}, 10, 100, 64, 1024, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumMessages() != b.NumMessages() {
		t.Fatalf("nondeterministic generator: %d vs %d messages", a.NumMessages(), b.NumMessages())
	}
	for i := 0; i < a.NumMessages(); i++ {
		ma, mb := a.Message(MessageID(i)), b.Message(MessageID(i))
		if ma != mb {
			t.Fatalf("message %d differs: %v vs %v", i, ma, mb)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, err := RandomLayered(3, []int{2, 2, 2}, 10, 50, 100, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name() != g.Name() || g2.NumTasks() != g.NumTasks() || g2.NumMessages() != g.NumMessages() {
		t.Fatalf("round trip mismatch")
	}
	for i := 0; i < g.NumMessages(); i++ {
		if g.Message(MessageID(i)) != g2.Message(MessageID(i)) {
			t.Fatalf("message %d differs", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("{nope")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := Decode(bytes.NewBufferString(`{"name":"x","tasks":[],"messages":[]}`)); err == nil {
		t.Error("taskless graph should fail")
	}
}

// Property: in any random layered TFG, the pipelined latency with window
// w is monotonically non-decreasing in w, and every input task starts at 0.
func TestQuickPipelinedMonotone(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		g, err := RandomLayered(seed%1000, []int{2, 3, 2}, 50, 150, 64, 2048, 0.4)
		if err != nil {
			return false
		}
		tm, err := NewUniformTiming(g, 50, 64)
		if err != nil {
			return false
		}
		w1 := float64(wRaw%50) + 1
		w2 := w1 + 10
		if g.LatencyOf(tm, g.PipelinedStart(tm, w2)) < g.LatencyOf(tm, g.PipelinedStart(tm, w1))-1e-9 {
			return false
		}
		start := g.PipelinedStart(tm, w1)
		for _, in := range g.InputTasks() {
			if start[in] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: critical path length is at least the longest single task.
func TestQuickCriticalPathLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		g, err := RandomLayered(seed%500, []int{2, 2, 3}, 10, 400, 64, 3200, 0.3)
		if err != nil {
			return false
		}
		tm, err := NewTiming(g, 2, 64)
		if err != nil {
			return false
		}
		cp, chain := g.CriticalPath(tm)
		if len(chain) == 0 {
			return false
		}
		return cp >= tm.TauC()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
