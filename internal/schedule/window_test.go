package schedule

import (
	"math"
	"slices"
	"testing"

	"schedroute/internal/tfg"
)

func diamondFixture(t *testing.T) (*tfg.Graph, *tfg.Timing) {
	t.Helper()
	g, err := tfg.Diamond(100, 640)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64) // exec 50, xmit 10
	if err != nil {
		t.Fatal(err)
	}
	return g, tm
}

func TestComputeWindowsBasic(t *testing.T) {
	g, tm := diamondFixture(t)
	// τin = 150, window = τc = 50.
	ws, err := ComputeWindowsFromStarts(g, tm, 150, 50, g.PipelinedStart(tm, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Message ab: released when a completes at 50; window [50, 100].
	ab := ws[0]
	if math.Abs(ab.Release-50) > 1e-9 || math.Abs(ab.AbsRelease-50) > 1e-9 {
		t.Errorf("ab release = %g (abs %g), want 50", ab.Release, ab.AbsRelease)
	}
	if math.Abs(ab.Deadline(150)-100) > 1e-9 {
		t.Errorf("ab deadline = %g, want 100", ab.Deadline(150))
	}
	// Message bd: b starts at 100, completes 150 → release 150 mod 150 = 0.
	bd := ws[2]
	if math.Abs(bd.Release-0) > 1e-9 {
		t.Errorf("bd release = %g, want 0", bd.Release)
	}
	if math.Abs(bd.AbsRelease-150) > 1e-9 {
		t.Errorf("bd abs release = %g, want 150", bd.AbsRelease)
	}
	if math.Abs(ab.Slack()-40) > 1e-9 {
		t.Errorf("slack = %g, want 40", ab.Slack())
	}
	if ab.NoSlack() {
		t.Error("ab has slack")
	}
}

func TestComputeWindowsWrap(t *testing.T) {
	g, tm := diamondFixture(t)
	// τin = 130: message bd released at abs 150 → frame 20; deadline
	// 20+50 = 70 (no wrap). Use τin = 110: release at fmod(160? ...).
	// a completes 50, b starts 100, completes 150, frame release =
	// 150 mod 110 = 40, deadline 90 — still no wrap. Force wrap with
	// τin = 70: b starts at 100, wait — recompute: starts use window.
	ws, err := ComputeWindowsFromStarts(g, tm, 70, 50, g.PipelinedStart(tm, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	// a completes 50 → ab window [50, 100] abs; frame release 50,
	// deadline fmod(100,70)=30 < release → wrapped.
	ab := ws[0]
	if math.Abs(ab.Deadline(70)-30) > 1e-9 {
		t.Errorf("deadline = %g, want 30", ab.Deadline(70))
	}
	if !ab.Contains(60, 70) || !ab.Contains(10, 70) {
		t.Error("wrapped window must contain both segments")
	}
	if ab.Contains(40, 70) {
		t.Error("wrapped window must exclude the middle gap")
	}
}

func TestWindowFullFrame(t *testing.T) {
	w := Window{Release: 30, Length: 100, AbsRelease: 130, Xmit: 50}
	for _, tt := range []float64{0, 25, 50, 99.9} {
		if !w.Contains(tt, 100) {
			t.Errorf("full-frame window should contain %g", tt)
		}
	}
}

func TestWindowAbsoluteTime(t *testing.T) {
	w := Window{Release: 80, Length: 50, AbsRelease: 180, Xmit: 10}
	tauIn := 100.0
	// Frame 90 is 10 past release → abs 190.
	if got := w.AbsoluteTime(90, tauIn); math.Abs(got-190) > 1e-9 {
		t.Errorf("AbsoluteTime(90) = %g, want 190", got)
	}
	// Frame 20 wraps: 40 past release → abs 220.
	if got := w.AbsoluteTime(20, tauIn); math.Abs(got-220) > 1e-9 {
		t.Errorf("AbsoluteTime(20) = %g, want 220", got)
	}
}

func TestComputeWindowsRejects(t *testing.T) {
	g, tm := diamondFixture(t)
	if _, err := ComputeWindowsFromStarts(g, tm, 0, 50, g.PipelinedStart(tm, 50), nil); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := ComputeWindowsFromStarts(g, tm, 100, 0, g.PipelinedStart(tm, 0), nil); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := ComputeWindowsFromStarts(g, tm, 100, 200, g.PipelinedStart(tm, 200), nil); err == nil {
		t.Error("window beyond period should fail")
	}
	if _, err := ComputeWindowsFromStarts(g, tm, 30, 20, g.PipelinedStart(tm, 20), nil); err == nil {
		t.Error("period below τc should fail")
	}
	if _, err := ComputeWindowsFromStarts(g, tm, 100, 5, g.PipelinedStart(tm, 5), nil); err == nil {
		t.Error("window below longest transmission should fail")
	}
}

func TestNoSlackAtMaxLoad(t *testing.T) {
	g, err := tfg.Chain(2, 100, 3200)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64) // xmit 50 == τc
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ComputeWindowsFromStarts(g, tm, 50, 50, g.PipelinedStart(tm, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ws[0].NoSlack() {
		t.Error("τm = τc message must be no-slack")
	}
}

func TestLocalMessageMarked(t *testing.T) {
	g, tm := diamondFixture(t)
	ws, err := ComputeWindowsFromStarts(g, tm, 150, 50, g.PipelinedStart(tm, 50), func(m tfg.Message) bool { return m.ID == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !ws[1].Local || ws[0].Local {
		t.Error("local marking wrong")
	}
}

func TestIntervalPartition(t *testing.T) {
	g, tm := diamondFixture(t)
	ws, err := ComputeWindowsFromStarts(g, tm, 150, 50, g.PipelinedStart(tm, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	set := BuildIntervals(ws, 150)
	// Endpoints must start at 0, end at τin, strictly increase.
	eps := set.Endpoints
	if eps[0] != 0 || eps[len(eps)-1] != 150 {
		t.Fatalf("endpoints = %v", eps)
	}
	for i := 1; i < len(eps); i++ {
		if eps[i] <= eps[i-1] {
			t.Fatalf("non-increasing endpoints %v", eps)
		}
	}
	total := 0.0
	for k := 0; k < set.K(); k++ {
		total += set.Length(k)
	}
	if math.Abs(total-150) > 1e-9 {
		t.Errorf("interval lengths sum to %g", total)
	}
}

func TestActivityMatchesWindows(t *testing.T) {
	g, tm := diamondFixture(t)
	for _, tauIn := range []float64{50, 70, 110, 150, 250} {
		ws, err := ComputeWindowsFromStarts(g, tm, tauIn, 50, g.PipelinedStart(tm, 50), nil)
		if err != nil {
			t.Fatal(err)
		}
		set := BuildIntervals(ws, tauIn)
		act := BuildActivity(ws, set)
		for i, w := range ws {
			// Total active length equals the window length.
			got := 0.0
			for k, on := range act.Active[i] {
				if on {
					got += set.Length(k)
				}
			}
			want := w.Length
			if want > tauIn {
				want = tauIn
			}
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("tauIn=%g msg %d: active length %g, want %g", tauIn, i, got, want)
			}
		}
	}
}

func TestActivityLocalRowEmpty(t *testing.T) {
	g, tm := diamondFixture(t)
	ws, err := ComputeWindowsFromStarts(g, tm, 150, 50, g.PipelinedStart(tm, 50), func(m tfg.Message) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	set := BuildIntervals(ws, 150)
	act := BuildActivity(ws, set)
	for i := range ws {
		if slices.Contains(act.Active[i], true) {
			t.Errorf("local message %d should have no activity", i)
		}
	}
}

// TestActivityRowsCapped: BuildActivity's rows share one slab, each
// capped at K, so appending to a row moves it off the slab instead of
// writing into the next message's row.
func TestActivityRowsCapped(t *testing.T) {
	g, tm := diamondFixture(t)
	ws, err := ComputeWindowsFromStarts(g, tm, 110, 50, g.PipelinedStart(tm, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	set := BuildIntervals(ws, 110)
	act := BuildActivity(ws, set)
	if len(ws) < 2 {
		t.Fatal("the fixture needs two messages")
	}
	next := slices.Clone(act.Active[1])
	for i, row := range act.Active {
		if len(row) != set.K() || cap(row) != set.K() {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(row), cap(row), set.K())
		}
	}
	_ = append(act.Active[0], !next[0])
	if !slices.Equal(act.Active[1], next) {
		t.Fatalf("appending to row 0 rewrote row 1: %v, was %v", act.Active[1], next)
	}
}
