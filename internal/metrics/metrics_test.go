package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestIntervals(t *testing.T) {
	got := Intervals([]float64{10, 30, 60, 100})
	want := []float64{20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if Intervals([]float64{5}) != nil {
		t.Error("single completion has no intervals")
	}
	if Intervals(nil) != nil {
		t.Error("empty series has no intervals")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 2 || s.Max != 6 || s.Mid != 4 {
		t.Errorf("spike = %+v", s)
	}
	if c, _ := Summarize([]float64{5, 5, 5}); !c.Constant(1e-12) {
		t.Error("constant series should be Constant")
	}
	if c, _ := Summarize([]float64{1, 2}); c.Constant(0.5) {
		t.Error("spread series should not be Constant")
	}
}

func TestSummarizeEmptySeries(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("Summarize(nil) = %v, want ErrEmptySeries", err)
	}
	if _, err := NormalizedThroughput(100, nil); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("NormalizedThroughput(100, nil) = %v, want ErrEmptySeries", err)
	}
	if _, err := NormalizedLatency(100, nil); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("NormalizedLatency(100, nil) = %v, want ErrEmptySeries", err)
	}
}

func TestNormalizedThroughput(t *testing.T) {
	// Constant intervals equal to the period → throughput exactly 1.
	s, err := NormalizedThroughput(100, []float64{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Constant(1e-12) || s.Mid != 1 {
		t.Errorf("spike = %+v", s)
	}
	// Alternating fast/slow outputs: spike straddles 1.
	s, err = NormalizedThroughput(100, []float64{80, 120, 80, 120})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min >= 1 || s.Max <= 1 {
		t.Errorf("spike should straddle 1: %+v", s)
	}
	if s.Min != 100.0/120.0 || s.Max != 100.0/80.0 {
		t.Errorf("extremes wrong: %+v", s)
	}
}

func TestNormalizedLatency(t *testing.T) {
	s, err := NormalizedLatency(200, []float64{200, 300, 250})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 1.0 || s.Max != 1.5 {
		t.Errorf("spike = %+v", s)
	}
}

func TestOutputInconsistent(t *testing.T) {
	if OutputInconsistent(100, []float64{100, 100.000001, 100}, 1e-3) {
		t.Error("within tolerance should be consistent")
	}
	if !OutputInconsistent(100, []float64{100, 130, 70}, 1e-3) {
		t.Error("oscillating intervals are OI")
	}
	if OutputInconsistent(100, nil, 1e-3) {
		t.Error("no intervals cannot be inconsistent")
	}
}

func TestSpikeString(t *testing.T) {
	got := Spike{Min: 1, Mid: 2, Max: 3}.String()
	if got != "1/2/3" {
		t.Errorf("String = %q", got)
	}
}

// Property: Summarize bounds hold and Mid lies within [Min, Max].
func TestQuickSummarizeBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		return err == nil && s.Min <= s.Mid+1e-9 && s.Mid <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: consistent intervals (all equal to the period) always yield
// throughput spike exactly 1 and no OI.
func TestQuickConsistentSeries(t *testing.T) {
	f := func(n uint8, periodRaw uint16) bool {
		period := float64(periodRaw%1000) + 1
		count := int(n%20) + 1
		ivs := make([]float64, count)
		for i := range ivs {
			ivs[i] = period
		}
		if OutputInconsistent(period, ivs, 1e-9) {
			return false
		}
		s, err := NormalizedThroughput(period, ivs)
		return err == nil && s.Constant(1e-9) && math.Abs(s.Mid-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
