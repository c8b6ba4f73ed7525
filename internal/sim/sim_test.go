package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func(now float64) { got = append(got, now) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("ran %d events", len(got))
	}
	if e.Now() != 5 {
		t.Errorf("final time = %g", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func(float64) { order = append(order, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var hit float64
	e.At(10, func(now float64) {
		e.After(5, func(now float64) { hit = now })
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if hit != 15 {
		t.Errorf("hit at %g, want 15", hit)
	}
}

func TestPastSchedulingErrorStopsEngine(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func(float64) {
		ran++
		e.At(5, func(float64) { ran++ }) // in the past — must not run
		e.After(1, func(float64) { ran++ })
	})
	err := e.Run(0)
	var bse *BadScheduleError
	if !errors.As(err, &bse) {
		t.Fatalf("Run = %v, want *BadScheduleError", err)
	}
	if bse.At != 5 || bse.Now != 10 {
		t.Errorf("error = %+v, want At=5 Now=10", bse)
	}
	if ran != 1 {
		t.Errorf("%d events ran after the scheduling bug, want the engine to stop", ran-1)
	}
	if e.Err() == nil {
		t.Error("Err must report the scheduling error")
	}
}

func TestNaNSchedulingError(t *testing.T) {
	e := NewEngine()
	e.At(math.NaN(), func(float64) {})
	err := e.Run(0)
	var bse *BadScheduleError
	if !errors.As(err, &bse) {
		t.Fatalf("Run = %v, want *BadScheduleError", err)
	}
	if !math.IsNaN(bse.At) {
		t.Errorf("error At = %g, want NaN", bse.At)
	}
	if err.Error() != "sim: scheduling event at NaN (now 0)" {
		t.Errorf("message = %q", err.Error())
	}
}

func TestRunMaxEvents(t *testing.T) {
	e := NewEngine()
	var reschedule func(now float64)
	reschedule = func(now float64) { e.After(1, reschedule) }
	e.At(0, reschedule)
	if err := e.Run(100); err == nil {
		t.Error("livelock should be reported")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(float64(i), func(float64) {})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 7 {
		t.Errorf("processed = %d", e.Processed())
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty queue should return false")
	}
}

// Property: any random batch of events executes in nondecreasing time
// order regardless of insertion order, including events inserted during
// execution.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var times []float64
		record := func(now float64) { times = append(times, now) }
		for i := 0; i < 50; i++ {
			at := rng.Float64() * 100
			e.At(at, func(now float64) {
				record(now)
				if rng.Float64() < 0.3 {
					e.After(rng.Float64()*10, record)
				}
			})
		}
		if err := e.Run(0); err != nil {
			return false
		}
		return sort.Float64sAreSorted(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
