// Package sim provides a small deterministic discrete-event simulation
// kernel: a time-ordered event queue with FIFO tie-breaking by schedule
// order. The wormhole-routing baseline and the scheduled-routing
// executor are both built on it.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"schedroute/internal/errkind"
)

// Event is a callback scheduled at a point in simulated time.
type Event func(now float64)

type item struct {
	at  float64
	seq uint64
	fn  Event
}

type queue []*item

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)   { *q = append(*q, x.(*item)) }
func (q *queue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// BadScheduleError reports an event scheduled at an invalid time —
// in the past or at NaN — which always indicates a bug in the
// simulation model driving the engine.
type BadScheduleError struct {
	// At is the invalid event time; Now is the engine clock when the
	// event was scheduled.
	At  float64
	Now float64
}

func (e *BadScheduleError) Error() string {
	if math.IsNaN(e.At) {
		return fmt.Sprintf("sim: scheduling event at NaN (now %g)", e.Now)
	}
	return fmt.Sprintf("sim: scheduling event at %g before now %g", e.At, e.Now)
}

// Is places the error in the errkind.ErrBadSchedule family, so the
// shared classification table maps it to an exit status and HTTP status
// without naming this concrete type.
func (e *BadScheduleError) Is(target error) bool {
	return target == errkind.ErrBadSchedule
}

// Engine executes events in nondecreasing time order. Events scheduled
// at identical times run in the order they were scheduled, which keeps
// every simulation in this repository fully deterministic.
type Engine struct {
	now   float64
	seq   uint64
	q     queue
	count uint64
	err   error
}

// NewEngine creates an engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	heap.Init(&e.q)
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.count }

// At schedules fn at absolute time at. Scheduling in the past or at
// NaN is always a simulation-model bug: the event is dropped, the
// engine stops executing further events, and the typed
// *BadScheduleError surfaces from Run or Err. At keeps an
// error-free signature because most scheduling happens inside event
// callbacks, where a return value could not propagate anyway.
func (e *Engine) At(at float64, fn Event) {
	if at < e.now || math.IsNaN(at) {
		if e.err == nil {
			e.err = &BadScheduleError{At: at, Now: e.now}
		}
		return
	}
	e.seq++
	heap.Push(&e.q, &item{at: at, seq: e.seq, fn: fn})
}

// Err returns the first scheduling error observed, or nil.
func (e *Engine) Err() error { return e.err }

// After schedules fn delay time units from now.
func (e *Engine) After(delay float64, fn Event) {
	e.At(e.now+delay, fn)
}

// Step executes the single earliest pending event; it reports false
// when the queue is empty or a scheduling error has stopped the engine.
func (e *Engine) Step() bool {
	if len(e.q) == 0 || e.err != nil {
		return false
	}
	it := heap.Pop(&e.q).(*item)
	e.now = it.at
	e.count++
	it.fn(e.now)
	return true
}

// Run executes events until the queue drains or maxEvents have run
// (maxEvents <= 0 means no bound). It returns an error when the event
// bound is hit, which usually signals a livelocked model, or when an
// event scheduled an invalid time (see At).
func (e *Engine) Run(maxEvents uint64) error {
	executed := uint64(0)
	for e.Step() {
		executed++
		if maxEvents > 0 && executed >= maxEvents {
			break
		}
	}
	if e.err != nil {
		return e.err
	}
	if len(e.q) > 0 {
		return fmt.Errorf("sim: stopped after %d events with %d still pending", executed, len(e.q))
	}
	return nil
}
