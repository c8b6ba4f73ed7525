package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one executed op of the measured window.
type sample struct {
	entry int
	ms    float64
}

// window is what one measured run of the closed loop recorded.
type window struct {
	samples   []sample
	attempted int
	// failed counts ops that returned an error or ran past the deadline.
	failed   int
	failures []string
	// last is each entry's most recent outcome, kept for the correctness
	// checks that run after the clock stops.
	last    []outcome
	wall    time.Duration
	rounds  int
	mallocs uint64
	bytes   uint64
	// seqHash identifies the op sequence the seed produced.
	seqHash string
}

// caller is one client of the closed loop: a long-lived goroutine that
// runs the ops handed to it one at a time, under a deadline each. One
// goroutine for all of a client's ops, rather than one per op, because
// the solver keeps its scratch arenas in a sync.Pool, whose fast slot
// belongs to the processor a goroutine happens to run on: a fresh
// goroutine per op finds the arena or not by chance, and allocs_per_op
// of identical work then differs by half from run to run.
type caller struct {
	deadline time.Duration
	calls    chan call
	done     chan result
}

type call struct {
	ctx context.Context
	o   *op
}

type result struct {
	out outcome
	d   time.Duration
}

func newCaller(deadline time.Duration) *caller {
	c := &caller{deadline: deadline}
	c.start()
	return c
}

func (c *caller) start() {
	calls, done := make(chan call), make(chan result, 1)
	c.calls, c.done = calls, done
	go func() {
		for cl := range calls {
			out, d := cl.o.run(cl.ctx)
			done <- result{out, d} // buffered: an abandoned goroutine must not block here
		}
	}()
}

// run executes one op and gives up on it after the deadline: library
// solves can only be cancelled between stages, so the op counts as
// failed, its goroutine is left to end when the solve does, and the
// closed loop moves on with a new one.
func (c *caller) run(o *op) (outcome, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), c.deadline)
	defer cancel()
	c.calls <- call{ctx, o}
	select {
	case r := <-c.done:
		return r.out, r.d
	case <-ctx.Done():
		c.stop()
		c.start()
		return outcome{err: fmt.Errorf("no reply within the %v deadline", c.deadline)}, c.deadline
	}
}

// stop ends the caller's goroutine once its current op, if any, returns.
func (c *caller) stop() { close(c.calls) }

// roundOrder is the seeded permutation of the plan for one round.
func roundOrder(seed int64, round int, plan []int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	order := append([]int(nil), plan...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// hashRounds is how many rounds a sequence hash covers: enough that two
// seeds differ even on a pool of two entries.
const hashRounds = 32

// sequenceHash hashes the op sequence of the first rounds of a seed.
func sequenceHash(seed int64, plan []int) string {
	h := sha256.New()
	var buf [8]byte
	for r := 0; r < hashRounds; r++ {
		for _, e := range roundOrder(seed, r, plan) {
			binary.LittleEndian.PutUint64(buf[:], uint64(e))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// measure drives the closed loop: each round is one seeded permutation
// of the plan, shared by the clients through one cursor, so every client
// sends its next op only when its previous one has completed and no
// input is in flight twice. Whole rounds run until the time is up, which
// keeps the mix of inputs in the window exactly the pool's.
func measure(sys *system, clients int, seconds float64, seed int64) *window {
	deadline := time.Duration(sys.w.DeadlineMS * float64(time.Millisecond))
	w := &window{last: make([]outcome, len(sys.ops)), seqHash: sequenceHash(seed, sys.plan)}
	perClient := make([][]sample, clients)
	var mu sync.Mutex // guards failures and last

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	callers := make([]*caller, clients)
	for c := range callers {
		callers[c] = newCaller(deadline)
		defer callers[c].stop()
	}
	for round := 0; ; round++ {
		order := roundOrder(seed, round, sys.plan)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(order) {
						return
					}
					ei := order[i]
					out, d := callers[c].run(&sys.ops[ei])
					perClient[c] = append(perClient[c], sample{ei, float64(d) / float64(time.Millisecond)})
					mu.Lock()
					if out.err != nil {
						w.failed++
						if len(w.failures) < 8 {
							w.failures = append(w.failures, fmt.Sprintf("%s: %v", sys.ops[ei].entry.ID, out.err))
						}
					}
					w.last[ei] = out
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		w.rounds++
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	w.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.bytes = m1.TotalAlloc - m0.TotalAlloc
	for _, s := range perClient {
		w.samples = append(w.samples, s...)
	}
	w.attempted = len(w.samples)
	return w
}

// quantile returns the q-quantile of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// fastestShare is the share of repeated timings that steady keeps.
const fastestShare = 0.1

// steady reduces repeated timings of one thing (an input's latencies, a
// run's set-up cycles; sorted) to the one figure taken as its timing:
// the mean of the fastest tenth (at least one).
//
// The host runs everything at one of two speeds, a quarter to a third
// apart, as its other tenants leave the shared core and memory system
// alone or do not, and flips between them every few seconds. The slow
// share of a run drifts between nearly none and four fifths over
// minutes. A median lands in whichever speed holds the majority, so it
// jumps by that quarter when the slow share crosses a half: over ten
// runs in a restless hour the medians of the ladders' repeats spread
// 23 % and the fastest tenths 8 %, and of compile_large's solves, in a
// slow half hour against a quiet one, medians and means sat 27-37 %
// apart and the fastest tenths 15-20 %. On top of the two speeds short
// ops lose the CPU in bursts that stretch a varying share of them
// several-fold, so a mean over the window, and wall-clock throughput
// with it, differs by tens of per cent between runs. The fastest
// repeats are the undisturbed ones, which is the figure a change to the
// program moves.
func steady(sorted []float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	n := max(1, int(math.Round(fastestShare*float64(len(sorted)))))
	return mean(sorted[:n])
}

// perEntry reduces the window to one steady latency per pool entry.
func perEntry(samples []sample, entries int) (lat []float64, counts []int) {
	by := make([][]float64, entries)
	for _, s := range samples {
		by[s.entry] = append(by[s.entry], s.ms)
	}
	lat = make([]float64, len(by))
	counts = make([]int, len(by))
	for i, xs := range by {
		sort.Float64s(xs)
		lat[i] = steady(xs)
		counts[i] = len(xs)
	}
	return lat, counts
}

// roundLatencies spreads the per-entry latencies over the ops of one
// round, sorted: the latency distribution of the workload's input mix.
func roundLatencies(lat []float64, plan []int) []float64 {
	out := make([]float64, len(plan))
	for i, e := range plan {
		out[i] = lat[e]
	}
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
