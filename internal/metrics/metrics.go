// Package metrics computes the paper's Section 6 performance measures:
// normalized load, normalized throughput and latency with their spike
// (min/mid/max) statistics, and the output-inconsistency predicate of
// Eq. 1.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptySeries is returned by Summarize (and the measures built on
// it) when asked to summarize a series with no observations.
var ErrEmptySeries = errors.New("metrics: summarize of empty series")

// Spike carries the three values the paper plots as an up-down spike
// when a measure is not constant across invocations: the extreme values
// and the average.
type Spike struct {
	Min float64
	Mid float64
	Max float64
}

// Constant reports whether the spike degenerates to a single value
// within tol, i.e. the measure was constant over all invocations.
func (s Spike) Constant(tol float64) bool {
	return s.Max-s.Min <= tol
}

// String renders the spike as "min/mid/max".
func (s Spike) String() string {
	return fmt.Sprintf("%.4g/%.4g/%.4g", s.Min, s.Mid, s.Max)
}

// Intervals returns the successive differences of a completion-time
// series: interval j is completions[j+1]-completions[j].
func Intervals(completions []float64) []float64 {
	if len(completions) < 2 {
		return nil
	}
	out := make([]float64, len(completions)-1)
	for i := 1; i < len(completions); i++ {
		out[i-1] = completions[i] - completions[i-1]
	}
	return out
}

// Summarize returns the min, mean and max of xs as a Spike. An empty
// series has no summary and yields ErrEmptySeries — a sim run short
// enough to produce no output intervals hits this, so callers must
// handle it rather than trust every run to span two invocations.
func Summarize(xs []float64) (Spike, error) {
	if len(xs) == 0 {
		return Spike{}, ErrEmptySeries
	}
	s := Spike{Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mid = sum / float64(len(xs))
	return s, nil
}

// NormalizedThroughput maps output-generation intervals to the paper's
// normalized throughput τin/τout, returning the spike over invocations.
// Following Section 6, the spike extremes come from the largest and
// smallest observed intervals and the middle value from the average
// interval (τin divided by the mean interval, not the mean of ratios,
// which would explode on bursty output).
func NormalizedThroughput(tauIn float64, outputIntervals []float64) (Spike, error) {
	iv, err := Summarize(outputIntervals)
	if err != nil {
		return Spike{}, err
	}
	return Spike{Min: tauIn / iv.Max, Mid: tauIn / iv.Mid, Max: tauIn / iv.Min}, nil
}

// NormalizedLatency maps per-invocation latencies to the paper's λ/Λ
// ratio, where criticalPath is the TFG critical path length Λ.
func NormalizedLatency(criticalPath float64, latencies []float64) (Spike, error) {
	ratios := make([]float64, len(latencies))
	for i, l := range latencies {
		ratios[i] = l / criticalPath
	}
	return Summarize(ratios)
}

// OutputInconsistent implements Eq. 1's negation: pipelining fails when
// any output-generation interval differs from the invocation period by
// more than tol.
func OutputInconsistent(tauIn float64, outputIntervals []float64, tol float64) bool {
	for _, iv := range outputIntervals {
		if math.Abs(iv-tauIn) > tol {
			return true
		}
	}
	return false
}
