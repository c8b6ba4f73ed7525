package schedule

import (
	"fmt"

	"schedroute/internal/metrics"
	"schedroute/internal/tfg"
)

// ExecResult mirrors the wormhole simulator's result shape so both
// routing techniques feed the same metrics pipeline.
type ExecResult struct {
	OutputCompletions []float64
	Latencies         []float64
	// Deliveries[i] is message i's invocation-0 absolute delivery time.
	Deliveries []float64
}

// Execute replays the frame schedule over the requested invocations and
// verifies the scheduled-routing guarantee from first principles: every
// message is delivered within its window, every task's inputs are all
// present by its static start, and consequently every invocation
// completes exactly Latency after it starts — constant throughput.
func Execute(om *Omega, g *tfg.Graph, tm *tfg.Timing, window float64, invocations int) (*ExecResult, error) {
	if invocations < 1 {
		return nil, fmt.Errorf("schedule: need at least one invocation")
	}
	// Invocation-0 absolute delivery time per message: the latest
	// absolute end over its slices. Local messages deliver at release.
	deliver := make([]float64, g.NumMessages())
	for i, w := range om.Windows {
		deliver[i] = w.AbsRelease
		if w.Local {
			deliver[i] += w.Xmit
		}
	}
	seen := make([]float64, g.NumMessages())
	for _, sl := range om.Slices {
		for mi, msg := range sl.Msgs {
			w := om.Windows[msg]
			absEnd := w.AbsoluteTime(sl.Start, om.TauIn) + (sl.Until[mi] - sl.Start)
			if absEnd > deliver[msg] {
				deliver[msg] = absEnd
			}
			seen[msg] += sl.Until[mi] - sl.Start
		}
	}
	for _, m := range g.Messages() {
		w := om.Windows[m.ID]
		if !w.Local && seen[m.ID] < w.Xmit-1e-6 {
			return nil, fmt.Errorf("schedule: message %d only transmitted %g of %g", m.ID, seen[m.ID], w.Xmit)
		}
		if deliver[m.ID] > w.AbsRelease+w.Length+1e-6 {
			return nil, fmt.Errorf("schedule: message %d delivered %g past its deadline", m.ID, deliver[m.ID]-w.AbsRelease-w.Length)
		}
	}
	// Every task's static start must dominate its inputs' deliveries.
	start := om.Starts
	if start == nil {
		start = g.PipelinedStart(tm, window)
	}
	for _, m := range g.Messages() {
		if deliver[m.ID] > start[m.Dst]+1e-6 {
			return nil, fmt.Errorf("schedule: task %d starts at %g before message %d arrives at %g", m.Dst, start[m.Dst], m.ID, deliver[m.ID])
		}
	}
	res := &ExecResult{Deliveries: deliver}
	for j := 0; j < invocations; j++ {
		base := float64(j) * om.TauIn
		res.OutputCompletions = append(res.OutputCompletions, base+om.Latency)
		res.Latencies = append(res.Latencies, om.Latency)
	}
	return res, nil
}

// DefaultInvocations is the run length CheckOutput replays when asked
// for 0: the executor's output is periodic, so a short run says
// everything a long one would.
const DefaultInvocations = 8

// OutputCheck is what replaying a schedule says about its output: the
// replay itself, the normalized throughput spike over its output
// intervals, and whether those intervals are inconsistent with the
// period the schedule is meant to hold (Eq. 1 negated).
type OutputCheck struct {
	Exec       *ExecResult
	Throughput metrics.Spike
	OI         bool
}

// CheckOutput replays om through Execute for the given invocations
// (0 = DefaultInvocations) and measures the output against tauOut, the
// period it should be generated at. A single invocation has no output
// interval to measure and is an error.
func CheckOutput(om *Omega, g *tfg.Graph, tm *tfg.Timing, tauOut float64, invocations int) (*OutputCheck, error) {
	if invocations == 0 {
		invocations = DefaultInvocations
	}
	exec, err := Execute(om, g, tm, tm.TauC(), invocations)
	if err != nil {
		return nil, err
	}
	ivs := metrics.Intervals(exec.OutputCompletions)
	th, err := metrics.NormalizedThroughput(tauOut, ivs)
	if err != nil {
		return nil, fmt.Errorf("schedule: throughput over %d invocation(s): %w", invocations, err)
	}
	return &OutputCheck{Exec: exec, Throughput: th, OI: metrics.OutputInconsistent(tauOut, ivs, 1e-6)}, nil
}
