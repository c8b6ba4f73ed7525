// Package schedule implements the paper's contribution: scheduled
// routing (Sections 4 and 5). From a task-flow graph, a task allocation
// and a topology it derives message time bounds, assigns paths with the
// AssignPaths heuristic, allocates messages to intervals, schedules each
// interval into link-feasible sets, and emits per-node switching
// schedules whose independent execution yields contention-free,
// deadlock-free delivery of every message within its window — and hence
// a provably constant output rate.
package schedule

import (
	"fmt"
	"math"

	"schedroute/internal/errkind"
	"schedroute/internal/tfg"
)

// timeEps is the tolerance used for all floating-point schedule
// comparisons (times are in microseconds; 1e-6 µs is far below any
// modeled quantity).
const timeEps = 1e-6

// fmod returns x mod m in [0, m).
func fmod(x, m float64) float64 {
	r := math.Mod(x, m)
	if r < 0 {
		r += m
	}
	return r
}

// Window is one message's transmission window of Section 4: the message
// is released when its source task completes and must be delivered
// Length later. Release is frame-relative (in [0, TauIn)); AbsRelease is
// the absolute release of invocation 0, used to map frame times back to
// absolute times.
type Window struct {
	// Release is the frame-relative release time r_i in [0, τin).
	Release float64 `json:"release"`
	// Length is the window length (the paper uses τc for every message).
	Length float64 `json:"length"`
	// AbsRelease is the invocation-0 absolute release time R_i; it
	// satisfies fmod(AbsRelease, τin) == Release.
	AbsRelease float64 `json:"abs_release"`
	// Xmit is the message's transmission time m_i/B.
	Xmit float64 `json:"xmit"`
	// Local is true when source and destination tasks share a node; the
	// message crosses no links and is excluded from routing.
	Local bool `json:"local,omitempty"`
}

// Deadline returns the frame-relative deadline d_i in (0, τin]; the
// window wraps when Deadline <= Release (and Length < τin).
func (w Window) Deadline(tauIn float64) float64 {
	d := fmod(w.Release+w.Length, tauIn)
	if d == 0 {
		d = tauIn
	}
	return d
}

// Slack is the scheduling slack: window length minus transmission time.
func (w Window) Slack() float64 { return w.Length - w.Xmit }

// NoSlack reports whether the message must occupy its whole window.
func (w Window) NoSlack() bool { return w.Slack() <= timeEps }

// frameOffset returns the offset of frame instant t past the release
// point. Interval arithmetic can place a slice start an epsilon before
// its release, which fmod would wrap to almost a full period; offsets
// within timeEps of tauIn are therefore treated as the release itself.
func (w Window) frameOffset(t, tauIn float64) float64 {
	off := fmod(t-w.Release, tauIn)
	if off >= tauIn-timeEps {
		off = 0
	}
	return off
}

// Contains reports whether frame instant t (taken mod τin) lies within
// the window's frame image.
func (w Window) Contains(t, tauIn float64) bool {
	if w.Length >= tauIn-timeEps {
		return true
	}
	return w.frameOffset(t, tauIn) <= w.Length+timeEps
}

// AbsoluteTime maps a frame instant t inside the window to the absolute
// time of invocation 0's occurrence: AbsRelease plus the offset of t
// past the release point.
func (w Window) AbsoluteTime(t, tauIn float64) float64 {
	return w.AbsRelease + w.frameOffset(t, tauIn)
}

// ComputeWindows derives the Section 4 time bounds for every message:
// tasks are laid out by PipelinedStart with the given window length, a
// message is released when its source completes, and its frame-relative
// bounds are the absolute bounds mod τin. Local messages (source and
// destination tasks on one node) are marked and excluded from routing.
func ComputeWindows(g *tfg.Graph, tm *tfg.Timing, tauIn, window float64, sameNode func(m tfg.Message) bool) ([]Window, error) {
	if err := checkWindowParams(tm, tauIn, window); err != nil {
		return nil, err
	}
	return ComputeWindowsFromStarts(g, tm, tauIn, window, g.PipelinedStart(tm, window), sameNode)
}

// badInput is an error the caller's parameters caused: it classifies as
// errkind.ErrBadInput (exit 1, HTTP 400), where an unmarked error from
// this package is an internal inconsistency.
func badInput(format string, args ...any) error {
	return errkind.Mark(fmt.Errorf(format, args...), errkind.ErrBadInput)
}

func checkWindowParams(tm *tfg.Timing, tauIn, window float64) error {
	if tauIn <= 0 {
		return badInput("schedule: non-positive invocation period %g", tauIn)
	}
	if window <= 0 {
		return badInput("schedule: non-positive window length %g", window)
	}
	if window > tauIn+timeEps {
		return badInput("schedule: window %g exceeds invocation period %g", window, tauIn)
	}
	if tc := tm.TauC(); tauIn < tc-timeEps {
		return badInput("schedule: period %g below longest task %g causes infinite accumulation", tauIn, tc)
	}
	return nil
}

// ComputeWindowsFromStarts derives the time bounds from explicit static
// task start times — the hook through which AP-sharing node schedules
// (tfg.PipelinedStartShared) feed the pipeline.
func ComputeWindowsFromStarts(g *tfg.Graph, tm *tfg.Timing, tauIn, window float64, start []float64, sameNode func(m tfg.Message) bool) ([]Window, error) {
	if err := checkWindowParams(tm, tauIn, window); err != nil {
		return nil, err
	}
	if len(start) != g.NumTasks() {
		return nil, fmt.Errorf("schedule: %d start times for %d tasks", len(start), g.NumTasks())
	}
	var ws []Window // nil without messages: Ω's JSON reads "windows": null
	if n := g.NumMessages(); n > 0 {
		ws = make([]Window, n)
	}
	for _, m := range g.Messages() {
		abs := start[m.Src] + tm.ExecTime[m.Src]
		w := Window{
			Release:    fmod(abs, tauIn),
			Length:     window,
			AbsRelease: abs,
			Xmit:       tm.XmitTime[m.ID],
			Local:      sameNode != nil && sameNode(m),
		}
		if w.Xmit > w.Length+timeEps && !w.Local {
			return nil, badInput("schedule: message %d transmission %g exceeds window %g", m.ID, w.Xmit, w.Length)
		}
		ws[m.ID] = w
	}
	return ws, nil
}
