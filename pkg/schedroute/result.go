package schedroute

import "schedroute/internal/schedule"

// NewScheduleResult converts a pipeline Result into the wire form.
// tauIn is the effective invocation period the solve actually ran at —
// passed explicitly because a structure-cached Built's own TauIn
// belongs to whichever request built it, not necessarily this one.
// The Ω artifact is embedded only when includeOmega is set and the
// problem was feasible, as MarshalOmega's compact bytes (the response
// encoder would compact the indented -save form to the same bytes);
// wall-clock stats only when the request asked for them (the
// deterministic counters are always present).
func NewScheduleResult(b *Built, res *schedule.Result, tauIn float64, includeOmega, includeStats bool) (*ScheduleResult, error) {
	out := &ScheduleResult{
		SchemaVersion: SchemaVersion,
		Feasible:      res.Feasible,
		TauC:          b.Timing.TauC(),
		TauM:          b.Timing.TauM(),
		TauIn:         tauIn,
		Load:          b.Timing.TauC() / tauIn,
		// A tenant solve runs against residual link shares; the LSD
		// baseline ignores reservations and can land on a fully-reserved
		// link, making its relative peak +Inf — unencodable in JSON.
		PeakLSD: finiteOrZero(res.PeakLSD),
		Peak:    finiteOrZero(res.Peak),
		Latency: finiteOrZero(res.Latency),
	}
	if !res.Feasible {
		out.FailStage = res.FailStage.String()
	} else {
		out.Intervals = res.Intervals.K()
		out.Slices = len(res.Slices)
		out.Commands = res.Omega.NumCommands()
		if includeOmega {
			om, err := schedule.MarshalOmega(res.Omega)
			if err != nil {
				return nil, err
			}
			out.Omega = om
		}
	}
	st := statsToWire(res.Stats)
	if !includeStats {
		st.WindowsNS, st.AssignNS, st.AllocateNS, st.ScheduleNS, st.OmegaNS = 0, 0, 0, 0, 0
	}
	out.Stats = st
	return out, nil
}

// NewRepairResult converts a RepairReport into the wire form. The
// repaired Ω is embedded only when includeOmega is set and a repaired
// schedule exists.
func NewRepairResult(rep *schedule.RepairReport, includeOmega bool) (*RepairResult, error) {
	out := &RepairResult{
		SchemaVersion: SchemaVersion,
		Outcome:       rep.Outcome.String(),
		Faults:        rep.Faults,
		Affected:      len(rep.Affected),
		Rerouted:      rep.Rerouted,
		NewPeak:       finiteOrZero(rep.NewPeak),
		TauOut:        rep.TauOut,
		WindowScale:   rep.WindowScale,
		LostTasks:     rep.LostTasks,
		Reason:        rep.Reason,
	}
	if rep.Outcome == schedule.RepairInfeasible {
		out.Stage = rep.Stage.String()
	}
	if includeOmega && rep.Result != nil && rep.Result.Omega != nil {
		om, err := schedule.MarshalOmega(rep.Result.Omega)
		if err != nil {
			return nil, err
		}
		out.Omega = om
	}
	return out, nil
}
