package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"schedroute/internal/cpsim"
	"schedroute/internal/metrics"
	"schedroute/internal/schedule"
	api "schedroute/pkg/schedroute"
)

// peakTolerance is how far an entry's quality figure may rise above its
// pin before the entry fails.
const peakTolerance = 1e-9

// replayCommands is the size of Ω up to which the packet replay always
// runs. cpsim rebuilds its reservation table from every command, which
// takes seconds on the 348 thousand commands of compile_large's 10-cube
// Ω (and took 20 s on the 1.3 million of the 10-cube preset's); a
// schedule that large is replayed only when it differs from its pin,
// which was replayed when the pool was vetted.
const replayCommands = 200_000

// checkOmega holds an emitted Ω to the paper's guarantee by three
// independent routes: the scheduler's own validator, a packet-level
// replay on modelled communication processors with zero violations and
// every message delivered inside [r_i, d_i], and the frame executor
// with output inconsistency 0. pinned says the Ω is byte-identical to
// one that has passed this check before.
func checkOmega(om *schedule.Omega, b *api.Built, pinned bool) error {
	if err := om.Validate(b.Topology); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	if !pinned || om.NumCommands() <= replayCommands {
		if err := replayPackets(om, b); err != nil {
			return err
		}
	}
	// A window-degraded schedule carries its own task starts, so the
	// window length handed to the executor is never consulted.
	window := b.Timing.TauC()
	if om.Starts == nil {
		return fmt.Errorf("executor: Ω carries no task starts")
	}
	ex, err := schedule.Execute(om, b.Graph, b.Timing, window, 8)
	if err != nil {
		return fmt.Errorf("executor: %w", err)
	}
	if metrics.OutputInconsistent(om.TauIn, metrics.Intervals(ex.OutputCompletions), 1e-6) {
		return fmt.Errorf("executor: output intervals are not constant")
	}
	return nil
}

// replayPackets is the cpsim leg of checkOmega.
func replayPackets(om *schedule.Omega, b *api.Built) error {
	sim, err := cpsim.Run(cpsim.Config{Omega: om, Graph: b.Graph, Topology: b.Topology, PacketBytes: 64, Bandwidth: b.Spec.Bandwidth})
	if err != nil {
		return fmt.Errorf("cpsim: %w", err)
	}
	if n := len(sim.Violations); n != 0 {
		v := sim.Violations[0]
		return fmt.Errorf("cpsim: %d violations, first %s of message %d on link %d at %g", n, v.Kind, v.Msg, v.Link, v.Time)
	}
	for m, at := range sim.Deliveries {
		w := om.Windows[m]
		if w.Local || math.IsNaN(at) {
			continue
		}
		if at < w.AbsRelease-1e-6 || at > w.AbsRelease+w.Length+1e-6 {
			return fmt.Errorf("cpsim: message %d delivered at %g outside [%g, %g]", m, at, w.AbsRelease, w.AbsRelease+w.Length)
		}
	}
	return nil
}

// omegaHash is the SHA-256 of everything an Ω says — period, latency,
// task starts, windows, slices and every node's commands — in a fixed
// binary layout. (The JSON artefact of the 10-cube preset's Ω is 218 MB
// and takes 11 s to encode; this walk takes a fraction of a second and
// pins the same content.)
func omegaHash(om *schedule.Omega) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	num := func(vs ...float64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if len(buf) > 1<<16-256 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	port := func(p schedule.Port) float64 {
		if p.AP {
			return -1
		}
		return float64(p.Link)
	}
	num(om.TauIn, om.Latency, float64(len(om.Starts)))
	num(om.Starts...)
	num(float64(len(om.Windows)))
	for _, w := range om.Windows {
		local := 0.0
		if w.Local {
			local = 1
		}
		num(w.Release, w.Length, w.AbsRelease, w.Xmit, local)
	}
	num(float64(len(om.Slices)))
	for _, sl := range om.Slices {
		num(float64(sl.Interval), sl.Start, sl.End, float64(len(sl.Msgs)))
		for i, m := range sl.Msgs {
			num(float64(m), sl.Until[i])
		}
	}
	num(float64(len(om.Nodes)))
	for _, ns := range om.Nodes {
		num(float64(ns.Node), float64(len(ns.Commands)))
		for _, c := range ns.Commands {
			num(c.Start, c.End, float64(c.Msg), port(c.In), port(c.Out))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// verdict is an outcome condensed to the pinned form. A post op's
// response is decoded here, after the clock has stopped, so that the
// client's decoding neither runs beside the other client's request nor
// counts in allocs_per_op.
func verdict(o *op, out outcome) (Expected, []*schedule.Omega, error) {
	if out.err != nil {
		return Expected{}, nil, out.err
	}
	omegas := out.omegas
	if out.body != nil {
		var res api.ScheduleResult
		if err := json.Unmarshal(out.body, &res); err != nil {
			return Expected{}, nil, fmt.Errorf("decode response: %w", err)
		}
		out.feasible, out.peak, out.detail = res.Feasible, res.Peak, res.FailStage
		if o.entry.IncludeOmega && res.Feasible {
			if len(res.Omega) == 0 {
				return Expected{}, nil, fmt.Errorf("feasible response carries no Ω")
			}
			om, err := schedule.DecodeOmega(bytes.NewReader(res.Omega))
			if err != nil {
				return Expected{}, nil, fmt.Errorf("decode Ω: %w", err)
			}
			omegas = []*schedule.Omega{om}
		}
	}
	got := Expected{Feasible: out.feasible, Peak: out.peak, Detail: out.detail}
	if !out.feasible {
		got.FailStage, got.Detail = out.detail, ""
	}
	// One Ω is pinned by its own hash, several by the hash of theirs.
	var hashes []byte
	for _, om := range omegas {
		h := omegaHash(om)
		hashes = append(hashes, h...)
		got.OmegaSHA256 = h
	}
	if len(omegas) > 1 {
		sum := sha256.Sum256(hashes)
		got.OmegaSHA256 = hex.EncodeToString(sum[:])
	}
	return got, omegas, nil
}

// checkEntry judges one entry's outcome: every emitted Ω must pass
// checkOmega, a pinned-feasible entry must still be feasible, and its
// quality figure must not have risen. An entry that became feasible with
// a valid Ω passes. changed reports an Ω that differs from its pin.
func checkEntry(o *op, out outcome, want Expected) (got Expected, changed bool, err error) {
	got, omegas, err := verdict(o, out)
	if err != nil {
		return got, false, err
	}
	same := want.OmegaSHA256 != "" && want.OmegaSHA256 == got.OmegaSHA256
	for _, om := range omegas {
		if err := checkOmega(om, o.built, same); err != nil {
			return got, false, err
		}
	}
	if want.Feasible && !got.Feasible {
		return got, false, fmt.Errorf("pinned feasible, now fails at %s", got.FailStage)
	}
	if want.Feasible && got.Peak > want.Peak+peakTolerance {
		return got, false, fmt.Errorf("quality figure rose from %.12g to %.12g", want.Peak, got.Peak)
	}
	changed = want.OmegaSHA256 != "" && got.OmegaSHA256 != "" && !same
	return got, changed, nil
}

// crossCheck holds a service response to the direct library result for
// the same problem: both must agree on the verdict and the peak.
func crossCheck(o *op, got Expected, opts schedule.Options, solvers map[string]*schedule.Solver) error {
	skey := o.entry.Problem.StructureKey()
	s := solvers[skey]
	if s == nil {
		s = schedule.NewSolver(o.built.ScheduleProblem())
		solvers[skey] = s
	}
	res, err := s.Solve(nil, o.tauIn, opts)
	if err != nil {
		return fmt.Errorf("library solve: %w", err)
	}
	if res.Feasible != got.Feasible || math.Abs(res.Peak-got.Peak) > 1e-12 {
		return fmt.Errorf("service says feasible=%t peak=%.12g, library says feasible=%t peak=%.12g", got.Feasible, got.Peak, res.Feasible, res.Peak)
	}
	return nil
}
