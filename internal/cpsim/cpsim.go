// Package cpsim executes a scheduled-routing communication schedule Ω
// at packet granularity on explicitly modeled communication processors,
// the way Section 5.4 of the paper describes the hardware behaving: the
// basic time unit is one packet transmission, every packet of a message
// follows the same path, and the CPs independently replay their
// switching commands every frame.
//
// The simulator provides two things the analytic executor in
// internal/schedule cannot:
//
//  1. an independent, dynamic re-verification of the contention-free
//     property — every packet asserts sole occupancy of every link it
//     crosses at the instant it crosses it, against a reservation table
//     rebuilt from the per-node command streams rather than from the
//     scheduler's own intermediate data; and
//  2. clock-skew injection: each node's commands can be shifted by a
//     per-node offset, and the simulator reports which transmissions
//     would escape their crossbar connections — quantifying the
//     synchronization tolerance the paper's Section 7 discusses.
package cpsim

import (
	"fmt"
	"math"
	"sort"

	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// Config describes one packet-level execution.
type Config struct {
	Omega    *schedule.Omega
	Graph    *tfg.Graph
	Topology *topology.Topology
	// PacketBytes is the packet size; the per-packet transmission time
	// is PacketBytes/Bandwidth. Default 64.
	PacketBytes int
	// Bandwidth in bytes/µs must match the timing used to compute Ω.
	Bandwidth float64
	// Invocations to replay (default 4).
	Invocations int
	// Skew[n] shifts node n's command activations by the given offset
	// (µs, may be negative). Nil means perfectly synchronized CPs.
	Skew []float64
	// Guard implements the paper's Section 7 synchronization rule: the
	// source CP lets Guard elapse after its local command start before
	// transmitting ("a time interval equal to or greater than twice the
	// maximum difference between two clocks"), and every CP holds a
	// connection up to 2·Guard past its command end — released early if
	// the link's next reservation arrives sooner. Pair it with a
	// schedule computed under Options.SyncMargin >= Guard so the
	// delayed stream still meets its window.
	Guard float64
	// Fault, when non-nil, injects a fault mid-run: invocations before
	// FailAt replay Omega on the healthy machine, invocations from
	// FailAt replay it with the fault active (packets crossing a failed
	// element are lost), and — when a repaired schedule is supplied —
	// invocations from RepairAt replay Repaired on the degraded machine.
	Fault *FaultInjection
}

// FaultInjection describes a mid-run fault and (optionally) the
// activation of a repaired schedule.
type FaultInjection struct {
	// Faults are the elements that fail at invocation FailAt.
	Faults *topology.FaultSet
	// FailAt is the invocation index at which the fault strikes
	// (0 <= FailAt < Invocations).
	FailAt int
	// Repaired is the repaired Ω distributed to the CPs, active from
	// invocation RepairAt; nil means the fault is never repaired.
	Repaired *schedule.Omega
	// RepairAt is the first invocation replayed under Repaired
	// (FailAt < RepairAt <= Invocations).
	RepairAt int
}

// Violation records a packet that crossed a link outside an active
// reservation, simultaneously with another message's packet, or into a
// failed element.
type Violation struct {
	Msg  tfg.MessageID
	Link topology.LinkID
	Time float64
	Kind string // "no-reservation", "collision", "failed-link" or "failed-node"
}

// Result summarizes the execution.
type Result struct {
	// PacketsDelivered counts packets that reached their destination AP.
	PacketsDelivered int
	// Deliveries[m] is the invocation-0 delivery time of message m's
	// last packet (NaN for local messages, which bypass the network).
	Deliveries []float64
	// Violations are the contention or reservation breaches observed;
	// empty for a valid Ω under zero skew.
	Violations []Violation
	// MaxSkewTolerated is the largest uniform ± skew bound under which
	// this Ω would still be violation-free, derived from the tightest
	// reservation margin encountered (0 when reservations abut).
	MaxSkewTolerated float64
	// LostPackets counts packets dropped at a failed element across the
	// faulted invocations (zero without fault injection).
	LostPackets int
	// OIStart/OIEnd bound the output-inconsistency window in absolute
	// time: from the fault striking to the repaired Ω taking over (OIEnd
	// is +Inf for a permanent unrepaired fault; both are NaN when the
	// fault loses no packets).
	OIStart, OIEnd float64
	// RepairViolations are contention or reservation breaches observed
	// while replaying the repaired Ω on the degraded machine; empty iff
	// the repair is verified contention-free.
	RepairViolations []Violation
}

// reservation is one command's claim on a link, in global (unskewed)
// frame time, annotated with the skewed activation of its node.
type reservation struct {
	start, end float64 // node-local activation, global clock
	msg        tfg.MessageID
	node       topology.NodeID
}

// Run replays Ω and returns the packet-level measurements. With fault
// injection configured, the run is composed of up to three regimes —
// healthy frames under the base Ω, faulted frames under the base Ω
// (losing the packets that hit failed elements), and repaired frames
// under the repaired Ω on the degraded machine — and the Result
// reports the lost-packet count, the output-inconsistency window, and
// any violations of the repaired schedule separately.
func Run(cfg Config) (*Result, error) {
	if cfg.Omega == nil || cfg.Graph == nil || cfg.Topology == nil {
		return nil, fmt.Errorf("cpsim: incomplete config")
	}
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("cpsim: non-positive bandwidth %g", cfg.Bandwidth)
	}
	if cfg.PacketBytes == 0 {
		cfg.PacketBytes = 64
	}
	if cfg.PacketBytes < 1 {
		return nil, fmt.Errorf("cpsim: non-positive packet size %d", cfg.PacketBytes)
	}
	if cfg.Invocations == 0 {
		cfg.Invocations = 4
	}
	if cfg.Skew != nil && len(cfg.Skew) != cfg.Topology.Nodes() {
		return nil, fmt.Errorf("cpsim: skew vector has %d entries for %d nodes", len(cfg.Skew), cfg.Topology.Nodes())
	}

	if cfg.Fault == nil {
		fr, err := replayFrame(&cfg, cfg.Omega, nil)
		if err != nil {
			return nil, err
		}
		return &Result{
			PacketsDelivered: fr.delivered * cfg.Invocations,
			Deliveries:       fr.deliveries,
			Violations:       fr.violations,
			MaxSkewTolerated: fr.maxSkew,
			OIStart:          math.NaN(),
			OIEnd:            math.NaN(),
		}, nil
	}

	fi := cfg.Fault
	if fi.Faults.Empty() {
		return nil, fmt.Errorf("cpsim: fault injection with an empty fault set")
	}
	if fi.FailAt < 0 || fi.FailAt >= cfg.Invocations {
		return nil, fmt.Errorf("cpsim: FailAt %d outside [0, %d)", fi.FailAt, cfg.Invocations)
	}
	repairAt := cfg.Invocations
	if fi.Repaired != nil {
		if fi.RepairAt <= fi.FailAt || fi.RepairAt > cfg.Invocations {
			return nil, fmt.Errorf("cpsim: RepairAt %d outside (%d, %d]", fi.RepairAt, fi.FailAt, cfg.Invocations)
		}
		repairAt = fi.RepairAt
	}

	healthy, err := replayFrame(&cfg, cfg.Omega, nil)
	if err != nil {
		return nil, err
	}
	faulted, err := replayFrame(&cfg, cfg.Omega, fi.Faults)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Deliveries:       healthy.deliveries,
		Violations:       healthy.violations,
		MaxSkewTolerated: healthy.maxSkew,
		OIStart:          math.NaN(),
		OIEnd:            math.NaN(),
	}
	nFaulted := repairAt - fi.FailAt
	res.PacketsDelivered = healthy.delivered*fi.FailAt + faulted.delivered*nFaulted
	res.LostPackets = faulted.lost * nFaulted
	// Faulted-regime violations (including per-packet loss flags) repeat
	// identically every frame; record one frame's worth.
	res.Violations = append(res.Violations, faulted.violations...)
	res.Violations = append(res.Violations, faulted.lostViolations...)
	if res.LostPackets > 0 {
		res.OIStart = float64(fi.FailAt) * cfg.Omega.TauIn
		if fi.Repaired != nil {
			res.OIEnd = float64(repairAt) * cfg.Omega.TauIn
		} else {
			res.OIEnd = math.Inf(1)
		}
	}
	if fi.Repaired != nil {
		repaired, err := replayFrame(&cfg, fi.Repaired, fi.Faults)
		if err != nil {
			return nil, err
		}
		res.PacketsDelivered += repaired.delivered * (cfg.Invocations - repairAt)
		// A repaired Ω must not route anything into a failed element, so
		// packet losses under it are schedule defects, not expected decay.
		res.RepairViolations = append(res.RepairViolations, repaired.violations...)
		res.RepairViolations = append(res.RepairViolations, repaired.lostViolations...)
		if repaired.maxSkew < res.MaxSkewTolerated {
			res.MaxSkewTolerated = repaired.maxSkew
		}
	}
	return res, nil
}

// frameStats summarizes one frame replay of a schedule under an
// optional fault set.
type frameStats struct {
	delivered      int
	lost           int
	deliveries     []float64
	violations     []Violation
	lostViolations []Violation
	maxSkew        float64
}

// replayFrame replays one frame of om, dropping packets at failed
// elements when fs is non-empty.
func replayFrame(cfg *Config, om *schedule.Omega, fs *topology.FaultSet) (*frameStats, error) {
	// Rebuild per-link reservations from the node command streams: a
	// link is connected for a message while *both* endpoint CPs have a
	// command naming it. With skew, the usable interval is the
	// intersection of the endpoints' local activations.
	type linkClaim struct {
		start, end float64
		msg        tfg.MessageID
	}
	perLink := make([][]linkClaim, cfg.Topology.Links())
	type endpointKey struct {
		link topology.LinkID
		msg  tfg.MessageID
		// start identifies the slice occurrence.
		start float64
	}
	ends := map[endpointKey][]reservation{}
	skewOf := func(n topology.NodeID) float64 {
		if cfg.Skew == nil {
			return 0
		}
		return cfg.Skew[n]
	}
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			for _, p := range []schedule.Port{c.In, c.Out} {
				if p.AP {
					continue
				}
				key := endpointKey{p.Link, c.Msg, c.Start}
				ends[key] = append(ends[key], reservation{
					start: c.Start + skewOf(ns.Node),
					end:   c.End + skewOf(ns.Node),
					msg:   c.Msg,
					node:  ns.Node,
				})
			}
		}
	}
	for key, rs := range ends {
		lo, hi := math.Inf(-1), math.Inf(1)
		for _, r := range rs {
			lo = math.Max(lo, r.start)
			hi = math.Min(hi, r.end)
		}
		if hi > lo {
			perLink[key.link] = append(perLink[key.link], linkClaim{start: lo, end: hi, msg: key.msg})
		}
	}
	for l := range perLink {
		sort.Slice(perLink[l], func(a, b int) bool { return perLink[l][a].start < perLink[l][b].start })
	}

	// Apply the hold discipline: every claim is held up to 2·Guard past
	// its command end, released early when the link's next reservation
	// begins.
	if cfg.Guard > 0 {
		for l := range perLink {
			claims := perLink[l]
			for i := range claims {
				hold := claims[i].end + 2*cfg.Guard
				if i+1 < len(claims) && claims[i+1].start < hold {
					hold = claims[i+1].start
				}
				if hold > claims[i].end {
					claims[i].end = hold
				}
			}
		}
	}

	// Tightest margin between consecutive reservations on any link and
	// to the frame edges bounds the tolerable skew (each endpoint can
	// drift half the gap).
	minGap := math.Inf(1)
	for _, claims := range perLink {
		for i := 1; i < len(claims); i++ {
			if claims[i].msg != claims[i-1].msg {
				gap := claims[i].start - claims[i-1].end
				if gap < minGap {
					minGap = gap
				}
			}
		}
	}

	fr := &frameStats{deliveries: make([]float64, cfg.Graph.NumMessages())}
	for i := range fr.deliveries {
		fr.deliveries[i] = math.NaN()
	}
	if !math.IsInf(minGap, 1) {
		fr.maxSkew = math.Max(0, minGap/2)
	} else {
		fr.maxSkew = math.Inf(1)
	}

	// claimFor locates the reservation covering message m on link l at
	// frame time t.
	claimFor := func(l topology.LinkID, m tfg.MessageID, t float64) bool {
		for _, c := range perLink[l] {
			if c.msg == m && t >= c.start-1e-9 && t <= c.end+1e-9 {
				return true
			}
			if c.msg != m && t > c.start+1e-9 && t < c.end-1e-9 {
				// someone else's reservation covers this instant: any
				// transmission by m here is a collision.
				return false
			}
		}
		return false
	}

	// The source CP of each message (the node whose command injects
	// from its AP) paces the packet stream on its local clock.
	srcNode := make([]topology.NodeID, cfg.Graph.NumMessages())
	for i := range srcNode {
		srcNode[i] = -1
	}
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			if c.In.AP {
				srcNode[c.Msg] = ns.Node
			}
		}
	}

	// A message whose path touches a failed element loses every packet
	// at the first such element.
	lostAt := make([]topology.LinkID, cfg.Graph.NumMessages())
	lostKind := make([]string, cfg.Graph.NumMessages())
	linksOf := om.Linksets()
	for m := range lostAt {
		lostAt[m] = -1
		if fs.Empty() || m >= len(linksOf) {
			continue
		}
		for _, l := range linksOf[m] {
			if fs.LinkFailed(l) {
				lostAt[m], lostKind[m] = l, "failed-link"
				break
			}
			if !fs.LinkUsable(cfg.Topology, l) {
				lostAt[m], lostKind[m] = l, "failed-node"
				break
			}
		}
	}

	// Replay the slices packet by packet.
	pktTime := float64(cfg.PacketBytes) / cfg.Bandwidth
	for _, sl := range om.Slices {
		for mi, msg := range sl.Msgs {
			w := om.Windows[msg]
			dur := sl.Until[mi] - sl.Start
			packets := int(math.Floor(dur/pktTime + 1e-9))
			srcSkew := 0.0
			if srcNode[msg] >= 0 {
				srcSkew = skewOf(srcNode[msg])
			}
			for k := 0; k < packets; k++ {
				t0 := sl.Start + srcSkew + cfg.Guard + float64(k)*pktTime
				t1 := t0 + pktTime
				mid := (t0 + t1) / 2
				if lostAt[msg] >= 0 {
					fr.lost++
					fr.lostViolations = append(fr.lostViolations, Violation{
						Msg: msg, Link: lostAt[msg], Time: mid, Kind: lostKind[msg],
					})
					continue
				}
				ok := true
				for _, l := range linksOf[msg] {
					if !claimFor(l, msg, mid) {
						fr.violations = append(fr.violations, Violation{
							Msg: msg, Link: l, Time: mid, Kind: "no-reservation",
						})
						ok = false
					}
				}
				if ok {
					fr.delivered++
					abs := w.AbsoluteTime(sl.Start, om.TauIn) + (t1 - srcSkew - sl.Start)
					if math.IsNaN(fr.deliveries[msg]) || abs > fr.deliveries[msg] {
						fr.deliveries[msg] = abs
					}
				}
			}
		}
	}

	// Cross-message collision sweep over the reservation table itself.
	for l, claims := range perLink {
		for i := 1; i < len(claims); i++ {
			if claims[i].msg != claims[i-1].msg && claims[i].start < claims[i-1].end-1e-9 {
				fr.violations = append(fr.violations, Violation{
					Msg: claims[i].msg, Link: topology.LinkID(l),
					Time: claims[i].start, Kind: "collision",
				})
			}
		}
	}
	return fr, nil
}

// ExpectedPackets returns the per-frame packet count Ω should deliver
// for the given packet size, from the message windows.
func ExpectedPackets(om *schedule.Omega, packetBytes int, bandwidth float64) int {
	pktTime := float64(packetBytes) / bandwidth
	total := 0
	for _, sl := range om.Slices {
		for mi := range sl.Msgs {
			dur := sl.Until[mi] - sl.Start
			total += int(math.Floor(dur/pktTime + 1e-9))
		}
	}
	return total
}
