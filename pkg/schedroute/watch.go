package schedroute

import (
	"schedroute/internal/errkind"
)

// Watch wire vocabulary: /v1/watch turns the request/response repair
// API into a stream. A client registers a Problem and receives an SSE
// stream of frames; it pushes WatchEvents (faults striking, faults
// repaired, period changes) at the events endpoint and each event
// yields a schedule frame carrying the repair ladder's outcome for the
// subscription's cumulative fault state.
//
// Frame sequence numbers are monotonic per subscription and double as
// SSE ids, so a dropped connection resumes with a standard
// Last-Event-ID header against the server's bounded replay ring; a
// consumer that falls behind the ring is coalesced to the latest
// fault state (Gap marks the jump) rather than ever blocking the
// repair loop.

// Watch frame types.
const (
	// WatchFrameHello opens every new subscription stream: it carries
	// the subscription id and the base (fault-free) schedule result.
	WatchFrameHello = "hello"
	// WatchFrameSchedule carries one repaired schedule: the ladder
	// outcome for the fault state after an event applied.
	WatchFrameSchedule = "schedule"
	// WatchFrameHeartbeat keeps idle streams alive; it carries the
	// latest frame seq but no schedule payload and is never replayed.
	WatchFrameHeartbeat = "heartbeat"
	// WatchFrameGap precedes a frame delivered after skipped history:
	// the consumer fell behind the replay ring (or resumed past it) and
	// was coalesced to the latest fault state.
	WatchFrameGap = "gap"
	// WatchFrameError reports a rejected event or an internal failure;
	// Terminal distinguishes a subscription-fatal error from a skipped
	// event.
	WatchFrameError = "error"
	// WatchFrameClosing is the terminal frame of a graceful close:
	// client delete, idle reap, or server drain.
	WatchFrameClosing = "closing"
)

// Watch event types.
const (
	// WatchEventFault adds the named links/nodes to the fault state.
	WatchEventFault = "fault"
	// WatchEventRepaired removes the named links/nodes from the fault
	// state (they returned to service).
	WatchEventRepaired = "fault-repaired"
	// WatchEventTauIn changes the invocation period: the base schedule
	// is re-solved at the new τin and the fault state re-applied.
	WatchEventTauIn = "tau_in"
)

// WatchRequest registers a streaming reconfiguration subscription.
type WatchRequest struct {
	Problem Problem `json:"problem"`
	Options Options `json:"options,omitempty"`
	// Tenant scopes the subscription (v2); absent means the default
	// tenant. An admitted tenant's subscription stands on its admitted
	// schedule and repairs inside its admission-time link shares, like
	// its /v1/schedule and /v1/repair; a tau_in event is refused.
	Tenant *Tenant `json:"tenant,omitempty"`
	// IncludeOmega embeds the repaired Ω artifact in every schedule
	// frame (and the base Ω in the hello frame).
	IncludeOmega bool `json:"include_omega,omitempty"`
	// Execute replays each repaired Ω through the deterministic
	// executor and attaches the OI-window check to the frame.
	Execute bool `json:"execute,omitempty"`
	// Invocations is the executor run length (0 = 8, else 2 to
	// MaxInvocations; only with Execute).
	Invocations int `json:"invocations,omitempty"`
}

// Validate checks the subscription shape beyond what problem building
// covers.
func (r WatchRequest) Validate() error {
	return checkInvocations("watch", r.Invocations)
}

// WatchEvent is one pushed reconfiguration event. Links use the same
// "u-v" node-pair syntax as FaultSpec.
type WatchEvent struct {
	SchemaVersion int `json:"schema_version,omitempty"`
	// Type is "fault", "fault-repaired", or "tau_in".
	Type  string   `json:"type"`
	Links []string `json:"links,omitempty"`
	Nodes []int    `json:"nodes,omitempty"`
	// TauIn is the new invocation period in µs (tau_in events only).
	TauIn float64 `json:"tau_in,omitempty"`
}

// Validate checks the event shape (element resolution against the
// topology happens server-side at enqueue time).
func (e WatchEvent) Validate() error {
	if err := CheckSchemaVersion(e.SchemaVersion); err != nil {
		return err
	}
	switch e.Type {
	case WatchEventFault, WatchEventRepaired:
		if len(e.Links) == 0 && len(e.Nodes) == 0 {
			return errkind.BadInput("watch event %q: at least one link or node required", e.Type)
		}
		if e.TauIn != 0 {
			return errkind.BadInput("watch event %q: tau_in is only valid on %q events", e.Type, WatchEventTauIn)
		}
	case WatchEventTauIn:
		if e.TauIn <= 0 {
			return errkind.BadInput("watch event tau_in: period must be positive, got %g", e.TauIn)
		}
		if len(e.Links) != 0 || len(e.Nodes) != 0 {
			return errkind.BadInput("watch event tau_in: links/nodes are not valid here")
		}
	case "":
		return errkind.BadInput("watch event: type is required")
	default:
		return errkind.BadInput("schedroute: unknown watch event type %q (want %q, %q or %q)",
			e.Type, WatchEventFault, WatchEventRepaired, WatchEventTauIn)
	}
	return nil
}

// WatchEventAck is the response to a successfully enqueued event.
type WatchEventAck struct {
	SchemaVersion int `json:"schema_version"`
	// EventSeq is the monotonic per-subscription event number; the
	// frame this event produces carries it back as its event_seq.
	EventSeq int64 `json:"event_seq"`
}

// OICheck is the executor-verified output behaviour of a repaired Ω,
// attached to schedule frames when the subscription asked for Execute:
// the output-interval (OI) consistency check plus the measured
// normalized throughput.
type OICheck struct {
	// Invocations is the executor run length the check used.
	Invocations int `json:"invocations"`
	// ThroughputMid is the mid normalized throughput over the run.
	ThroughputMid float64 `json:"throughput_mid"`
	// OI is true when the output intervals are inconsistent — the
	// repaired schedule violates the constant-output-rate contract.
	OI bool `json:"oi"`
}

// WatchFrame is one SSE data payload. Seq doubles as the SSE id for
// replayable frames (hello, schedule, error, closing); heartbeat and
// gap frames carry the latest seq for orientation but no id line, so
// they never disturb Last-Event-ID resume.
type WatchFrame struct {
	SchemaVersion int    `json:"schema_version"`
	Seq           int64  `json:"seq"`
	Type          string `json:"type"`
	// SubID is the subscription id (hello frames; resume and event URLs
	// are built from it).
	SubID string `json:"sub_id,omitempty"`
	// EventSeq names the event that produced a schedule or error frame.
	EventSeq int64 `json:"event_seq,omitempty"`
	// State renders the cumulative fault population after the event
	// applied, e.g. "faults{links:3,17}".
	State string `json:"state,omitempty"`
	// TauIn is the subscription's current invocation period.
	TauIn float64 `json:"tau_in,omitempty"`
	// Schedule is the base schedule (hello frames and successful tau_in
	// rebases).
	Schedule *ScheduleResult `json:"schedule,omitempty"`
	// Repair is the ladder's outcome for the cumulative fault state —
	// byte-identical to what POST /v1/repair returns for the same
	// problem and fault set.
	Repair *RepairResult `json:"repair,omitempty"`
	// OI is the executor check of the frame's repaired Ω (Execute only).
	OI *OICheck `json:"oi,omitempty"`
	// Skipped counts frames coalesced away before this one (gap frames).
	Skipped int64 `json:"skipped,omitempty"`
	// Terminal marks the last frame of the stream (closing, fatal error).
	Terminal bool `json:"terminal,omitempty"`
	// Reason explains error and closing frames.
	Reason string `json:"reason,omitempty"`
	// Err carries the shared {error, kind, detail} envelope on error
	// frames — the same classification a standalone request's error
	// body would have, derived from the same errkind table.
	Err *ErrorEnvelope `json:"err,omitempty"`
	// Trace is the event's span tree (watch.event / watch.repair /
	// watch.deliver), attached only when the subscription was created
	// with ?debug=trace. Last field, like every other trace envelope.
	Trace *TraceEnvelope `json:"trace,omitempty"`
}
