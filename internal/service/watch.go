package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"schedroute/internal/errkind"
	"schedroute/internal/metrics"
	"schedroute/internal/schedule"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// Watch span names (under a subscription created with ?debug=trace,
// every processed event records one watch.event tree).
const (
	SpanWatchEvent   = "watch.event"
	SpanWatchRepair  = "watch.repair"
	SpanWatchRebase  = "watch.rebase"
	SpanWatchDeliver = "watch.deliver"
)

// watchRegistry tracks the live subscriptions. closeAll flips it
// read-only for the drain.
type watchRegistry struct {
	mu       sync.Mutex
	subs     map[string]*watchSub
	draining bool
}

func newWatchRegistry() *watchRegistry {
	return &watchRegistry{subs: map[string]*watchSub{}}
}

func (r *watchRegistry) add(sub *watchSub, max int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return errDraining
	}
	if len(r.subs) >= max {
		return errkind.Mark(fmt.Errorf("service: watch subscription limit %d reached", max), errkind.ErrUnavailable)
	}
	r.subs[sub.id] = sub
	return nil
}

func (r *watchRegistry) get(id string) *watchSub {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.subs[id]
}

func (r *watchRegistry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.subs, id)
}

func (r *watchRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// closeAll begins the watch drain: every subscription receives a
// terminal closing frame and its state machine winds down. Returns the
// done channels to wait on.
func (r *watchRegistry) closeAll(reason string) []<-chan struct{} {
	r.mu.Lock()
	r.draining = true
	subs := make([]*watchSub, 0, len(r.subs))
	for _, sub := range r.subs {
		subs = append(subs, sub)
	}
	r.mu.Unlock()
	done := make([]<-chan struct{}, 0, len(subs))
	for _, sub := range subs {
		sub.close(reason, true)
		done = append(done, sub.done)
	}
	return done
}

// queuedEvent pairs a pushed event with its ack'd sequence number.
type queuedEvent struct {
	seq int64
	ev  schedroute.WatchEvent
}

// ringFrame is one replayable frame: pre-marshaled bytes, so every
// consumer (live, resumed, coalesced) delivers the identical payload.
type ringFrame struct {
	seq      int64
	typ      string
	terminal bool
	data     []byte
}

// watchConn is one attached SSE consumer: a cursor into the replay
// ring plus a wakeup channel. Slow consumers only ever fall behind the
// ring — they never hold the repair loop or other consumers back.
type watchConn struct {
	notify chan struct{}
	next   int64
}

// watchSub is one streaming reconfiguration subscription: a pinned
// problem structure, a repair session over the base schedule, a
// bounded event queue feeding a single state-machine goroutine, and a
// bounded replay ring fanned out to any number of SSE consumers.
//
// Robustness contract:
//   - the state machine is one goroutine; a panic while processing an
//     event is recovered, reported as a terminal error frame, and
//     confined to this subscription;
//   - the event queue is bounded and enqueue never blocks (overflow is
//     a 503 at the events endpoint);
//   - delivery is pull-based over the ring: a consumer that falls off
//     the ring's tail is coalesced to the latest fault state (gap
//     frame + newest frame) instead of back-pressuring anything;
//   - every close path — client delete, idle reap, drain, panic —
//     ends the stream with a terminal frame.
type watchSub struct {
	id     string
	s      *Server
	req    schedroute.WatchRequest
	built  *schedroute.Built
	solver *schedule.Solver
	sopts  schedule.Options
	traced bool

	events    chan queuedEvent
	quit      chan struct{}
	done      chan struct{}
	ctx       context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once

	// State owned by the run goroutine (initialized before it starts):
	// the invocation period, the cumulative fault population, and the
	// repair session over the base schedule at that period.
	tauIn   float64
	fs      *topology.FaultSet
	session *schedule.RepairSession

	mu         sync.Mutex
	evSeq      int64
	seq        int64
	ringStart  int64 // seq of ring[0]; 0 when the ring is empty
	ring       []ringFrame
	conns      map[*watchConn]struct{}
	closed     bool
	lastActive time.Time
}

// Session exposes the subscription's repair session (tests assert its
// stats: single-link events must not run full solves).
func (sub *watchSub) Session() *schedule.RepairSession { return sub.session }

func newWatchID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return "w" + hex.EncodeToString(b[:])
}

// ---- HTTP handlers -------------------------------------------------

// handleWatchCreate registers a subscription: resolve the problem
// through the solver cache, solve the base schedule, start the state
// machine, and stream frames from the hello onward.
func (s *Server) handleWatchCreate(w http.ResponseWriter, r *http.Request) {
	var req schedroute.WatchRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err, nil)
		return
	}
	traced := r.URL.Query().Get("debug") == "trace"
	s.metrics.observeTenantRequest("watch", schedroute.TenantOrDefault(req.Tenant).ID)

	// The base solve borrows an admission slot like any other request;
	// only the long-lived stream afterwards lives outside the pool.
	if err := s.admit(r.Context()); err != nil {
		s.writeError(w, err, nil)
		return
	}
	ent, _ := s.cache.getOrCreate(req.Problem.StructureKey(), func() (*schedroute.Built, error) {
		return schedroute.NewProblem(req.Problem)
	})
	if ent.err != nil {
		s.release()
		s.writeError(w, ent.err, nil)
		return
	}
	tauIn := req.Problem.TauIn
	if tauIn == 0 {
		tauIn = ent.built.Timing.TauC()
	}
	sopts, err := req.Options.ToSchedule()
	if err != nil {
		s.release()
		s.writeError(w, err, nil)
		return
	}
	solveOpts := sopts
	solveOpts.CollectStats = true
	base, err := ent.solver.Solve(r.Context(), tauIn, solveOpts)
	s.release()
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	s.metrics.observeSolve(base.Stats)
	if !base.Feasible {
		s.writeError(w, errkind.Mark(
			fmt.Errorf("watch: base problem infeasible at stage %s; a watch needs a feasible base schedule", base.FailStage),
			errkind.ErrBadInput), nil)
		return
	}
	session, err := schedule.NewRepairSession(ent.built.ScheduleProblemAt(tauIn), sopts, base)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	sub := &watchSub{
		id:         newWatchID(),
		s:          s,
		req:        req,
		built:      ent.built,
		solver:     ent.solver,
		sopts:      sopts,
		traced:     traced,
		events:     make(chan queuedEvent, s.cfg.WatchEventQueue),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		ctx:        ctx,
		cancel:     cancel,
		tauIn:      tauIn,
		fs:         topology.NewFaultSet(ent.built.Topology.Links(), ent.built.Topology.Nodes()),
		session:    session,
		conns:      map[*watchConn]struct{}{},
		lastActive: time.Now(),
	}
	if err := s.watches.add(sub, s.cfg.MaxWatchSubs); err != nil {
		cancel()
		s.writeError(w, err, nil)
		return
	}
	s.metrics.watchSubs.Add(1)

	// The hello frame is seq 1 and lives in the ring like every other
	// replayable frame, so a resume from 0 replays it too.
	wire, err := schedroute.NewScheduleResult(ent.built, base, tauIn, req.IncludeOmega, req.Options.WantStats())
	if err != nil {
		sub.close("internal error", false)
		s.writeError(w, err, nil)
		return
	}
	sub.append(&schedroute.WatchFrame{
		Type:     schedroute.WatchFrameHello,
		SubID:    sub.id,
		State:    sub.fs.String(),
		TauIn:    tauIn,
		Schedule: wire,
	})

	go sub.run()
	sub.serveConn(w, r, 1)
}

// handleWatchAttach resumes the stream of an existing subscription.
// With a Last-Event-ID header delivery restarts after that frame;
// without one it starts at the newest frame (the current state).
func (s *Server) handleWatchAttach(w http.ResponseWriter, r *http.Request) {
	sub := s.watches.get(r.PathValue("id"))
	if sub == nil {
		writeWatchNotFound(w, r.PathValue("id"))
		return
	}
	from := int64(0)
	if h := r.Header.Get("Last-Event-ID"); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v < 0 {
			s.writeError(w, errkind.Mark(fmt.Errorf("watch: bad Last-Event-ID %q", h), errkind.ErrBadInput), nil)
			return
		}
		from = v + 1
	} else {
		sub.mu.Lock()
		from = sub.seq // newest frame only
		if from < 1 {
			from = 1
		}
		sub.mu.Unlock()
	}
	sub.serveConn(w, r, from)
}

// handleWatchEvent validates, sequences, and enqueues one event. The
// queue is bounded and never blocks: overflow is load shedding (503),
// same family as a full solve queue.
func (s *Server) handleWatchEvent(w http.ResponseWriter, r *http.Request) {
	sub := s.watches.get(r.PathValue("id"))
	if sub == nil {
		writeWatchNotFound(w, r.PathValue("id"))
		return
	}
	var ev schedroute.WatchEvent
	if err := decode(r, &ev); err != nil {
		s.writeError(w, err, nil)
		return
	}
	if err := ev.Validate(); err != nil {
		s.writeError(w, err, nil)
		return
	}
	// Resolve named elements against the topology now, so the queue
	// only ever holds resolvable events and a typo is a 400, not a
	// mid-stream error frame.
	if ev.Type != schedroute.WatchEventTauIn {
		if _, err := (schedroute.FaultSpec{Links: ev.Links, Nodes: ev.Nodes}).Build(sub.built.Topology); err != nil {
			s.writeError(w, err, nil)
			return
		}
	}

	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		s.writeError(w, errkind.Mark(fmt.Errorf("watch: subscription %s is closed", sub.id), errkind.ErrUnavailable), nil)
		return
	}
	sub.evSeq++
	qe := queuedEvent{seq: sub.evSeq, ev: ev}
	sub.lastActive = time.Now()
	sub.mu.Unlock()

	select {
	case sub.events <- qe:
	default:
		s.writeError(w, errkind.Mark(
			fmt.Errorf("watch: event queue full (%d pending)", cap(sub.events)), errkind.ErrUnavailable), nil)
		return
	}
	s.metrics.watchEvents.Add(1)
	writeJSON(w, schedroute.WatchEventAck{SchemaVersion: schedroute.SchemaVersion, EventSeq: qe.seq})
}

// handleWatchDelete closes a subscription gracefully: every attached
// consumer receives a terminal closing frame.
func (s *Server) handleWatchDelete(w http.ResponseWriter, r *http.Request) {
	sub := s.watches.get(r.PathValue("id"))
	if sub == nil {
		writeWatchNotFound(w, r.PathValue("id"))
		return
	}
	sub.close("deleted by client", true)
	writeJSON(w, map[string]string{"status": "closing"})
}

// writeWatchNotFound reports an unknown subscription id through the
// shared envelope: the id format is fine, the resource is gone, so the
// error is marked not_found and classified by the table like every
// other failure body.
func writeWatchNotFound(w http.ResponseWriter, id string) {
	err := errkind.Mark(
		fmt.Errorf("watch: no subscription %q (expired or never created)", id),
		errkind.ErrNotFound)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusNotFound)
	json.NewEncoder(w).Encode(schedroute.ErrorResponse{
		SchemaVersion: schedroute.SchemaVersion,
		ErrorEnvelope: schedroute.NewErrorEnvelope(err),
	})
}

// ---- subscription state machine ------------------------------------

// run is the subscription's single state-machine goroutine: it applies
// events in order, emits one frame per event, reaps the subscription
// when idle, and winds down on drain or close. A panic while handling
// an event is recovered and terminates only this subscription.
func (sub *watchSub) run() {
	defer close(sub.done)
	defer sub.s.metrics.watchSubs.Add(-1)
	reap := sub.s.cfg.WatchIdleTimeout
	idle := time.NewTicker(reap / 4)
	defer idle.Stop()
	for {
		select {
		case <-sub.quit:
			return
		case <-sub.s.stop:
			sub.close("server draining", true)
			return
		case qe := <-sub.events:
			if !sub.safeHandle(qe) {
				sub.close("event handler panicked", false)
				return
			}
		case <-idle.C:
			sub.mu.Lock()
			expired := len(sub.conns) == 0 && time.Since(sub.lastActive) > reap
			sub.mu.Unlock()
			if expired {
				sub.close("idle timeout: no consumers and no events", true)
				return
			}
		}
	}
}

// safeHandle isolates a panicking event handler: the panic is turned
// into a terminal error frame on this subscription's stream and the
// server (and every other subscription) keeps running. Returns false
// when a panic occurred.
func (sub *watchSub) safeHandle(qe queuedEvent) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			sub.s.metrics.watchPanics.Add(1)
			sub.s.log.Error("watch subscription panic", "sub", sub.id, "event_seq", qe.seq, "panic", fmt.Sprint(r))
			sub.append(&schedroute.WatchFrame{
				Type:     schedroute.WatchFrameError,
				EventSeq: qe.seq,
				Terminal: true,
				Reason:   fmt.Sprintf("internal panic handling event %d: %v", qe.seq, r),
			})
		}
	}()
	sub.handleEvent(qe)
	return true
}

// claimWorker borrows one solve-pool slot for this event's repair (or
// rebase) work so watch subscriptions share the same Workers bound as
// request/response solves. Returns false when the subscription or
// server is shutting down instead.
func (sub *watchSub) claimWorker() (func(), bool) {
	select {
	case sub.s.sem <- struct{}{}:
		return func() { <-sub.s.sem }, true
	case <-sub.quit:
		return nil, false
	case <-sub.s.stop:
		return nil, false
	}
}

// handleEvent applies one event to the fault state and emits the
// resulting frame. Rejections that only concern this event (repairing
// a healthy element, an infeasible rebase, a ladder that ran dry) are
// non-terminal error frames; the stream survives them.
func (sub *watchSub) handleEvent(qe queuedEvent) {
	if sub.s.beforeWatchEvent != nil {
		sub.s.beforeWatchEvent(sub.id, qe.ev)
	}
	start := time.Now()
	var root *trace.Span
	if sub.traced {
		root = trace.Start(SpanWatchEvent,
			trace.Int64("event_seq", qe.seq), trace.String("type", qe.ev.Type))
	}

	frame := sub.applyEvent(qe, root)
	if frame == nil {
		return // shutdown raced the event; the closing frame speaks
	}
	ds := root.Start(SpanWatchDeliver)
	ds.End()
	if sub.traced {
		root.SetAttrs(trace.String("state", frame.State))
		root.End()
		frame.Trace = schedroute.NewTraceEnvelope(root.Tree())
	}
	sub.append(frame)
	sub.s.metrics.observeWatchEvent(time.Since(start))
}

// errorFrame builds a non-terminal error frame for a rejected event,
// carrying the same {error, kind, detail} envelope a standalone
// request's error body would (derived from the same errkind table).
func (sub *watchSub) errorFrame(qe queuedEvent, err error) *schedroute.WatchFrame {
	env := schedroute.NewErrorEnvelope(err)
	return &schedroute.WatchFrame{
		Type:     schedroute.WatchFrameError,
		EventSeq: qe.seq,
		State:    sub.fs.String(),
		TauIn:    sub.tauIn,
		Reason:   err.Error(),
		Err:      &env,
	}
}

// rejectEvent is errorFrame for event-validation failures: the event
// named something the fault model cannot apply, a bad_input family.
func (sub *watchSub) rejectEvent(qe queuedEvent, format string, args ...any) *schedroute.WatchFrame {
	return sub.errorFrame(qe, errkind.Mark(fmt.Errorf(format, args...), errkind.ErrBadInput))
}

// applyEvent mutates the subscription state for one event and builds
// its frame. A nil return means shutdown interrupted the work and no
// frame should be emitted.
func (sub *watchSub) applyEvent(qe queuedEvent, root *trace.Span) *schedroute.WatchFrame {
	ev := qe.ev
	switch ev.Type {
	case schedroute.WatchEventTauIn:
		return sub.rebase(qe, root)
	case schedroute.WatchEventFault, schedroute.WatchEventRepaired:
		delta, err := (schedroute.FaultSpec{Links: ev.Links, Nodes: ev.Nodes}).Build(sub.built.Topology)
		if err != nil {
			return sub.errorFrame(qe, err)
		}
		if ev.Type == schedroute.WatchEventRepaired {
			// Validate before mutating: a partial application would
			// desynchronize client and server fault models.
			for _, l := range delta.FailedLinks() {
				if !sub.fs.LinkFailed(l) {
					return sub.rejectEvent(qe, "event %d: link %d is not failed", qe.seq, l)
				}
			}
			for _, n := range delta.FailedNodes() {
				if !sub.fs.NodeFailed(n) {
					return sub.rejectEvent(qe, "event %d: node %d is not failed", qe.seq, n)
				}
			}
			for _, l := range delta.FailedLinks() {
				sub.fs.RepairLink(l)
			}
			for _, n := range delta.FailedNodes() {
				sub.fs.RepairNode(n)
			}
		} else {
			for _, l := range delta.FailedLinks() {
				if sub.fs.LinkFailed(l) {
					return sub.rejectEvent(qe, "event %d: link %d is already failed", qe.seq, l)
				}
			}
			for _, n := range delta.FailedNodes() {
				if sub.fs.NodeFailed(n) {
					return sub.rejectEvent(qe, "event %d: node %d is already failed", qe.seq, n)
				}
			}
			for _, l := range delta.FailedLinks() {
				sub.fs.FailLink(l)
			}
			for _, n := range delta.FailedNodes() {
				sub.fs.FailNode(n)
			}
		}
		return sub.repairFrame(qe, root)
	default:
		return sub.rejectEvent(qe, "event %d: unknown type %q", qe.seq, ev.Type)
	}
}

// repairFrame runs the repair session at the current fault state and
// packages the schedule frame. An infeasible ladder (every rung
// rejected) is a non-terminal error frame carrying the full report —
// the stream keeps running so a later fault-repaired event can recover.
func (sub *watchSub) repairFrame(qe queuedEvent, root *trace.Span) *schedroute.WatchFrame {
	release, ok := sub.claimWorker()
	if !ok {
		return nil
	}
	rs := root.Start(SpanWatchRepair)
	rep, cached, err := sub.session.Apply(sub.ctx, sub.fs, rs)
	rs.SetAttrs(trace.Bool("cached", cached))
	rs.End()
	release()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return sub.errorFrame(qe, fmt.Errorf("event %d: repair failed: %w", qe.seq, err))
	}
	if rerr := rep.Err(); rerr != nil {
		frame := sub.errorFrame(qe, rerr)
		if wire, werr := schedroute.NewRepairResult(rep, false); werr == nil {
			frame.Repair = wire
		}
		return frame
	}
	wire, err := schedroute.NewRepairResult(rep, sub.req.IncludeOmega)
	if err != nil {
		return sub.errorFrame(qe, fmt.Errorf("event %d: %w", qe.seq, err))
	}
	frame := &schedroute.WatchFrame{
		Type:     schedroute.WatchFrameSchedule,
		EventSeq: qe.seq,
		State:    sub.fs.String(),
		TauIn:    sub.tauIn,
		Repair:   wire,
	}
	if sub.req.Execute && rep.Result != nil && rep.Result.Omega != nil {
		frame.OI = sub.oiCheck(rep)
	}
	return frame
}

// rebase handles a tau_in event: re-solve the base schedule at the new
// period through the pinned solver, restart the repair session, and
// re-apply the current fault state. An infeasible period is rejected
// without touching the previous state.
func (sub *watchSub) rebase(qe queuedEvent, root *trace.Span) *schedroute.WatchFrame {
	release, ok := sub.claimWorker()
	if !ok {
		return nil
	}
	rb := root.Start(SpanWatchRebase, trace.Float64("tau_in", qe.ev.TauIn))
	solveOpts := sub.sopts
	solveOpts.CollectStats = true
	res, err := sub.solver.Solve(sub.ctx, qe.ev.TauIn, solveOpts)
	rb.End()
	release()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return sub.errorFrame(qe, fmt.Errorf("event %d: rebase solve failed: %w", qe.seq, err))
	}
	sub.s.metrics.observeSolve(res.Stats)
	if !res.Feasible {
		return sub.rejectEvent(qe, "event %d: tau_in %g infeasible at stage %s; keeping period %g",
			qe.seq, qe.ev.TauIn, res.FailStage, sub.tauIn)
	}
	session, err := schedule.NewRepairSession(sub.built.ScheduleProblemAt(qe.ev.TauIn), sub.sopts, res)
	if err != nil {
		return sub.errorFrame(qe, fmt.Errorf("event %d: %w", qe.seq, err))
	}
	sub.tauIn = qe.ev.TauIn
	sub.session = session

	wire, err := schedroute.NewScheduleResult(sub.built, res, sub.tauIn, sub.req.IncludeOmega, sub.req.Options.WantStats())
	if err != nil {
		return sub.errorFrame(qe, fmt.Errorf("event %d: %w", qe.seq, err))
	}
	frame := &schedroute.WatchFrame{
		Type:     schedroute.WatchFrameSchedule,
		EventSeq: qe.seq,
		State:    sub.fs.String(),
		TauIn:    sub.tauIn,
		Schedule: wire,
	}
	if !sub.fs.Empty() {
		repFrame := sub.repairFrame(qe, root)
		if repFrame == nil {
			return nil
		}
		if repFrame.Type == schedroute.WatchFrameError {
			return repFrame
		}
		frame.Repair = repFrame.Repair
		frame.OI = repFrame.OI
	}
	return frame
}

// oiCheck replays the repaired Ω through the deterministic executor
// and reports the OI-window verdict: whether the repaired schedule
// still honours the constant-output-rate contract at its τout.
func (sub *watchSub) oiCheck(rep *schedule.RepairReport) *schedroute.OICheck {
	inv := sub.req.Invocations
	if inv == 0 {
		inv = 8
	}
	exec, err := schedule.Execute(rep.Result.Omega, sub.built.Graph, sub.built.Timing, sub.built.Timing.TauC(), inv)
	if err != nil {
		return nil
	}
	ivs := metrics.Intervals(exec.OutputCompletions)
	th, err := metrics.NormalizedThroughput(rep.TauOut, ivs)
	if err != nil {
		return nil
	}
	return &schedroute.OICheck{
		Invocations:   inv,
		ThroughputMid: th.Mid,
		OI:            metrics.OutputInconsistent(rep.TauOut, ivs, 1e-6),
	}
}

// ---- frame ring and delivery ---------------------------------------

// append assigns the next sequence number, marshals the frame once,
// pushes it onto the bounded replay ring, and wakes every consumer.
// Terminal frames also mark the subscription closed.
func (sub *watchSub) append(f *schedroute.WatchFrame) {
	f.SchemaVersion = schedroute.SchemaVersion
	if f.Type == schedroute.WatchFrameClosing {
		f.Terminal = true
	}
	sub.mu.Lock()
	sub.seq++
	f.Seq = sub.seq
	data, err := json.Marshal(f)
	if err != nil {
		// A frame that cannot marshal is an internal bug; deliver the
		// reason instead of silently dropping the seq.
		data, _ = json.Marshal(&schedroute.WatchFrame{
			SchemaVersion: schedroute.SchemaVersion, Seq: f.Seq,
			Type: schedroute.WatchFrameError, Reason: fmt.Sprintf("frame marshal: %v", err),
		})
	}
	if sub.ringStart == 0 {
		sub.ringStart = f.Seq
	}
	sub.ring = append(sub.ring, ringFrame{seq: f.Seq, typ: f.Type, terminal: f.Terminal, data: data})
	over := len(sub.ring) - sub.s.cfg.WatchRing
	if over > 0 {
		sub.ring = append(sub.ring[:0], sub.ring[over:]...)
		sub.ringStart = sub.ring[0].seq
	}
	if f.Terminal {
		sub.closed = true
	}
	for c := range sub.conns {
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
	sub.mu.Unlock()
	sub.s.metrics.watchFrames.Add(1)
}

// collect returns the frames a consumer should deliver next. When the
// cursor has fallen off the ring's tail the consumer is coalesced to
// the latest frame — the newest fault state — and the skip is
// reported so the stream can mark the gap.
func (sub *watchSub) collect(c *watchConn) (frames []ringFrame, skipped int64, latest int64, closed bool) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	latest = sub.seq
	closed = sub.closed
	if len(sub.ring) == 0 || c.next > sub.seq {
		return nil, 0, latest, closed
	}
	if c.next < sub.ringStart {
		// Coalesce-to-latest: deliver only the newest frame.
		skipped = sub.seq - c.next
		newest := sub.ring[len(sub.ring)-1]
		c.next = sub.seq + 1
		return []ringFrame{newest}, skipped, latest, closed
	}
	for _, rf := range sub.ring {
		if rf.seq >= c.next {
			frames = append(frames, rf)
		}
	}
	c.next = sub.seq + 1
	return frames, 0, latest, closed
}

func (sub *watchSub) addConn(c *watchConn) {
	sub.mu.Lock()
	sub.conns[c] = struct{}{}
	sub.lastActive = time.Now()
	sub.mu.Unlock()
}

func (sub *watchSub) removeConn(c *watchConn) {
	sub.mu.Lock()
	delete(sub.conns, c)
	sub.lastActive = time.Now()
	sub.mu.Unlock()
}

// serveConn streams the subscription to one SSE consumer starting at
// frame seq `from`. It returns when a terminal frame is delivered, the
// client disconnects, or a write fails. Replayable frames carry their
// seq as the SSE id (Last-Event-ID resume); heartbeat and gap frames
// do not, so they never disturb the resume cursor.
func (sub *watchSub) serveConn(w http.ResponseWriter, r *http.Request, from int64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	c := &watchConn{notify: make(chan struct{}, 1), next: from}
	sub.addConn(c)
	defer sub.removeConn(c)

	hb := time.NewTicker(sub.s.cfg.WatchHeartbeat)
	defer hb.Stop()

	for {
		frames, skipped, latest, closed := sub.collect(c)
		if skipped > 0 {
			sub.s.metrics.watchDropped.Add(skipped)
			gap, _ := json.Marshal(&schedroute.WatchFrame{
				SchemaVersion: schedroute.SchemaVersion,
				Seq:           latest,
				Type:          schedroute.WatchFrameGap,
				Skipped:       skipped,
				Reason:        "consumer fell behind the replay ring; coalesced to the latest fault state",
			})
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", schedroute.WatchFrameGap, gap); err != nil {
				return
			}
		}
		for _, rf := range frames {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", rf.seq, rf.typ, rf.data); err != nil {
				return
			}
			if rf.terminal {
				fl.Flush()
				return
			}
		}
		fl.Flush()
		if closed {
			return // everything up to the terminal frame already delivered
		}
		select {
		case <-c.notify:
		case <-hb.C:
			sub.mu.Lock()
			latest := sub.seq
			sub.mu.Unlock()
			beat, _ := json.Marshal(&schedroute.WatchFrame{
				SchemaVersion: schedroute.SchemaVersion,
				Seq:           latest,
				Type:          schedroute.WatchFrameHeartbeat,
			})
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", schedroute.WatchFrameHeartbeat, beat); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// close winds the subscription down exactly once. withFrame appends a
// terminal closing frame first (the panic path already appended its
// own terminal error frame).
func (sub *watchSub) close(reason string, withFrame bool) {
	sub.closeOnce.Do(func() {
		if withFrame {
			sub.append(&schedroute.WatchFrame{
				Type:   schedroute.WatchFrameClosing,
				Reason: reason,
			})
		} else {
			sub.mu.Lock()
			sub.closed = true
			for c := range sub.conns {
				select {
				case c.notify <- struct{}{}:
				default:
				}
			}
			sub.mu.Unlock()
		}
		sub.cancel()
		close(sub.quit)
		sub.s.watches.remove(sub.id)
	})
}
