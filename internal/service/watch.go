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
		return unavailable("service: watch subscription limit %d reached", max)
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

// The watch bounds: a full event queue answers 503, never blocks; a
// consumer that falls off the replay ring is coalesced to the latest
// frame; a subscription idle past watchIdleTimeout is reaped.
const (
	maxWatchSubs     = 64               // concurrent subscriptions
	watchEventQueue  = 16               // pending events per subscription
	watchRing        = 64               // frames kept for Last-Event-ID resume
	watchHeartbeat   = 15 * time.Second // idle-stream keepalive
	watchIdleTimeout = 2 * time.Minute  // no consumer and no event
)

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
	tenant *tenantEntry // nil unless the subscriber is an admitted tenant
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
	// repair session over the base schedule at that period (a tenant's
	// subscription has none: it repairs through the tenant's own).
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

// randomHex returns 2n hex digits from crypto/rand.
func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b)
}

// ---- endpoint functions --------------------------------------------

// watchStream is the response of the two SSE endpoints: the adapter
// streams the subscription to the client from frame seq `from` on.
type watchStream struct {
	sub  *watchSub
	from int64
}

// watchCreate is POST /v1/watch: register a subscription over the
// problem's base schedule, start the state machine, and stream frames
// from the hello onward.
func (s *Server) watchCreate(c *call, req schedroute.WatchRequest) (watchStream, error) {
	ten, err := c.tenant(req.Tenant, req.Problem)
	if err == nil {
		err = req.Validate()
	}
	if err != nil {
		return watchStream{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	sub := &watchSub{
		id:         "w" + randomHex(8),
		s:          s,
		req:        req,
		tenant:     ten,
		traced:     c.root.Enabled(),
		events:     make(chan queuedEvent, s.watchEventQueue),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		ctx:        ctx,
		cancel:     cancel,
		conns:      map[*watchConn]struct{}{},
		lastActive: time.Now(),
	}
	hello, err := sub.base(c)
	if err == nil {
		sub.fs = topology.NewFaultSet(sub.built.Topology.Links(), sub.built.Topology.Nodes())
		err = s.watches.add(sub, s.maxWatchSubs)
	}
	if err != nil {
		cancel()
		return watchStream{}, err
	}
	s.metrics.add(mWatchSubs, 1)

	// The hello frame is seq 1 and lives in the ring like every other
	// replayable frame, so a resume from 0 replays it too.
	sub.append(&schedroute.WatchFrame{
		Type:     schedroute.WatchFrameHello,
		SubID:    sub.id,
		State:    sub.fs.String(),
		TauIn:    sub.tauIn,
		Schedule: hello,
	})
	go sub.run()
	return watchStream{sub, 1}, nil
}

// base pins the subscription's structure and period and returns the
// schedule its hello announces: an admitted tenant's standing, like its
// /v1/schedule, or a solved base (borrowing a worker slot — only the
// long-lived stream lives outside the pool) with a session opened on it.
func (sub *watchSub) base(c *call) (*schedroute.ScheduleResult, error) {
	req := sub.req
	if ten := sub.tenant; ten != nil {
		sub.built, sub.tauIn = ten.built, ten.report.TauOut
		return c.s.tenantSchedule(ten, req.IncludeOmega, req.Options.WantStats())
	}
	sopts, err := req.Options.ToSchedule()
	if err != nil {
		return nil, err
	}
	if err := c.queue(); err != nil {
		return nil, err
	}
	sv, err := c.solve(req.Problem, req.Options)
	c.s.release()
	if err != nil {
		return nil, err
	}
	if !sv.res.Feasible {
		return nil, badInput("watch: base problem infeasible at stage %s; a watch needs a feasible base schedule", sv.res.FailStage)
	}
	sub.built, sub.solver, sub.tauIn, sub.sopts = sv.built, sv.solver, sv.tauIn, sopts
	if sub.session, err = schedule.NewRepairSession(sv.built.ScheduleProblemAt(sv.tauIn), sopts, sv.res); err != nil {
		return nil, err
	}
	return schedroute.NewScheduleResult(sv.built, sv.res, sv.tauIn, req.IncludeOmega, req.Options.WantStats())
}

// subscription resolves the {id} path segment; an unknown id is
// well-formed but names nothing held here, so not_found.
func (c *call) subscription() (*watchSub, error) {
	id := c.r.PathValue("id")
	if sub := c.s.watches.get(id); sub != nil {
		return sub, nil
	}
	return nil, errkind.Mark(fmt.Errorf("watch: no subscription %q (expired or never created)", id), errkind.ErrNotFound)
}

// watchAttach is GET /v1/watch/{id}: resume a subscription's stream,
// after the Last-Event-ID frame if the header is set, else at the
// newest frame (the current state).
func (s *Server) watchAttach(c *call, _ struct{}) (watchStream, error) {
	sub, err := c.subscription()
	if err != nil {
		return watchStream{}, err
	}
	if h := c.r.Header.Get("Last-Event-ID"); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v < 0 {
			return watchStream{}, badInput("watch: bad Last-Event-ID %q", h)
		}
		return watchStream{sub, v + 1}, nil
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return watchStream{sub, max(sub.seq, 1)}, nil // newest frame only
}

// watchEvent is POST /v1/watch/{id}/events: validate, sequence, and
// enqueue one event. The queue is bounded and never blocks: overflow is
// load shedding (503), same family as a full solve queue.
func (s *Server) watchEvent(c *call, ev schedroute.WatchEvent) (*schedroute.WatchEventAck, error) {
	sub, err := c.subscription()
	if err != nil {
		return nil, err
	}
	if err := ev.Validate(); err != nil {
		return nil, err
	}
	// Resolve named elements against the topology now, so the queue
	// only ever holds resolvable events and a typo is a 400, not a
	// mid-stream error frame.
	if ev.Type != schedroute.WatchEventTauIn {
		if _, err := (schedroute.FaultSpec{Links: ev.Links, Nodes: ev.Nodes}).Build(sub.built.Topology); err != nil {
			return nil, err
		}
	}

	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return nil, unavailable("watch: subscription %s is closed", sub.id)
	}
	sub.evSeq++
	qe := queuedEvent{seq: sub.evSeq, ev: ev}
	sub.lastActive = time.Now()
	sub.mu.Unlock()

	select {
	case sub.events <- qe:
	default:
		return nil, unavailable("watch: event queue full (%d pending)", cap(sub.events))
	}
	s.metrics.add(mWatchEvents, 1)
	return &schedroute.WatchEventAck{SchemaVersion: schedroute.SchemaVersion, EventSeq: qe.seq}, nil
}

// watchDelete is DELETE /v1/watch/{id}: a graceful close — every
// attached consumer receives a terminal closing frame.
func (s *Server) watchDelete(c *call, _ struct{}) (map[string]string, error) {
	sub, err := c.subscription()
	if err != nil {
		return nil, err
	}
	sub.close("deleted by client", true)
	return map[string]string{"status": "closing"}, nil
}

// ---- subscription state machine ------------------------------------

// run is the subscription's single state-machine goroutine: it applies
// events in order, emits one frame per event, reaps the subscription
// when idle, and winds down on drain or close. A panic while handling
// an event is recovered and terminates only this subscription.
func (sub *watchSub) run() {
	defer close(sub.done)
	defer sub.s.metrics.add(mWatchSubs, -1)
	idle := time.NewTicker(watchIdleTimeout / 4)
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
			expired := len(sub.conns) == 0 && time.Since(sub.lastActive) > watchIdleTimeout
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
			sub.s.metrics.add(mWatchPanics, 1)
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
	sub.s.metrics.sample(mWatchEventTime, time.Since(start))
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
	return sub.errorFrame(qe, badInput(format, args...))
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
		// A fault must strike healthy elements and a repair failed ones.
		// Validate everything before mutating anything: a partial
		// application would desynchronize client and server fault models.
		failing, wrong := true, "already failed"
		setLink, setNode := sub.fs.FailLink, sub.fs.FailNode
		if ev.Type == schedroute.WatchEventRepaired {
			failing, wrong = false, "not failed"
			setLink, setNode = sub.fs.RepairLink, sub.fs.RepairNode
		}
		for _, l := range delta.FailedLinks() {
			if sub.fs.LinkFailed(l) == failing {
				return sub.rejectEvent(qe, "event %d: link %d is %s", qe.seq, l, wrong)
			}
		}
		for _, n := range delta.FailedNodes() {
			if sub.fs.NodeFailed(n) == failing {
				return sub.rejectEvent(qe, "event %d: node %d is %s", qe.seq, n, wrong)
			}
		}
		for _, l := range delta.FailedLinks() {
			setLink(l)
		}
		for _, n := range delta.FailedNodes() {
			setNode(n)
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
	rep, cached, err := sub.repair(rs)
	rs.SetAttrs(trace.Bool("cached", cached))
	rs.End()
	release()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return sub.errorFrame(qe, fmt.Errorf("event %d: repair failed: %w", qe.seq, err))
	}
	wire, err := repairResponse(rep, sub.req.IncludeOmega)
	if err != nil {
		frame := sub.errorFrame(qe, err)
		var re *reportError
		if errors.As(err, &re) {
			frame.Repair = re.repair
		}
		return frame
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

// repair runs the ladder at the current fault state: in the
// subscription's own session or — as a tenant-scoped /v1/repair does —
// from the tenant's admitted base inside its admission-time link shares.
func (sub *watchSub) repair(sp *trace.Span) (*schedule.RepairReport, bool, error) {
	if sub.tenant == nil {
		return sub.session.Apply(sub.ctx, sub.fs, sp)
	}
	tr, err := sub.tenant.fab.set.RepairTenant(sub.ctx, sub.tenant.tenant.ID, sub.fs, sp)
	if err != nil {
		return nil, false, err
	}
	return tr.Report, tr.MemoHit, nil
}

// rebase handles a tau_in event: re-solve the base schedule at the new
// period through the pinned solver, restart the repair session, and
// re-apply the current fault state. An infeasible period is rejected
// without touching the previous state.
func (sub *watchSub) rebase(qe queuedEvent, root *trace.Span) *schedroute.WatchFrame {
	if sub.tenant != nil {
		return sub.rejectEvent(qe, "event %d: tenant %q's period was fixed at admission; tau_in does not apply",
			qe.seq, sub.tenant.tenant.ID)
	}
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
	sub.s.metrics.countSolve(res.Stats)
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
	out, err := schedule.CheckOutput(rep.Result.Omega, sub.built.Graph, sub.built.Timing, rep.TauOut, sub.req.Invocations)
	if err != nil {
		return nil
	}
	return &schedroute.OICheck{
		Invocations:   len(out.Exec.OutputCompletions),
		ThroughputMid: out.Throughput.Mid,
		OI:            out.OI,
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
	over := len(sub.ring) - sub.s.watchRing
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
	sub.s.metrics.add(mWatchFrames, 1)
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

	hb := time.NewTicker(watchHeartbeat)
	defer hb.Stop()

	// note writes an unreplayable frame (gap, heartbeat): the latest seq
	// for orientation, no SSE id.
	note := func(f schedroute.WatchFrame) error {
		f.SchemaVersion = schedroute.SchemaVersion
		data, _ := json.Marshal(&f)
		return writeSSE(w, 0, f.Type, data)
	}
	for {
		frames, skipped, latest, closed := sub.collect(c)
		if skipped > 0 {
			sub.s.metrics.add(mWatchDropped, skipped)
			if note(schedroute.WatchFrame{
				Seq: latest, Type: schedroute.WatchFrameGap, Skipped: skipped,
				Reason: "consumer fell behind the replay ring; coalesced to the latest fault state",
			}) != nil {
				return
			}
		}
		for _, rf := range frames {
			if writeSSE(w, rf.seq, rf.typ, rf.data) != nil {
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
			if note(schedroute.WatchFrame{Seq: latest, Type: schedroute.WatchFrameHeartbeat}) != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes one server-sent event; id 0 (frame seqs start at 1)
// omits the id line, so the event never moves a Last-Event-ID cursor.
func writeSSE(w http.ResponseWriter, id int64, typ string, data []byte) error {
	idLine := ""
	if id > 0 {
		idLine = fmt.Sprintf("id: %d\n", id)
	}
	_, err := fmt.Fprintf(w, "%sevent: %s\ndata: %s\n\n", idLine, typ, data)
	return err
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
