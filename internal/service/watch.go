package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
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

// closeAll begins the watch drain: no subscription is added from here
// on, and every live one is ended with a terminal closing frame. It
// returns them, for the caller to wait on their state machines.
func (r *watchRegistry) closeAll(reason string) []*watchSub {
	r.mu.Lock()
	r.draining = true
	subs := make([]*watchSub, 0, len(r.subs))
	for _, sub := range r.subs {
		subs = append(subs, sub)
	}
	r.mu.Unlock()
	for _, sub := range subs {
		sub.end(schedroute.WatchFrameClosing, 0, reason)
	}
	return subs
}

// queuedEvent is one accepted event: its ack'd sequence number and, for
// a fault or fault-repaired event, the elements it names, resolved
// against the topology before it was queued.
type queuedEvent struct {
	seq   int64
	ev    schedroute.WatchEvent
	delta *topology.FaultSet
}

// logFrame is one replayable frame: pre-marshaled bytes, so every
// consumer (live, resumed, coalesced) delivers the identical payload.
type logFrame struct {
	seq      int64
	typ      string
	terminal bool
	data     []byte
}

// The watch bounds: a full event queue answers 503, never blocks; a
// consumer that falls off the frame log is coalesced to the latest
// frame; a subscription idle past watchIdleTimeout is reaped.
const (
	maxWatchSubs     = 64               // concurrent subscriptions
	watchEventQueue  = 16               // pending events per subscription
	watchRing        = 64               // frames kept for Last-Event-ID resume
	watchHeartbeat   = 15 * time.Second // idle-stream keepalive
	watchIdleTimeout = 2 * time.Minute  // no consumer and no event
)

// watchSub is one streaming reconfiguration subscription: a cumulative
// fault set, the repair session that answers for it (its own over a
// pinned base schedule, or an admitted tenant's), and a bounded log of
// the frames that said so, read by any number of SSE consumers. A
// bounded event queue feeds the one goroutine that owns the first two.
//
// Robustness contract:
//   - the state machine is one goroutine; a panic while processing an
//     event is recovered, reported as a terminal error frame, and
//     confined to this subscription;
//   - the event queue is bounded and enqueue never blocks (overflow is
//     a 503 at the events endpoint);
//   - delivery is pull-based over the log: a consumer that falls off
//     its tail is coalesced to the latest fault state (gap frame +
//     newest frame) instead of back-pressuring anything;
//   - every close path — client delete, idle reap, drain, panic — is
//     end: one terminal frame, then the context, the only stop signal.
type watchSub struct {
	id     string
	s      *Server
	req    schedroute.WatchRequest
	tenant *tenantEntry // nil unless the subscriber is an admitted tenant
	built  *schedroute.Built
	solver *schedule.Solver
	sopts  schedule.Options
	traced bool

	events chan queuedEvent
	done   chan struct{} // closed when the state machine has exited
	ctx    context.Context
	cancel context.CancelFunc

	// State owned by the run goroutine (initialized before it starts):
	// the invocation period, the cumulative fault population, and the
	// repair session over the base schedule at that period (a tenant's
	// subscription has none: it repairs through the tenant's own).
	tauIn   float64
	fs      *topology.FaultSet
	session *schedule.RepairSession

	// The frame log: consecutive seqs, at most Server.watchRing of them,
	// the first frame ever appended being seq 1. Its newest frame is the
	// subscription's current state, and a terminal one closes it.
	mu         sync.Mutex
	log        []logFrame
	wake       chan struct{} // closed, and replaced, by every append
	evSeq      int64
	consumers  int
	lastActive time.Time
}

// last is the newest frame of the log — the zero frame, seq 0 and not
// terminal, before the hello. Under sub.mu.
func (sub *watchSub) last() logFrame {
	if n := len(sub.log); n > 0 {
		return sub.log[n-1]
	}
	return logFrame{}
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
// streams the subscription to the client, from the frame after seq
// `seen` on.
type watchStream struct {
	sub  *watchSub
	seen int64
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
		done:       make(chan struct{}),
		ctx:        ctx,
		cancel:     cancel,
		wake:       make(chan struct{}),
		lastActive: time.Now(),
	}
	base, err := sub.open(c)
	if err == nil {
		sub.fs = topology.NewFaultSet()
		err = s.watches.add(sub, s.maxWatchSubs)
	}
	if err != nil {
		cancel()
		return watchStream{}, err
	}
	s.metrics.add(mWatchSubs, 1)

	// The hello frame is seq 1 and lives in the log like every other
	// replayable frame, so a resume from 0 replays it too.
	hello := sub.frame(schedroute.WatchFrameHello, 0)
	hello.SubID, hello.Schedule = sub.id, base
	sub.append(hello)
	go sub.run()
	return watchStream{sub, 0}, nil
}

// open pins the subscription's structure and period and returns the
// schedule its hello announces: an admitted tenant's standing, like its
// /v1/schedule, or a solved base (borrowing a worker slot — only the
// long-lived stream lives outside the pool).
func (sub *watchSub) open(c *call) (*schedroute.ScheduleResult, error) {
	req := sub.req
	if ten := sub.tenant; ten != nil {
		sub.built, sub.tauIn = ten.built, ten.report.TauOut
		return schedroute.NewScheduleResult(ten.built, ten.report.Result, ten.report.TauOut, req.IncludeOmega, req.Options.WantStats())
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
		return nil, errkind.BadInput("watch: base problem infeasible at stage %s; a watch needs a feasible base schedule", sv.res.FailStage)
	}
	sub.built, sub.solver, sub.sopts = sv.built, sv.solver, sopts
	return sub.rebase(sv.res, sv.tauIn)
}

// rebase makes a feasible result at period tauIn the subscription's
// base — a fresh repair session over it — and returns the wire schedule
// that announces it. On error the previous base stands.
func (sub *watchSub) rebase(res *schedule.Result, tauIn float64) (*schedroute.ScheduleResult, error) {
	session, err := schedule.NewRepairSession(sub.built.ScheduleProblemAt(tauIn), sub.sopts, res)
	if err != nil {
		return nil, err
	}
	wire, err := schedroute.NewScheduleResult(sub.built, res, tauIn, sub.req.IncludeOmega, sub.req.Options.WantStats())
	if err != nil {
		return nil, err
	}
	sub.tauIn, sub.session = tauIn, session
	return wire, nil
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
	sub.mu.Lock()
	newest := sub.last().seq
	sub.mu.Unlock()
	seen := max(newest-1, 0)
	if h := c.r.Header.Get("Last-Event-ID"); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v < 0 {
			return watchStream{}, errkind.BadInput("watch: bad Last-Event-ID %q", h)
		}
		// A cursor at or past the newest frame is caught up, however far
		// past it claims to be: nothing to replay, the next frame is its.
		seen = min(v, newest)
	}
	return watchStream{sub, seen}, nil
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
	qe := queuedEvent{ev: ev}
	if ev.Type != schedroute.WatchEventTauIn {
		if qe.delta, err = (schedroute.FaultSpec{Links: ev.Links, Nodes: ev.Nodes}).Build(sub.built.Topology); err != nil {
			return nil, err
		}
	}

	sub.mu.Lock()
	if sub.last().terminal {
		sub.mu.Unlock()
		return nil, unavailable("watch: subscription %s is closed", sub.id)
	}
	sub.evSeq++
	qe.seq = sub.evSeq
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
	sub.end(schedroute.WatchFrameClosing, 0, "deleted by client")
	return map[string]string{"status": "closing"}, nil
}

// ---- subscription state machine ------------------------------------

// run is the subscription's single state-machine goroutine: it applies
// events in order, one frame per event, reaps the subscription when
// idle, and exits once end — whoever called it — cancels the context.
func (sub *watchSub) run() {
	defer close(sub.done)
	defer sub.s.metrics.add(mWatchSubs, -1)
	idle := time.NewTicker(watchIdleTimeout / 4)
	defer idle.Stop()
	for {
		select {
		case <-sub.ctx.Done():
			return
		case qe := <-sub.events:
			sub.handleEvent(qe)
		case <-idle.C:
			sub.mu.Lock()
			expired := sub.consumers == 0 && time.Since(sub.lastActive) > watchIdleTimeout
			sub.mu.Unlock()
			if expired {
				sub.end(schedroute.WatchFrameClosing, 0, "idle timeout: no consumers and no events")
			}
		}
	}
}

// handleEvent applies one event to the fault state and appends the
// resulting frame. A panic on the way is isolated: it ends this
// subscription with a terminal error frame, and the server (and every
// other subscription) keeps running.
func (sub *watchSub) handleEvent(qe queuedEvent) {
	defer func() {
		if r := recover(); r != nil {
			sub.s.metrics.add(mWatchPanics, 1)
			sub.s.log.Error("watch subscription panic", "sub", sub.id, "event_seq", qe.seq, "panic", fmt.Sprint(r))
			sub.end(schedroute.WatchFrameError, qe.seq, fmt.Sprintf("internal panic handling event %d: %v", qe.seq, r))
		}
	}()
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

// frame starts the frame that answers event eventSeq (0: none, the
// hello) with the subscription's state as it stands.
func (sub *watchSub) frame(typ string, eventSeq int64) *schedroute.WatchFrame {
	return &schedroute.WatchFrame{Type: typ, EventSeq: eventSeq, State: sub.fs.String(), TauIn: sub.tauIn}
}

// errorFrame builds a non-terminal error frame for a rejected event,
// carrying the same {error, kind, detail} envelope a standalone
// request's error body would (derived from the same errkind table).
// Rejections that only concern the event — one naming something the
// fault model cannot apply (bad_input: repairing a healthy element, an
// infeasible period), a ladder that ran dry — leave the stream alive.
func (sub *watchSub) errorFrame(qe queuedEvent, err error) *schedroute.WatchFrame {
	env := schedroute.NewErrorEnvelope(err)
	frame := sub.frame(schedroute.WatchFrameError, qe.seq)
	frame.Reason, frame.Err = err.Error(), &env
	return frame
}

// applyEvent mutates the subscription state for one event and builds
// its frame. A nil return means shutdown interrupted the work and no
// frame should be emitted.
func (sub *watchSub) applyEvent(qe queuedEvent, root *trace.Span) *schedroute.WatchFrame {
	if qe.ev.Type == schedroute.WatchEventTauIn {
		return sub.retime(qe, root)
	}
	// A fault must strike healthy elements and a repair failed ones.
	// Validate everything before mutating anything: a partial
	// application would desynchronize client and server fault models.
	failing, wrong := true, "already failed"
	setLink, setNode := sub.fs.FailLink, sub.fs.FailNode
	if qe.ev.Type == schedroute.WatchEventRepaired {
		failing, wrong = false, "not failed"
		setLink, setNode = sub.fs.RepairLink, sub.fs.RepairNode
	}
	for _, l := range qe.delta.FailedLinks() {
		if sub.fs.LinkFailed(l) == failing {
			return sub.errorFrame(qe, errkind.BadInput("event %d: link %d is %s", qe.seq, l, wrong))
		}
	}
	for _, n := range qe.delta.FailedNodes() {
		if sub.fs.NodeFailed(n) == failing {
			return sub.errorFrame(qe, errkind.BadInput("event %d: node %d is %s", qe.seq, n, wrong))
		}
	}
	for _, l := range qe.delta.FailedLinks() {
		setLink(l)
	}
	for _, n := range qe.delta.FailedNodes() {
		setNode(n)
	}
	return sub.repairFrame(qe, root)
}

// repairFrame runs the ladder at the current fault state — on a worker
// slot, so watch subscriptions share the Workers bound with
// request/response solves — and packages the schedule frame. An
// infeasible ladder (every rung rejected) is a non-terminal error frame
// carrying the full report: a later fault-repaired event can recover.
func (sub *watchSub) repairFrame(qe queuedEvent, root *trace.Span) *schedroute.WatchFrame {
	if sub.s.acquire(sub.ctx) != nil {
		return nil
	}
	rs := root.Start(SpanWatchRepair)
	rep, cached, err := sub.repair(rs)
	rs.SetAttrs(trace.Bool("cached", cached))
	rs.End()
	<-sub.s.sem
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
	frame := sub.frame(schedroute.WatchFrameSchedule, qe.seq)
	frame.Repair = wire
	if sub.req.Execute && rep.Result != nil && rep.Result.Omega != nil {
		// Replay the repaired Ω through the deterministic executor: does it
		// still honour the constant-output-rate contract at its τout?
		if out, err := schedule.CheckOutput(rep.Result.Omega, sub.built.Graph, sub.built.Timing, rep.TauOut, sub.req.Invocations); err == nil {
			frame.OI = &schedroute.OICheck{Invocations: len(out.Exec.OutputCompletions), ThroughputMid: out.Throughput.Mid, OI: out.OI}
		}
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
	tr, err := sub.s.tenants.fab.Load().set.RepairTenant(sub.ctx, sub.tenant.tenant.ID, sub.fs, sp)
	if err != nil {
		return nil, false, err
	}
	return tr.Report, tr.MemoHit, nil
}

// retime handles a tau_in event: re-solve the base schedule at the new
// period through the pinned solver, rebase on it, and re-apply the
// current fault state. An infeasible period is rejected without
// touching the previous state.
func (sub *watchSub) retime(qe queuedEvent, root *trace.Span) *schedroute.WatchFrame {
	if sub.tenant != nil {
		return sub.errorFrame(qe, errkind.BadInput("event %d: tenant %q's period was fixed at admission; tau_in does not apply",
			qe.seq, sub.tenant.tenant.ID))
	}
	if sub.s.acquire(sub.ctx) != nil {
		return nil
	}
	rb := root.Start(SpanWatchRebase, trace.Float64("tau_in", qe.ev.TauIn))
	solveOpts := sub.sopts
	solveOpts.CollectStats = true
	res, err := sub.solver.Solve(sub.ctx, qe.ev.TauIn, solveOpts)
	rb.End()
	<-sub.s.sem
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return sub.errorFrame(qe, fmt.Errorf("event %d: rebase solve failed: %w", qe.seq, err))
	}
	sub.s.metrics.countSolve(res.Stats)
	if !res.Feasible {
		return sub.errorFrame(qe, errkind.BadInput("event %d: tau_in %g infeasible at stage %s; keeping period %g",
			qe.seq, qe.ev.TauIn, res.FailStage, sub.tauIn))
	}
	wire, err := sub.rebase(res, qe.ev.TauIn)
	if err != nil {
		return sub.errorFrame(qe, fmt.Errorf("event %d: %w", qe.seq, err))
	}
	if sub.fs.Empty() {
		frame := sub.frame(schedroute.WatchFrameSchedule, qe.seq)
		frame.Schedule = wire
		return frame
	}
	// The standing faults at the new period: the repair's schedule frame
	// announces the new base too; a ladder that ran dry there, or a
	// shutdown, answers as it would for a fault event.
	frame := sub.repairFrame(qe, root)
	if frame != nil && frame.Type == schedroute.WatchFrameSchedule {
		frame.Schedule = wire
	}
	return frame
}

// ---- frame log and delivery ----------------------------------------

// append gives the frame the next sequence number, marshals it once,
// adds it to the log — evicting the oldest beyond the bound — and wakes
// every consumer. A closed log takes nothing more: a frame that raced
// the terminal one is dropped.
func (sub *watchSub) append(f *schedroute.WatchFrame) {
	f.SchemaVersion = schedroute.SchemaVersion
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.last().terminal {
		return
	}
	f.Seq = sub.last().seq + 1
	data, err := json.Marshal(f)
	if err != nil {
		// A frame that cannot marshal is an internal bug; deliver the
		// reason instead of silently dropping the seq.
		data, _ = json.Marshal(&schedroute.WatchFrame{
			SchemaVersion: schedroute.SchemaVersion, Seq: f.Seq,
			Type: schedroute.WatchFrameError, Reason: fmt.Sprintf("frame marshal: %v", err),
		})
	}
	sub.log = append(sub.log, logFrame{seq: f.Seq, typ: f.Type, terminal: f.Terminal, data: data})
	if over := len(sub.log) - sub.s.watchRing; over > 0 {
		sub.log = append(sub.log[:0], sub.log[over:]...)
	}
	close(sub.wake)
	sub.wake = make(chan struct{})
	sub.s.metrics.add(mWatchFrames, 1)
}

// end is the one way a subscription stops: a terminal frame closes the
// log — unless one already has — and the context is cancelled, which
// stops the state machine and whatever repair it has in flight.
func (sub *watchSub) end(typ string, eventSeq int64, reason string) {
	sub.append(&schedroute.WatchFrame{Type: typ, EventSeq: eventSeq, Terminal: true, Reason: reason})
	sub.cancel()
	sub.s.watches.remove(sub.id)
}

// after returns what a consumer that has seen the log up to seq `seen`
// delivers next — the frames after it, or, when the log no longer
// reaches back that far, only the newest (the latest fault state) and
// the count skipped — whether the log is closed, and the channel the
// next append closes.
func (sub *watchSub) after(seen int64) (frames []logFrame, skipped int64, closed bool, wake <-chan struct{}) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	last := sub.last()
	closed, wake = last.terminal, sub.wake
	if seen >= last.seq {
		return nil, 0, closed, wake
	}
	from := seen + 1 - sub.log[0].seq
	if from < 0 {
		skipped = last.seq - seen - 1
		from = int64(len(sub.log) - 1)
	}
	return slices.Clone(sub.log[from:]), skipped, closed, wake
}

// consumer counts an SSE consumer in (+1) or out (-1); a subscription
// with none is a candidate for the idle reap.
func (sub *watchSub) consumer(n int) {
	sub.mu.Lock()
	sub.consumers += n
	sub.lastActive = time.Now()
	sub.mu.Unlock()
}

// serveConn streams the subscription to one SSE consumer that has seen
// the log up to seq `seen`. It returns when the terminal frame is
// delivered, the client disconnects, or a write fails. Replayable
// frames carry their seq as the SSE id (Last-Event-ID resume);
// heartbeat and gap frames do not, so they never disturb the resume
// cursor. A slow consumer only ever falls behind the log — it never
// holds the repair loop or another consumer back.
func (sub *watchSub) serveConn(w http.ResponseWriter, r *http.Request, seen int64) {
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc.Flush()

	sub.consumer(+1)
	defer sub.consumer(-1)

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
		frames, skipped, closed, wake := sub.after(seen)
		if skipped > 0 {
			sub.s.metrics.add(mWatchDropped, skipped)
			if note(schedroute.WatchFrame{
				Seq: frames[0].seq, Type: schedroute.WatchFrameGap, Skipped: skipped,
				Reason: "consumer fell behind the replay ring; coalesced to the latest fault state",
			}) != nil {
				return
			}
		}
		for _, f := range frames {
			if writeSSE(w, f.seq, f.typ, f.data) != nil {
				return
			}
			seen = f.seq
		}
		rc.Flush()
		if closed {
			return // the terminal frame was the last of those
		}
		select {
		case <-wake:
		case <-hb.C:
			if note(schedroute.WatchFrame{Seq: seen, Type: schedroute.WatchFrameHeartbeat}) != nil {
				return
			}
			rc.Flush()
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
