package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"schedroute/internal/topology"
	"schedroute/pkg/schedroute"
)

// ---- raw SSE test helpers ------------------------------------------

// sseConn is a raw streaming connection to a watch endpoint, for tests
// that need to control attach/resume headers directly.
type sseConn struct {
	resp *http.Response
	br   *bufio.Reader
}

func (c *sseConn) Close() { c.resp.Body.Close() }

// next reads one SSE event and returns its decoded frame plus whether
// an id line was present (replayable frames carry one, heartbeat/gap
// frames must not).
func (c *sseConn) next(t *testing.T) (schedroute.WatchFrame, bool) {
	t.Helper()
	var f schedroute.WatchFrame
	var data []byte
	hasID := false
	seen := false
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if !seen {
				continue
			}
			if err := json.Unmarshal(data, &f); err != nil {
				t.Fatalf("bad frame %q: %v", data, err)
			}
			return f, hasID
		case strings.HasPrefix(line, "id:"):
			hasID = true
			seen = true
		case strings.HasPrefix(line, "data:"):
			seen = true
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case strings.HasPrefix(line, "event:"):
			seen = true
		}
	}
}

// nextPayload skips heartbeats and returns the next payload frame.
func (c *sseConn) nextPayload(t *testing.T) (schedroute.WatchFrame, bool) {
	t.Helper()
	for {
		f, hasID := c.next(t)
		if f.Type != schedroute.WatchFrameHeartbeat {
			return f, hasID
		}
	}
}

// openWatch creates a subscription over raw HTTP and returns the
// stream plus the hello frame.
func openWatch(t *testing.T, ts *httptest.Server, req schedroute.WatchRequest) (*sseConn, schedroute.WatchFrame) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch create: status %d: %s", resp.StatusCode, raw)
	}
	c := &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}
	hello, hasID := c.next(t)
	if hello.Type != schedroute.WatchFrameHello || hello.SubID == "" || !hasID {
		t.Fatalf("first frame = %+v (id line: %v), want hello with sub_id and id", hello, hasID)
	}
	return c, hello
}

// attachWatch reopens a subscription stream with an optional
// Last-Event-ID resume header.
func attachWatch(t *testing.T, ts *httptest.Server, id string, lastEventID int64) *sseConn {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/watch/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch attach: status %d: %s", resp.StatusCode, raw)
	}
	return &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}
}

// sendEvent pushes one event and returns the response status and body.
func sendEvent(t *testing.T, ts *httptest.Server, id string, ev schedroute.WatchEvent) (int, []byte) {
	t.Helper()
	return postJSON(t, ts, "/v1/watch/"+id+"/events", ev)
}

// linkSpec renders a link as the "u-v" pair syntax events use.
func linkSpec(top *topology.Topology, l topology.LinkID) string {
	lk := top.Link(l)
	return fmt.Sprintf("%d-%d", lk.A, lk.B)
}

// repairWire normalizes a RepairResult for byte comparison.
func repairWire(t *testing.T, rr *schedroute.RepairResult) []byte {
	t.Helper()
	b, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ---- tests ---------------------------------------------------------

// TestWatchChaosReplayMatchesRepair is the streaming acceptance test:
// a seeded fault scenario replayed as watch events — with an injected
// transport kill mid-stream and a WatchClient reconnecting via
// Last-Event-ID — must deliver, at every fault state, a repaired
// schedule byte-identical to what POST /v1/repair returns for the same
// problem and cumulative fault set, with single-link fault states
// never running a full pipeline solve, and no goroutine leaks after
// the subscription closes.
func TestWatchChaosReplayMatchesRepair(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	before := runtime.NumGoroutine()

	p := testProblem(150)
	built, err := schedroute.NewProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	top := built.Topology

	// A seeded link-only scenario, one link per event: two transient
	// faults, then two permanent ones.
	script := []struct{ typ, link string }{
		{schedroute.WatchEventFault, "12-14"},
		{schedroute.WatchEventFault, "4-20"},
		{schedroute.WatchEventRepaired, "12-14"},
		{schedroute.WatchEventRepaired, "4-20"},
		{schedroute.WatchEventFault, "29-31"},
		{schedroute.WatchEventFault, "56-60"},
	}

	wc := &schedroute.WatchClient{BaseURL: ts.URL, Backoff: 10 * time.Millisecond, MaxRetries: 8, Seed: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := wc.Subscribe(ctx, schedroute.WatchRequest{Problem: p, IncludeOmega: true})
	if err != nil {
		t.Fatal(err)
	}
	hello := <-st.Frames
	if hello.Type != schedroute.WatchFrameHello || hello.Schedule == nil || !hello.Schedule.Feasible {
		t.Fatalf("hello = %+v, want feasible base schedule", hello)
	}

	// await reads frames (skipping heartbeats and gaps) until the frame
	// answering the given event arrives.
	await := func(eventSeq int64) schedroute.WatchFrame {
		t.Helper()
		for f := range st.Frames {
			if f.Type == schedroute.WatchFrameHeartbeat || f.Type == schedroute.WatchFrameGap {
				continue
			}
			if f.EventSeq == eventSeq {
				return f
			}
		}
		t.Fatalf("stream ended before event %d answered: %v", eventSeq, st.Err())
		return schedroute.WatchFrame{}
	}

	fs := topology.NewFaultSet()
	for i, step := range script {
		// After the first event's frame: kill every client transport
		// once. The WatchClient must reconnect with Last-Event-ID and the
		// stream must carry on with no lost or duplicated frames.
		if i == 1 {
			ts.CloseClientConnections()
		}
		l, err := top.ParseLinkSpec(step.link)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := wc.Send(ctx, st.ID, schedroute.WatchEvent{Type: step.typ, Links: []string{step.link}})
		if err != nil {
			t.Fatalf("send %s %s: %v", step.typ, step.link, err)
		}
		// Mirror the event into the test's own fault model.
		if step.typ == schedroute.WatchEventFault {
			fs.FailLink(l)
		} else {
			fs.RepairLink(l)
		}

		f := await(ack.EventSeq)
		if f.State != fs.String() {
			t.Fatalf("event %d: frame state %q, want %q", ack.EventSeq, f.State, fs.String())
		}

		// The cold path: /v1/repair at the same cumulative state.
		spec := schedroute.FaultSpec{}
		for _, l := range fs.FailedLinks() {
			spec.Links = append(spec.Links, linkSpec(top, l))
		}

		if fs.Empty() {
			// /v1/repair rejects empty fault sets; the stream instead
			// reports the base schedule as unaffected.
			if f.Type != schedroute.WatchFrameSchedule || f.Repair == nil || f.Repair.Outcome != "unaffected" {
				t.Fatalf("empty state frame = %+v, want unaffected schedule", f)
			}
			continue
		}

		code, body := postJSON(t, ts, "/v1/repair", schedroute.RepairRequest{
			Problem: p, Fault: spec, IncludeOmega: true,
		})
		switch f.Type {
		case schedroute.WatchFrameSchedule:
			if code != http.StatusOK {
				t.Fatalf("state %s: frame repaired but /v1/repair says %d: %s", fs, code, body)
			}
			var cold schedroute.RepairResult
			if err := json.Unmarshal(body, &cold); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(repairWire(t, f.Repair), repairWire(t, &cold)) {
				t.Fatalf("state %s: watch frame diverges from /v1/repair:\n%s\nvs\n%s",
					fs, repairWire(t, f.Repair), repairWire(t, &cold))
			}
		case schedroute.WatchFrameError:
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("state %s: frame infeasible but /v1/repair says %d: %s", fs, code, body)
			}
			var er schedroute.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatal(err)
			}
			if er.Repair == nil || f.Repair == nil ||
				!bytes.Equal(repairWire(t, f.Repair), repairWire(t, er.Repair)) {
				t.Fatalf("state %s: infeasible reports diverge", fs)
			}
		default:
			t.Fatalf("state %s: unexpected frame type %q", fs, f.Type)
		}
	}

	// Single-link fault states must have been absorbed by the repair
	// session without a full pipeline solve.
	sub := srv.watches.get(st.ID)
	if sub == nil {
		t.Fatal("subscription vanished while stream open")
	}
	stats := sub.session.Stats()
	if stats.Applies == 0 || stats.Incremental == 0 {
		t.Fatalf("session stats %+v: want incremental repairs observed", stats)
	}
	if stats.FullSolves != 0 {
		t.Fatalf("session stats %+v: link-only faults on this fixture must not run full solves", stats)
	}

	// Clean close: the client receives a terminal closing frame and the
	// stream drains; then the server's goroutines wind down.
	if err := wc.Close(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	sawClosing := false
	for f := range st.Frames {
		if f.Type == schedroute.WatchFrameClosing && f.Terminal {
			sawClosing = true
		}
	}
	if !sawClosing {
		t.Fatalf("stream ended without a closing frame: %v", st.Err())
	}
	ts.CloseClientConnections()
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count returns to the
// pre-test level (with slack for the HTTP server's own churn).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchResumeReplaysIdenticalBytes: a resumed consumer replays
// exactly the frames after its Last-Event-ID, with payloads
// byte-identical to the live delivery (the replay ring serves
// pre-marshaled frames).
func TestWatchResumeReplaysIdenticalBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c, hello := openWatch(t, ts, schedroute.WatchRequest{Problem: testProblem(150)})
	defer c.Close()

	built, err := schedroute.NewProblem(testProblem(150))
	if err != nil {
		t.Fatal(err)
	}
	spec := linkSpec(built.Topology, 0)

	var live []schedroute.WatchFrame
	for i := 0; i < 2; i++ {
		typ := schedroute.WatchEventFault
		if i == 1 {
			typ = schedroute.WatchEventRepaired
		}
		if code, body := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: typ, Links: []string{spec}}); code != http.StatusOK {
			t.Fatalf("event %d: status %d: %s", i, code, body)
		}
		f, hasID := c.nextPayload(t)
		if !hasID {
			t.Fatalf("frame %+v delivered without an SSE id line", f)
		}
		live = append(live, f)
	}

	// Resume after the hello: both event frames must replay, same seq,
	// same bytes.
	rc := attachWatch(t, ts, hello.SubID, hello.Seq)
	defer rc.Close()
	for i, want := range live {
		got, hasID := rc.nextPayload(t)
		if !hasID {
			t.Fatalf("replayed frame %d has no id line", i)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("replayed frame %d differs:\n%s\nvs\n%s", i, gb, wb)
		}
	}

	// Resume past the newest frame: nothing to replay; a heartbeat-only
	// stream is fine, so just assert the attach itself succeeded (the
	// handler would have 404'd or 400'd otherwise).
	rc2 := attachWatch(t, ts, hello.SubID, live[len(live)-1].Seq)
	rc2.Close()
}

// TestWatchSlowConsumerCoalesced: a consumer resuming from a frame
// that has been evicted from the bounded replay ring is coalesced to
// the latest fault state — one gap frame (no SSE id) plus the newest
// frame — instead of stalling the subscription.
func TestWatchSlowConsumerCoalesced(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.watchRing = 4
	c, hello := openWatch(t, ts, schedroute.WatchRequest{Problem: testProblem(150)})
	defer c.Close()

	built, err := schedroute.NewProblem(testProblem(150))
	if err != nil {
		t.Fatal(err)
	}
	spec := linkSpec(built.Topology, 0)

	// Alternate fault / repaired on one link: 8 frames, ring keeps 4.
	var last schedroute.WatchFrame
	for i := 0; i < 8; i++ {
		typ := schedroute.WatchEventFault
		if i%2 == 1 {
			typ = schedroute.WatchEventRepaired
		}
		if code, body := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: typ, Links: []string{spec}}); code != http.StatusOK {
			t.Fatalf("event %d: status %d: %s", i, code, body)
		}
		last, _ = c.nextPayload(t)
	}

	// Resume from the hello — long since evicted.
	rc := attachWatch(t, ts, hello.SubID, hello.Seq)
	defer rc.Close()
	gap, hasID := rc.nextPayload(t)
	if gap.Type != schedroute.WatchFrameGap || gap.Skipped == 0 {
		t.Fatalf("first resumed frame = %+v, want gap with skipped > 0", gap)
	}
	if hasID {
		t.Fatal("gap frame carried an SSE id; it must not disturb Last-Event-ID resume")
	}
	newest, hasID := rc.nextPayload(t)
	if !hasID || newest.Seq != last.Seq || newest.State != last.State {
		t.Fatalf("coalesced frame = %+v, want newest frame seq %d state %q", newest, last.Seq, last.State)
	}
	if srv.metrics.value("srschedd_watch_dropped_frames_total") == 0 {
		t.Error("dropped-frame metric never incremented")
	}
}

// TestWatchEventValidationAndOverflow: malformed events are rejected
// with 400 before touching the queue; repairing a healthy link is a
// non-terminal error frame; unknown subscriptions 404; and a full
// bounded queue sheds events with 503 instead of blocking.
func TestWatchEventValidationAndOverflow(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	srv.watchEventQueue = 1
	c, hello := openWatch(t, ts, schedroute.WatchRequest{Problem: testProblem(150)})
	defer c.Close()

	built, err := schedroute.NewProblem(testProblem(150))
	if err != nil {
		t.Fatal(err)
	}
	spec := linkSpec(built.Topology, 0)

	for _, tc := range []struct {
		name string
		ev   schedroute.WatchEvent
	}{
		{"no type", schedroute.WatchEvent{}},
		{"unknown type", schedroute.WatchEvent{Type: "flood"}},
		{"fault without elements", schedroute.WatchEvent{Type: schedroute.WatchEventFault}},
		{"fault with tau_in", schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{spec}, TauIn: 99}},
		{"tau_in negative", schedroute.WatchEvent{Type: schedroute.WatchEventTauIn, TauIn: -5}},
		{"tau_in with links", schedroute.WatchEvent{Type: schedroute.WatchEventTauIn, TauIn: 200, Links: []string{spec}}},
		{"unresolvable link", schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"0-63"}}},
		{"node out of range", schedroute.WatchEvent{Type: schedroute.WatchEventFault, Nodes: []int{4096}}},
	} {
		code, body := sendEvent(t, ts, hello.SubID, tc.ev)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, code, body)
		}
	}

	// Unknown subscription: 404 with the not_found kind.
	code, body := postJSON(t, ts, "/v1/watch/nope/events",
		schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{spec}})
	if code != http.StatusNotFound {
		t.Fatalf("unknown sub: status %d: %s", code, body)
	}
	var er schedroute.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "not_found" {
		t.Fatalf("unknown sub body: %s (err %v)", body, err)
	}

	// Repairing a healthy link: accepted (it is well-formed) but
	// answered with a non-terminal error frame.
	ack, code := schedroute.WatchEventAck{}, 0
	code, body = sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventRepaired, Links: []string{spec}})
	if code != http.StatusOK {
		t.Fatalf("repair-of-healthy rejected at enqueue: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	f, _ := c.nextPayload(t)
	if f.Type != schedroute.WatchFrameError || f.Terminal || f.EventSeq != ack.EventSeq {
		t.Fatalf("frame = %+v, want non-terminal error for event %d", f, ack.EventSeq)
	}

	// Queue overflow: occupy the single worker slot so the state
	// machine blocks before its repair, then fill the 1-deep queue.
	srv.sem <- struct{}{}
	if code, body = sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{spec}}); code != http.StatusOK {
		t.Fatalf("first event: %d: %s", code, body)
	}
	// Wait until the state machine has dequeued it (and is blocked on
	// the worker slot), so the next event deterministically fills the
	// queue rather than racing the dequeue.
	sub := srv.watches.get(hello.SubID)
	deadline := time.Now().Add(5 * time.Second)
	for len(sub.events) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("state machine never dequeued the first event")
		}
		time.Sleep(time.Millisecond)
	}
	if code, body = sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventRepaired, Links: []string{spec}}); code != http.StatusOK {
		t.Fatalf("queued event: %d: %s", code, body)
	}
	code, body = sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{spec}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow event: status %d, want 503: %s", code, body)
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "unavailable" {
		t.Fatalf("overflow body: %s (err %v)", body, err)
	}
	<-srv.sem // release the worker; the stream drains normally
	for i := 0; i < 2; i++ {
		if f, _ := c.nextPayload(t); f.Terminal {
			t.Fatalf("stream terminated draining the backlog: %+v", f)
		}
	}
}

// TestWatchPanicIsolation: a panic inside one subscription's state
// machine produces a terminal error frame on that stream only; other
// subscriptions and the server keep working.
func TestWatchPanicIsolation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	cA, helloA := openWatch(t, ts, schedroute.WatchRequest{Problem: testProblem(150)})
	defer cA.Close()
	cB, helloB := openWatch(t, ts, schedroute.WatchRequest{Problem: testProblem(150)})
	defer cB.Close()

	srv.beforeWatchEvent = func(subID string, ev schedroute.WatchEvent) {
		if subID == helloA.SubID {
			panic("injected watch panic")
		}
	}

	built, err := schedroute.NewProblem(testProblem(150))
	if err != nil {
		t.Fatal(err)
	}
	spec := linkSpec(built.Topology, 0)
	ev := schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{spec}}

	if code, body := sendEvent(t, ts, helloA.SubID, ev); code != http.StatusOK {
		t.Fatalf("event to A: %d: %s", code, body)
	}
	f, _ := cA.nextPayload(t)
	if f.Type != schedroute.WatchFrameError || !f.Terminal || !strings.Contains(f.Reason, "panic") {
		t.Fatalf("A's frame = %+v, want terminal panic error", f)
	}
	if got := srv.metrics.value("srschedd_watch_panics_total"); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}

	// The dead subscription is unregistered; events to it 404 or 503.
	deadline := time.Now().Add(5 * time.Second)
	for srv.watches.get(helloA.SubID) != nil {
		if time.Now().After(deadline) {
			t.Fatal("panicked subscription never unregistered")
		}
		time.Sleep(time.Millisecond)
	}

	// Subscription B is unaffected.
	if code, body := sendEvent(t, ts, helloB.SubID, ev); code != http.StatusOK {
		t.Fatalf("event to B: %d: %s", code, body)
	}
	if f, _ := cB.nextPayload(t); f.Type != schedroute.WatchFrameSchedule {
		t.Fatalf("B's frame = %+v, want repaired schedule", f)
	}
}

// TestWatchShutdownDrain: Server.Shutdown delivers a terminal closing
// frame to every open subscription, waits for their state machines,
// and refuses new subscriptions with 503.
func TestWatchShutdownDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	c, _ := openWatch(t, ts, schedroute.WatchRequest{Problem: testProblem(150)})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()

	f, _ := c.nextPayload(t)
	if f.Type != schedroute.WatchFrameClosing || !f.Terminal || !strings.Contains(f.Reason, "draining") {
		t.Fatalf("frame = %+v, want terminal draining closing frame", f)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	code, body := postJSON(t, ts, "/v1/watch", schedroute.WatchRequest{Problem: testProblem(150)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain create: status %d, want 503: %s", code, body)
	}
	if n := len(liveSubs(srv)); n != 0 {
		t.Errorf("%d subscriptions survived the drain", n)
	}
}

// TestWatchSubscriptionChurn exercises concurrent subscription
// create/event/close cycles — the race-detector workout `make race`
// runs — plus the MaxWatchSubs admission cap.
func TestWatchSubscriptionChurn(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	built, err := schedroute.NewProblem(testProblem(150))
	if err != nil {
		t.Fatal(err)
	}
	spec := linkSpec(built.Topology, 0)

	const churners = 6
	var wg sync.WaitGroup
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			wc := &schedroute.WatchClient{BaseURL: ts.URL, Backoff: 5 * time.Millisecond, Seed: int64(i + 1)}
			st, err := wc.Subscribe(ctx, schedroute.WatchRequest{Problem: testProblem(150)})
			if err != nil {
				t.Errorf("churner %d: subscribe: %v", i, err)
				return
			}
			<-st.Frames // hello
			for j := 0; j < 2; j++ {
				typ := schedroute.WatchEventFault
				if j == 1 {
					typ = schedroute.WatchEventRepaired
				}
				ack, err := wc.Send(ctx, st.ID, schedroute.WatchEvent{Type: typ, Links: []string{spec}})
				if err != nil {
					t.Errorf("churner %d: send: %v", i, err)
					return
				}
				for f := range st.Frames {
					if f.EventSeq == ack.EventSeq {
						break
					}
				}
			}
			if err := wc.Close(ctx, st.ID); err != nil {
				t.Errorf("churner %d: close: %v", i, err)
			}
			for range st.Frames {
			}
		}(i)
	}
	wg.Wait()

	if n := len(liveSubs(srv)); n != 0 {
		t.Errorf("%d subscriptions leaked after churn", n)
	}

	// Admission cap: with every slot filled, the next create is shed.
	srvCap, tsCap := newTestServer(t, Config{})
	srvCap.maxWatchSubs = 1
	c, _ := openWatch(t, tsCap, schedroute.WatchRequest{Problem: testProblem(150)})
	defer c.Close()
	code, body := postJSON(t, tsCap, "/v1/watch", schedroute.WatchRequest{Problem: testProblem(150)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap create: status %d, want 503: %s", code, body)
	}
	if n := len(liveSubs(srvCap)); n != 1 {
		t.Errorf("registry count = %d, want 1", n)
	}
}

// TestWatchTauInRebaseAndTrace: a tau_in event re-solves the base
// schedule through the pinned solver and re-applies the fault state;
// an infeasible period is rejected without corrupting the stream; and
// ?debug=trace subscriptions attach watch.event span trees with the
// repair ladder under watch.repair.
func TestWatchTauInRebaseAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body, err := json.Marshal(schedroute.WatchRequest{Problem: testProblem(150)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/watch?debug=trace", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("traced create: %d: %s", resp.StatusCode, raw)
	}
	c := &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}
	defer c.Close()
	hello, _ := c.next(t)

	built, err := schedroute.NewProblem(testProblem(150))
	if err != nil {
		t.Fatal(err)
	}
	spec := linkSpec(built.Topology, 0)

	// Fault: the frame must carry a trace tree rooted at watch.event
	// with the repair ladder under watch.repair and no solve span (rung
	// 1 absorbed a single link fault).
	if code, b := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{spec}}); code != http.StatusOK {
		t.Fatalf("fault: %d: %s", code, b)
	}
	f, _ := c.nextPayload(t)
	if f.Trace == nil || f.Trace.Root == nil {
		t.Fatalf("traced frame has no trace envelope: %+v", f)
	}
	root := f.Trace.Root
	if root.Name != SpanWatchEvent {
		t.Fatalf("trace root %q, want %q", root.Name, SpanWatchEvent)
	}
	if n := root.Count(SpanWatchRepair); n != 1 {
		t.Fatalf("trace has %d %s spans, want 1", n, SpanWatchRepair)
	}
	if n := root.Count("solve"); n != 0 {
		t.Fatalf("single-link fault ran %d full solves, want 0 (tree: %+v)", n, root)
	}

	// Rebase to a feasible slower period: a schedule frame with the new
	// tau_in and the fault still applied.
	if code, b := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventTauIn, TauIn: 250}); code != http.StatusOK {
		t.Fatalf("tau_in: %d: %s", code, b)
	}
	f, _ = c.nextPayload(t)
	if f.Type != schedroute.WatchFrameSchedule || f.TauIn != 250 || f.Schedule == nil || f.Repair == nil {
		t.Fatalf("rebase frame = %+v, want schedule at tau_in 250 with repair attached", f)
	}
	if f.Repair.TauOut != 250 {
		t.Errorf("rebased repair TauOut = %g, want 250", f.Repair.TauOut)
	}

	// Rebase to an infeasible period: non-terminal error, state intact.
	if code, b := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventTauIn, TauIn: 1}); code != http.StatusOK {
		t.Fatalf("bad tau_in: %d: %s", code, b)
	}
	f, _ = c.nextPayload(t)
	if f.Type != schedroute.WatchFrameError || f.Terminal {
		t.Fatalf("infeasible rebase frame = %+v, want non-terminal error", f)
	}
	if f.TauIn != 250 {
		t.Errorf("infeasible rebase moved tau_in to %g, want 250 kept", f.TauIn)
	}

	// The stream still works after the rejection.
	if code, b := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventRepaired, Links: []string{spec}}); code != http.StatusOK {
		t.Fatalf("repair event: %d: %s", code, b)
	}
	if f, _ = c.nextPayload(t); f.Type != schedroute.WatchFrameSchedule || f.State != "faults{}" {
		t.Fatalf("post-rejection frame = %+v, want healthy schedule", f)
	}
}
