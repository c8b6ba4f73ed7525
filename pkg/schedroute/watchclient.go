package schedroute

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"schedroute/internal/errkind"
)

// WatchClient consumes a srschedd /v1/watch subscription: it registers
// the problem over SSE, surfaces frames on a channel, and reconnects
// dropped streams with exponential backoff plus jitter, resuming from
// the last delivered frame via the standard Last-Event-ID header. Used
// by `srsched -watch` and `-admit` and the e2e package; kept
// dependency-free (net/http + bufio) like the rest of this package.
type WatchClient struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient). Streaming
	// requests need a client without a global Timeout.
	HTTP *http.Client
	// Backoff is the initial reconnect delay (default 200ms), doubling
	// per consecutive failure up to MaxBackoff (default 5s), with up to
	// 50% uniform jitter on top.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxRetries bounds consecutive failed reconnect attempts before
	// the stream gives up (default 5; the counter resets after any
	// successful connect).
	MaxRetries int
	// Seed drives the jitter; a fixed seed makes retry schedules
	// reproducible in tests (0 seeds from the clock).
	Seed int64
}

// retryPolicy resolves the client's retry settings: the bound on
// consecutive failed attempts and the jitter source (c.Seed, or the
// clock when it is 0).
func (c *WatchClient) retryPolicy() (maxRetries int, rng *rand.Rand) {
	maxRetries, seed := c.MaxRetries, c.Seed
	if maxRetries <= 0 {
		maxRetries = 5
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return maxRetries, rand.New(rand.NewSource(seed))
}

// backoff waits out the delay before retry number attempt (0-based) —
// Backoff doubled per attempt, capped at MaxBackoff, plus up to 50 %
// jitter — and returns ctx's error if it is cancelled first.
func (c *WatchClient) backoff(ctx context.Context, rng *rand.Rand, attempt int) error {
	base, maxb := c.Backoff, c.MaxBackoff
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if maxb <= 0 {
		maxb = 5 * time.Second
	}
	d := base << attempt
	if d > maxb {
		d = maxb
	}
	d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WatchStream is a live subscription. Frames delivers every frame in
// order (heartbeats and gap markers included) and is closed when the
// stream ends: after a terminal frame, a context cancellation, or
// reconnect exhaustion. Err reports why a stream ended early.
type WatchStream struct {
	// ID is the subscription id from the hello frame.
	ID string
	// Frames delivers the stream.
	Frames <-chan WatchFrame

	c      *WatchClient
	frames chan<- WatchFrame // Frames, from the sending side
	body   io.ReadCloser     // the current transport, and its reader
	br     *bufio.Reader
	lastID int64 // seq of the last replayable frame delivered: the resume cursor
	done   chan struct{}
	err    error
}

// Err returns the terminal error after Frames closes (nil on a clean
// closing frame).
func (s *WatchStream) Err() error {
	<-s.done
	return s.err
}

// Subscribe registers the problem and starts the stream. The returned
// WatchStream's ID is known (the hello frame is awaited) before
// Subscribe returns; the hello frame itself is the first delivery on
// Frames. Cancel ctx to drop the subscription client-side.
func (c *WatchClient) Subscribe(ctx context.Context, req WatchRequest) (*WatchStream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	frames := make(chan WatchFrame, 16)
	st := &WatchStream{Frames: frames, c: c, frames: frames, done: make(chan struct{})}
	if err := st.open(ctx, http.MethodPost, "/v1/watch", body); err != nil {
		return nil, err
	}
	// The hello frame arrives synchronously so the caller leaves with a
	// usable subscription id.
	hello, err := st.next()
	if err != nil {
		err = fmt.Errorf("schedroute: watch: no hello frame: %w", err)
	} else if hello.Type != WatchFrameHello || hello.SubID == "" {
		err = fmt.Errorf("schedroute: watch: first frame is %q, want hello with a sub_id", hello.Type)
	}
	if err != nil {
		st.body.Close()
		return nil, err
	}
	st.ID = hello.SubID
	go st.pump(ctx, hello)
	return st, nil
}

// open makes the event stream that answers one request the stream's
// transport, in place of the one it had: the POST that subscribes, or
// a GET that resumes after the last frame delivered.
func (st *WatchStream) open(ctx context.Context, method, path string, body []byte) error {
	hdr := []string{"Accept", "text/event-stream"}
	if st.lastID > 0 {
		hdr = append(hdr, "Last-Event-ID", strconv.FormatInt(st.lastID, 10))
	}
	resp, err := st.c.request(ctx, method, path, body, hdr...)
	if err == nil {
		err = serviceError(resp)
	}
	if err != nil {
		return err
	}
	if st.body != nil {
		st.body.Close()
	}
	st.body, st.br = resp.Body, bufio.NewReader(resp.Body)
	return nil
}

// pump forwards frames, f first, reconnecting dropped transports with
// backoff+jitter until a terminal frame, ctx cancellation, or retry
// exhaustion.
func (st *WatchStream) pump(ctx context.Context, f WatchFrame) {
	defer close(st.done)
	defer close(st.frames)
	defer func() { st.body.Close() }()
	maxRetries, rng := st.c.retryPolicy()
	fails := 0
	for {
		if f.Seq > st.lastID && f.Type != WatchFrameHeartbeat && f.Type != WatchFrameGap {
			st.lastID = f.Seq
		}
		select {
		case st.frames <- f:
		case <-ctx.Done():
			return
		}
		if f.Terminal {
			return
		}
		var err error
		for f, err = st.next(); err != nil; {
			// The transport dropped, or would not reopen: back off, then
			// resume after the last frame delivered.
			if ctx.Err() != nil {
				st.err = ctx.Err()
				return
			}
			if fails++; fails > maxRetries {
				st.err = fmt.Errorf("schedroute: watch: stream lost after %d reconnect attempts: %w", maxRetries, err)
				return
			}
			if st.err = st.c.backoff(ctx, rng, fails-1); st.err != nil {
				return
			}
			if err = st.open(ctx, http.MethodGet, "/v1/watch/"+st.ID, nil); err == nil {
				f, err = st.next()
			}
		}
		fails = 0
	}
}

// request sends one request to the service — body, when there is one,
// is JSON; hdr is key, value pairs — and returns whatever answered. An
// error is the transport's: the service's own refusals are serviceError's.
func (c *WatchClient) request(ctx context.Context, method, path string, body []byte, hdr ...string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
		hdr = append(hdr, "Content-Type", "application/json")
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		hr.Header.Set(hdr[i], hdr[i+1])
	}
	if c.HTTP != nil {
		return c.HTTP.Do(hr)
	}
	return http.DefaultClient.Do(hr)
}

// Send pushes one event at a subscription and returns its ack.
// Transport failures (a pooled connection killed under the request, a
// daemon restart) retry on the same backoff schedule the stream
// reconnect uses, so delivery is at-least-once: if an ack is lost
// after the server processed the event, the replay is answered with a
// non-terminal error frame ("already failed" / "not failed"), never
// corrupted state. Service-level errors (4xx/5xx bodies) do not retry.
func (c *WatchClient) Send(ctx context.Context, id string, ev WatchEvent) (WatchEventAck, error) {
	var ack WatchEventAck
	body, err := json.Marshal(ev)
	if err != nil {
		return ack, err
	}
	maxRetries, rng := c.retryPolicy()
	for attempt := 0; ; attempt++ {
		resp, err := c.request(ctx, http.MethodPost, "/v1/watch/"+id+"/events", body)
		if err == nil {
			if err = serviceError(resp); err == nil {
				defer resp.Body.Close()
				err = json.NewDecoder(resp.Body).Decode(&ack)
			}
			return ack, err
		}
		if ctx.Err() != nil || attempt >= maxRetries {
			return ack, err
		}
		if err := c.backoff(ctx, rng, attempt); err != nil {
			return ack, err
		}
	}
}

// Close deletes the subscription server-side; attached streams receive
// a terminal closing frame. One already gone counts as closed.
func (c *WatchClient) Close(ctx context.Context, id string) error {
	resp, err := c.request(ctx, http.MethodDelete, "/v1/watch/"+id, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	return serviceError(resp)
}

// Admit submits one tenant admission (POST /v1/admit). A rejection
// comes back both ways: the report its 422 carried, and the error.
func (c *WatchClient) Admit(ctx context.Context, req AdmitRequest) (*AdmitResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.request(ctx, http.MethodPost, "/v1/admit", body)
	if err != nil {
		return nil, err
	}
	if err := serviceError(resp); err != nil {
		return err.(*ServiceError).Body.Admit, err
	}
	defer resp.Body.Close()
	var adm AdmitResult
	if err := json.NewDecoder(resp.Body).Decode(&adm); err != nil {
		return nil, err
	}
	return &adm, nil
}

// ServiceError is any answer but a 200: the status line and the error
// envelope the body carried (Body.Error is the raw body when it was not
// one). It matches the errkind family the envelope names, so CLI exit
// statuses work through the client too, and keeps what rides on the
// envelope.
type ServiceError struct {
	Status string
	Body   ErrorResponse
}

func (e *ServiceError) Error() string {
	return fmt.Sprintf("schedroute: service %s: %s", e.Status, e.Body.Error)
}

func (e *ServiceError) Is(target error) bool { return target == errkind.ByName(e.Body.Kind) }

// serviceError is nil for a 200; any other answer is consumed, closed
// and returned as a *ServiceError.
func serviceError(resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	defer resp.Body.Close()
	se := &ServiceError{Status: resp.Status}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(raw, &se.Body) != nil || se.Body.Error == "" {
		se.Body = ErrorResponse{ErrorEnvelope: ErrorEnvelope{Error: strings.TrimSpace(string(raw))}}
	}
	return se
}

// next blocks until one complete SSE event arrives on the current
// transport and returns its decoded frame. Only the data field is
// read: the id and event lines repeat what the JSON payload says, and
// a comment line, like a blank one between events, is skipped.
func (st *WatchStream) next() (WatchFrame, error) {
	var f WatchFrame
	var data []byte
	for {
		line, err := st.br.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\r\n")
		if rest, ok := strings.CutPrefix(line, "data:"); ok {
			data = append(data, strings.TrimPrefix(rest, " ")...)
		} else if line == "" && data != nil {
			if err := json.Unmarshal(data, &f); err != nil {
				return f, fmt.Errorf("schedroute: watch: bad frame payload: %w", err)
			}
			return f, nil
		}
	}
}
