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
// by `srsched -watch` and the watch smoke test; kept dependency-free
// (net/http + bufio) like the rest of this package.
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

func (c *WatchClient) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
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

	done <-chan struct{}
	err  error
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
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeErrorResponse(resp)
	}

	frames := make(chan WatchFrame, 16)
	done := make(chan struct{})
	st := &WatchStream{Frames: frames, done: done}

	// The hello frame arrives synchronously so the caller leaves with a
	// usable subscription id.
	sr := newSSEReader(resp.Body)
	hello, err := sr.next()
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("schedroute: watch: no hello frame: %w", err)
	}
	if hello.Type != WatchFrameHello || hello.SubID == "" {
		resp.Body.Close()
		return nil, fmt.Errorf("schedroute: watch: first frame is %q, want hello with a sub_id", hello.Type)
	}
	st.ID = hello.SubID

	go c.pump(ctx, st, resp.Body, sr, hello, frames, done)
	return st, nil
}

// pump forwards frames, reconnecting dropped transports with
// backoff+jitter until a terminal frame, ctx cancellation, or retry
// exhaustion.
func (c *WatchClient) pump(ctx context.Context, st *WatchStream, body io.ReadCloser, sr *sseReader, first WatchFrame, frames chan<- WatchFrame, done chan<- struct{}) {
	defer close(done)
	defer close(frames)

	maxRetries, rng := c.retryPolicy()

	lastID := int64(0)
	deliver := func(f WatchFrame) bool {
		if f.Seq > lastID && f.Type != WatchFrameHeartbeat && f.Type != WatchFrameGap {
			lastID = f.Seq
		}
		select {
		case frames <- f:
		case <-ctx.Done():
			return false
		}
		return !f.Terminal
	}
	if !deliver(first) {
		body.Close()
		return
	}

	fails := 0
	for {
		// Drain the current transport.
		readErr := error(nil)
		for {
			f, err := sr.next()
			if err != nil {
				readErr = err
				break
			}
			fails = 0
			if !deliver(f) {
				body.Close()
				return
			}
		}
		body.Close()
		if ctx.Err() != nil {
			st.err = ctx.Err()
			return
		}

		// Reconnect with Last-Event-ID resume.
		for {
			fails++
			if fails > maxRetries {
				st.err = fmt.Errorf("schedroute: watch: stream lost after %d reconnect attempts: %w", maxRetries, readErr)
				return
			}
			if err := c.backoff(ctx, rng, fails-1); err != nil {
				st.err = err
				return
			}
			nb, nsr, err := c.attach(ctx, st.ID, lastID)
			if err != nil {
				readErr = err
				continue
			}
			body, sr = nb, nsr
			break
		}
	}
}

// attach reopens the stream of an existing subscription, resuming
// after the given frame seq.
func (c *WatchClient) attach(ctx context.Context, id string, lastID int64) (io.ReadCloser, *sseReader, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/watch/"+id, nil)
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("Accept", "text/event-stream")
	if lastID > 0 {
		hr.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, nil, decodeErrorResponse(resp)
	}
	return resp.Body, newSSEReader(resp.Body), nil
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
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/watch/"+id+"/events", bytes.NewReader(body))
		if err != nil {
			return ack, err
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := c.http().Do(hr)
		if err != nil {
			if ctx.Err() != nil || attempt >= maxRetries {
				return ack, err
			}
			if err := c.backoff(ctx, rng, attempt); err != nil {
				return ack, err
			}
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return ack, decodeErrorResponse(resp)
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return ack, err
		}
		return ack, nil
	}
}

// Close deletes the subscription server-side; attached streams receive
// a terminal closing frame.
func (c *WatchClient) Close(ctx context.Context, id string) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v1/watch/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return decodeErrorResponse(resp)
	}
	return nil
}

// decodeErrorResponse turns a non-2xx service body into an error
// marked with the errkind family the response's kind names, so CLI
// exit statuses work through the client too.
func decodeErrorResponse(resp *http.Response) error {
	var er ErrorResponse
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		err := fmt.Errorf("schedroute: service %s: %s", resp.Status, er.Error)
		if k := errkind.ByName(er.Kind); k != nil {
			return errkind.Mark(err, k)
		}
		return err
	}
	return fmt.Errorf("schedroute: service %s: %s", resp.Status, strings.TrimSpace(string(raw)))
}

// sseReader parses text/event-stream payloads into WatchFrames. Only
// the fields this protocol emits are handled: id, event, data, and
// comment lines (ignored).
type sseReader struct {
	br *bufio.Reader
}

func newSSEReader(r io.Reader) *sseReader {
	return &sseReader{br: bufio.NewReader(r)}
}

// next blocks until one complete SSE event arrives and returns its
// decoded frame.
func (r *sseReader) next() (WatchFrame, error) {
	var f WatchFrame
	var data []byte
	seen := false
	for {
		line, err := r.br.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if !seen {
				continue // stray blank between events
			}
			if err := json.Unmarshal(data, &f); err != nil {
				return f, fmt.Errorf("schedroute: watch: bad frame payload: %w", err)
			}
			return f, nil
		case strings.HasPrefix(line, ":"):
			// comment / keepalive
		case strings.HasPrefix(line, "data:"):
			seen = true
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case strings.HasPrefix(line, "id:"), strings.HasPrefix(line, "event:"):
			seen = true // metadata duplicated inside the JSON payload
		}
	}
}
