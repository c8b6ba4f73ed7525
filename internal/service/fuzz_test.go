package service

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"schedroute/pkg/schedroute"
)

// FuzzWatchAttach holds GET /v1/watch/{id} to its resume contract for
// arbitrary Last-Event-ID bytes against a small scripted frame log —
// empty, partly evicted (seqs 5..8 of 8), closed (seqs 1..3, the last
// terminal): never a panic; a header that is not a non-negative int64
// is 400 bad_input; anything else is a stream whose replayable frames
// are consecutive, start past the claimed id, and end the log, with at
// most one gap frame, in front, counting a positive number of skipped
// frames — the number the dropped-frames series moves by.
func FuzzWatchAttach(f *testing.F) {
	for shape := uint8(0); shape < 3; shape++ {
		for _, id := range []string{"9223372036854775807", "0", "7", "", "1", "-1", "minus-one", "9223372036854775808", " 3"} {
			f.Add(id, shape)
		}
	}
	srv := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	srv.watchRing = 4
	h := srv.Handler()
	gone, cancel := context.WithCancel(context.Background())
	cancel() // the consumer has left: serveConn delivers what is due and returns

	f.Fuzz(func(t *testing.T, lastID string, shape uint8) {
		sub := &watchSub{id: "wfuzz", s: srv, wake: make(chan struct{}), cancel: func() {}}
		switch shape % 3 {
		case 1:
			for i := 0; i < 8; i++ {
				sub.append(&schedroute.WatchFrame{Type: schedroute.WatchFrameSchedule})
			}
		case 2:
			sub.append(&schedroute.WatchFrame{Type: schedroute.WatchFrameHello})
			sub.append(&schedroute.WatchFrame{Type: schedroute.WatchFrameSchedule})
			sub.end(schedroute.WatchFrameClosing, 0, "scripted")
		}
		newest := sub.last().seq
		if err := srv.watches.add(sub, 1); err != nil {
			t.Fatal(err)
		}
		defer srv.watches.remove(sub.id)
		dropped := srv.metrics.value("srschedd_watch_dropped_frames_total")

		r := httptest.NewRequest(http.MethodGet, "/v1/watch/wfuzz", nil).WithContext(gone)
		r.Header.Set("Last-Event-ID", lastID)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)

		claimed, err := strconv.ParseInt(lastID, 10, 64)
		if lastID != "" && (err != nil || claimed < 0) {
			var er schedroute.ErrorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Kind != "bad_input" {
				t.Fatalf("Last-Event-ID %q: %d %s, want 400 bad_input", lastID, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("Last-Event-ID %q: %d %s, want a stream", lastID, rec.Code, rec.Body)
		}
		if lastID == "" {
			claimed = newest - 1 // no cursor: the newest frame only
		}
		var skipped, prev int64
		for i, ev := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n\n"), "\n\n") {
			if ev == "" {
				continue
			}
			var fr schedroute.WatchFrame
			if err := json.Unmarshal([]byte(ev[strings.Index(ev, "data: ")+len("data: "):]), &fr); err != nil {
				t.Fatalf("Last-Event-ID %q: event %q: %v", lastID, ev, err)
			}
			switch hasID := strings.HasPrefix(ev, "id: "); {
			case fr.Type == schedroute.WatchFrameGap:
				if hasID || i != 0 || fr.Skipped <= 0 {
					t.Fatalf("Last-Event-ID %q: gap frame %q: want it first, without an id, skipping > 0", lastID, ev)
				}
				skipped = fr.Skipped
			case !hasID || fr.Seq <= claimed || prev != 0 && fr.Seq != prev+1:
				t.Fatalf("Last-Event-ID %q: frame %q after seq %d: want consecutive ids past %d", lastID, ev, prev, claimed)
			default:
				prev = fr.Seq
			}
		}
		if claimed < newest && prev != newest {
			t.Fatalf("Last-Event-ID %q: stream ended at seq %d, the log at %d", lastID, prev, newest)
		}
		if got := srv.metrics.value("srschedd_watch_dropped_frames_total") - dropped; got != skipped {
			t.Fatalf("Last-Event-ID %q: dropped-frames series moved by %d, the gap frame says %d", lastID, got, skipped)
		}
	})
}
