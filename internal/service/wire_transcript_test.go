package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"schedroute/pkg/schedroute"
)

var updateTranscript = flag.Bool("update-transcript", false, "rewrite testdata/wire_transcript.golden and testdata/metrics_series.golden")

// blanked are the only bytes of a response the transcript does not pin:
// wall-clock durations, the random subscription id, the build's Go
// version, the request id a traced root carries as an attribute, and the
// allocation LP's pivot count (a property of the pricing rule, not of
// the wire; internal/schedule's trace test holds the attribute).
var blanked = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(\w+_ns)":\d+`), `"$1":0`},
	{regexp.MustCompile(`w[0-9a-f]{16}`), `wSUB`},
	{regexp.MustCompile(`"go_version":"[^"]*"`), `"go_version":"GO"`},
	{regexp.MustCompile(`,\{"key":"request_id","kind":"str","str":"[^"]*"\}`), ``},
	{regexp.MustCompile(`,\{"key":"lp\.pivots","kind":"int","int":\d+\}`), ``},
}

func blank(b []byte) []byte {
	for _, bl := range blanked {
		b = bl.re.ReplaceAll(b, []byte(bl.with))
	}
	return b
}

// transcript drives one server over HTTP and records, per step, the
// status, Content-Type and blanked body.
type transcript struct {
	t   *testing.T
	ts  *httptest.Server
	out bytes.Buffer
}

func (tr *transcript) record(step, method, path string, resp *http.Response, body []byte) {
	fmt.Fprintf(&tr.out, "### %s\n%s %s\n%d %s\n%s\n", step, method, blank([]byte(path)),
		resp.StatusCode, resp.Header.Get("Content-Type"), bytes.TrimRight(blank(body), "\n"))
}

// send issues one request; body is raw text when it is a string and
// JSON-marshaled otherwise (nil sends no body).
func (tr *transcript) send(method, path string, body any, hdr ...string) *http.Response {
	tr.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			tr.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, tr.ts.URL+path, rd)
	if err != nil {
		tr.t.Fatal(err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tr.t.Fatal(err)
	}
	return resp
}

// do records one request/response step and returns the raw body.
func (tr *transcript) do(step, method, path string, body any, hdr ...string) []byte {
	tr.t.Helper()
	resp := tr.send(method, path, body, hdr...)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tr.t.Fatal(err)
	}
	tr.record(step, method, path, resp, raw)
	return raw
}

// stream records an SSE-or-error step: a 200 event stream is left open
// (closed with the test at the latest; close is nil-safe) with its first
// payload frame recorded; anything else is recorded like do.
func (tr *transcript) stream(step, method, path string, body any, hdr ...string) *transcriptStream {
	tr.t.Helper()
	resp := tr.send(method, path, body, hdr...)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		tr.record(step, method, path, resp, raw)
		return nil
	}
	st := &transcriptStream{tr: tr, resp: resp, br: bufio.NewReader(resp.Body)}
	tr.t.Cleanup(st.close) // before the server's own cleanup, which waits for open streams
	tr.record(step, method, path, resp, st.next())
	return st
}

type transcriptStream struct {
	tr   *transcript
	resp *http.Response
	br   *bufio.Reader
}

func (st *transcriptStream) close() {
	if st != nil {
		st.resp.Body.Close()
	}
}

// next returns the next non-heartbeat SSE event verbatim (its id, event
// and data lines).
func (st *transcriptStream) next() []byte {
	st.tr.t.Helper()
	for {
		var ev []byte
		for {
			line, err := st.br.ReadString('\n')
			if err != nil {
				st.tr.t.Fatalf("sse read: %v (partial event %q)", err, ev)
			}
			if strings.TrimRight(line, "\r\n") == "" {
				if len(ev) > 0 {
					break
				}
				continue
			}
			ev = append(ev, line...)
		}
		if !bytes.Contains(ev, []byte("event: "+schedroute.WatchFrameHeartbeat+"\n")) {
			return ev
		}
	}
}

// frame records the stream's next payload frame as its own step.
func (st *transcriptStream) frame(step string) {
	st.tr.t.Helper()
	fmt.Fprintf(&st.tr.out, "### %s\n%s\n", step, bytes.TrimRight(blank(st.next()), "\n"))
}

// liveSubs snapshots the registry.
func liveSubs(srv *Server) []*watchSub {
	srv.watches.mu.Lock()
	defer srv.watches.mu.Unlock()
	var subs []*watchSub
	for _, sub := range srv.watches.subs {
		subs = append(subs, sub)
	}
	return subs
}

// onlySub returns the id of the one live subscription (the transcript
// blanks ids, so it cannot read one back out of a hello frame).
func onlySub(t *testing.T, srv *Server) string {
	t.Helper()
	subs := liveSubs(srv)
	if len(subs) != 1 {
		t.Fatalf("%d live subscriptions, want exactly 1", len(subs))
	}
	return subs[0].id
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/service -run WireTranscript -update-transcript` to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			step := ""
			for j := i; j >= 0; j-- {
				if strings.HasPrefix(gl[j], "### ") {
					step = gl[j]
					break
				}
			}
			t.Fatalf("%s drifted at line %d (%s)\ngot:  %.600s\nwant: %.600s", path, i+1, step, gl[i], wl[i])
		}
	}
	t.Fatalf("%s drifted: %d lines, want %d", path, len(gl), len(wl))
}

// TestWireTranscript pins the bytes of the whole HTTP surface: a
// scripted sequence over every endpoint and every way a request can be
// refused — malformed JSON, unknown field, unknown schema_version,
// validation error, infeasible base, 422 with a repair or admission
// report, tenant/problem mismatch, unknown and closed subscriptions,
// queue full, draining — recorded as status + Content-Type + body, and
// the series /metrics exposes afterwards. Both goldens were generated
// by this test on the parent of the one-request-path refactor, so they
// hold that refactor (and any later one) to the same wire behaviour.
func TestWireTranscript(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	tr := &transcript{t: t, ts: ts}

	p150 := testProblem(150)
	other := schedroute.Problem{TFG: "chain:8", Topology: "cube:6", TauIn: 150}
	// A structure no step ever caches (a failed build is evicted), and the
	// cached p150 under the same version: the problem is checked on the
	// request path, before any lookup, so both answer alike.
	badSchema := schedroute.Problem{SchemaVersion: 99, TFG: "dvb:4", Topology: "cube:6", Bandwidth: 96, TauIn: 150}
	staleSchema := p150
	staleSchema.SchemaVersion = 99
	link := schedroute.FaultSpec{Links: []string{"0-1"}}
	// Two tenants that can share the 6-cube: the same application placed
	// half a machine apart (identical placements never co-schedule — a
	// tenant's direct links are reserved whole).
	video := tenantOf("video", 5, 1)
	audio := tenantOf("audio", 3, 0.5)
	audioP := testProblem(150)
	audioP.Allocator, audioP.AllocSeed = "random", 1

	// ---- the three GET text endpoints
	tr.do("version", "GET", "/v1/version", nil)
	tr.do("version: wrong method", "POST", "/v1/version", "{}")
	tr.do("healthz", "GET", "/healthz", nil)
	tr.do("schedule: wrong method", "GET", "/v1/schedule", nil)

	// ---- the decode failures every JSON endpoint shares
	for _, ep := range []string{"/v1/schedule", "/v1/schedule:batch", "/v1/repair", "/v1/admit", "/v1/explore", "/v1/watch"} {
		tr.do(ep+": malformed JSON", "POST", ep, `{"problem":`)
		tr.do(ep+": unknown field", "POST", ep, `{"problem":{"tfg":"dvb:4","topology":"cube:6"},"bogus":1}`)
		tr.do(ep+": empty body", "POST", ep, ``)
	}

	// ---- /v1/schedule
	tr.do("schedule: ok", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: p150})
	tr.do("schedule: ok, cached structure, tau_in defaulted", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(0)})
	tr.do("schedule: infeasible is a 200", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(50)})
	tr.do("schedule: stats", "POST", "/v1/schedule", `{"problem":{"tfg":"dvb:4","topology":"cube:6","bandwidth":64,"tau_in":150},"options":{"stats":true}}`)
	tr.do("schedule: traced", "POST", "/v1/schedule?debug=trace", schedroute.ScheduleRequest{Problem: p150})
	tr.do("schedule: unknown schema_version", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: badSchema})
	tr.do("schedule: unknown schema_version on a cached structure", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: staleSchema})
	tr.do("schedule: bad topology", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: schedroute.Problem{TFG: "dvb:4", Topology: "klein-bottle:6"}})
	tr.do("schedule: no tfg", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: schedroute.Problem{Topology: "cube:6"}})
	// A tfg is a generator spec, never a path: the daemon opens no file a
	// client names, so one that exists and one that does not answer alike.
	tr.do("schedule: tfg names a file that exists", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: schedroute.Problem{TFG: "/etc/hostname", Topology: "cube:6"}})
	tr.do("schedule: tfg names a file that does not", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: schedroute.Problem{TFG: "/etc/nope", Topology: "cube:6"}})
	tr.do("schedule: bad engine", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: p150, Options: schedroute.Options{Engine: "quantum"}})
	tr.do("schedule: bad tenant", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: p150, Tenant: tenantOf("greedy", 0, 2)})
	tr.do("schedule: unadmitted tenant is the plain path", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: p150, Tenant: tenantOf("ghost", 0, 0)})
	// Decodable requests whose parameters the pipeline refuses: the
	// client's mistake, classified where it is detected.
	for _, bad := range []struct {
		step string
		p    schedroute.Problem
		o    schedroute.Options
	}{
		{"period below the window", testProblem(10), schedroute.Options{}},
		{"period below the longest task", testProblem(49), schedroute.Options{Window: 10}},
		{"window beyond the period", p150, schedroute.Options{Window: 200}},
		{"negative window", p150, schedroute.Options{Window: -5}},
		{"window below a transmission", p150, schedroute.Options{Window: 0.001}},
		{"sync margin beyond the window", p150, schedroute.Options{SyncMargin: 1000}},
		{"negative max_paths", p150, schedroute.Options{MaxPaths: -3}},
		{"max_paths above the limit", p150, schedroute.Options{MaxPaths: schedroute.MaxPathsLimit + 1}},
		{"max_outer above the limit", p150, schedroute.Options{MaxOuter: schedroute.MaxOuterLimit + 1}},
		{"max_inner above the limit", p150, schedroute.Options{MaxInner: schedroute.MaxInnerLimit + 1}},
		{"retries above the limit", p150, schedroute.Options{Retries: schedroute.RetriesLimit + 1}},
		{"more tasks than nodes", schedroute.Problem{TFG: "dvb:4", Topology: "cube:2", Bandwidth: 64, TauIn: 150}, schedroute.Options{}},
		{"graph generator out of range", schedroute.Problem{TFG: "dvb:0", Topology: "cube:6"}, schedroute.Options{}},
	} {
		tr.do("schedule: "+bad.step, "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: bad.p, Options: bad.o})
	}

	// ---- /v1/schedule:batch
	tr.do("batch: ok, two groups and one bad item", "POST", "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: []schedroute.ScheduleRequest{
		{Problem: p150}, {Problem: testProblem(200)}, {Problem: p150},
		{Problem: schedroute.Problem{TFG: "dvb:4", Topology: "bogus:9"}},
		{Problem: badSchema},
	}})
	tr.do("batch: a refused period is its item's bad_input", "POST", "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: []schedroute.ScheduleRequest{
		{Problem: testProblem(10)}, {Problem: p150, Options: schedroute.Options{Window: 200}},
	}})
	tr.do("batch: empty", "POST", "/v1/schedule:batch", schedroute.BatchScheduleRequest{})
	tr.do("batch: unknown schema_version", "POST", "/v1/schedule:batch", schedroute.BatchScheduleRequest{SchemaVersion: 99, Items: []schedroute.ScheduleRequest{{Problem: p150}}})

	// ---- /v1/repair
	tr.do("repair: ok", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Fault: link})
	tr.do("repair: traced", "POST", "/v1/repair?debug=trace", schedroute.RepairRequest{Problem: p150, Fault: link})
	tr.do("repair: 422 with report", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Fault: schedroute.FaultSpec{Nodes: []int{0}}})
	tr.do("repair: empty fault", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150})
	tr.do("repair: bad link", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Fault: schedroute.FaultSpec{Links: []string{"0~1"}}})
	tr.do("repair: node out of range", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Fault: schedroute.FaultSpec{Nodes: []int{4096}}})
	tr.do("repair: infeasible base", "POST", "/v1/repair", schedroute.RepairRequest{Problem: testProblem(50), Fault: link})
	tr.do("repair: unknown schema_version", "POST", "/v1/repair", schedroute.RepairRequest{Problem: badSchema, Fault: link})
	tr.do("repair: bad engine", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Fault: link, Options: schedroute.Options{Engine: "quantum"}})
	tr.do("repair: period below the window", "POST", "/v1/repair", schedroute.RepairRequest{Problem: testProblem(10), Fault: link})

	// ---- /v1/admit, and the tenant-scoped arms of schedule and repair
	tr.do("admit: ok", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: video})
	tr.do("admit: second tenant, against the residual, traced", "POST", "/v1/admit?debug=trace", schedroute.AdmitRequest{Problem: audioP, Tenant: audio})
	tr.do("admit: 422 with report", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: testProblem(50), Tenant: tenantOf("strict", 0, 0.8)})
	tr.do("admit: duplicate", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: video})
	// One daemon, one fabric: a candidate on another topology is refused
	// before its ladder runs and changes nothing — the tenant that does
	// not fit beside video is turned away the same, and every
	// tenant-scoped video row below answers from cube:6 as before.
	// (IDs are reused so metrics_series.golden gains no label.)
	onCube7 := p150
	onCube7.Topology = "cube:7"
	tr.do("admit: no room beside video", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: tenantOf("strict", 0, 1)})
	tr.do("admit: an ID one fabric holds, on another", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: onCube7, Tenant: video})
	tr.do("admit: no room beside video, after the refusal", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: tenantOf("strict", 0, 1)})
	tr.do("admit: bad tenant", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: tenantOf("greedy", 0, 2)})
	bw := p150
	bw.Bandwidth = 128
	tr.do("admit: fabric bandwidth mismatch", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: bw, Tenant: tenantOf("wide", 0, 0)})
	tr.do("admit: unknown schema_version", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: badSchema, Tenant: tenantOf("future", 0, 0)})
	tr.do("admit: bad engine", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: tenantOf("q", 0, 0), Options: schedroute.Options{Engine: "quantum"}})
	tr.do("admit: window beyond the period", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: tenantOf("q", 0, 0), Options: schedroute.Options{Window: 200}})
	srv.maxTenants = 2 // video and audio
	tr.do("admit: the tenant registry is full", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: tenantOf("q", 0, 0)})
	srv.maxTenants = maxTenants
	tr.do("schedule: admitted tenant's standing", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: audioP, Tenant: audio})
	tr.do("schedule: tenant/problem mismatch", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: other, Tenant: video})
	tr.do("schedule: unknown schema_version, admitted tenant", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: staleSchema, Tenant: video})
	tr.do("batch: tenant standing, mismatch and default side by side", "POST", "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: []schedroute.ScheduleRequest{
		{Problem: audioP, Tenant: audio}, {Problem: other, Tenant: video}, {Problem: audioP},
	}})
	tr.do("repair: tenant-scoped ok", "POST", "/v1/repair", schedroute.RepairRequest{Problem: audioP, Tenant: audio, Fault: link})
	tr.do("repair: tenant-scoped traced", "POST", "/v1/repair?debug=trace", schedroute.RepairRequest{Problem: p150, Tenant: video, Fault: link})
	tr.do("repair: tenant-scoped 422 with report", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Tenant: video, Fault: schedroute.FaultSpec{Nodes: []int{0}}})
	tr.do("repair: tenant-scoped bad link", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Tenant: video, Fault: schedroute.FaultSpec{Links: []string{"0~1"}}})
	tr.do("repair: tenant/problem mismatch", "POST", "/v1/repair", schedroute.RepairRequest{Problem: other, Tenant: video, Fault: link})

	// ---- /v1/explore
	grid := schedroute.ExploreRequest{Problem: testProblem(0), Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Points: 2}}}
	tr.do("explore: grid", "POST", "/v1/explore", grid)
	tr.do("explore: grid traced", "POST", "/v1/explore?debug=trace", grid)
	tr.do("explore: grid with placements, executed", "POST", "/v1/explore", schedroute.ExploreRequest{
		Problem: testProblem(0), Execute: true, Invocations: 4,
		Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Points: 2}, Placement: &schedroute.PlacementAxis{Allocators: []string{"greedy"}}},
	})
	tr.do("explore: pareto", "POST", "/v1/explore", schedroute.ExploreRequest{
		Problem: testProblem(0), Objectives: []string{"tau_in", "latency"},
		Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Points: 2}},
	})
	tr.do("explore: inverted range", "POST", "/v1/explore", schedroute.ExploreRequest{Problem: testProblem(0), Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Min: 300, Max: 100}}})
	tr.do("explore: grid min below the longest task is clamped to it", "POST", "/v1/explore", schedroute.ExploreRequest{Problem: testProblem(0), Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Min: 10, Points: 2}}})
	tr.do("explore: range empty once clamped", "POST", "/v1/explore", schedroute.ExploreRequest{Problem: testProblem(0), Axes: schedroute.ExploreAxes{TauIn: &schedroute.TauInAxis{Min: 10, Max: 30}}})
	for _, inv := range []int{-1, schedroute.MaxInvocations + 1} {
		tr.do(fmt.Sprintf("explore: invocations %d", inv), "POST", "/v1/explore", schedroute.ExploreRequest{Problem: testProblem(0), Execute: true, Invocations: inv})
		tr.stream(fmt.Sprintf("watch: invocations %d", inv), "POST", "/v1/watch", schedroute.WatchRequest{Problem: p150, Execute: true, Invocations: inv})
	}
	tr.do("explore: unknown objective", "POST", "/v1/explore", schedroute.ExploreRequest{Problem: testProblem(0), Objectives: []string{"speed"}})
	tr.do("explore: unknown allocator", "POST", "/v1/explore", schedroute.ExploreRequest{Problem: testProblem(0), Axes: schedroute.ExploreAxes{Placement: &schedroute.PlacementAxis{Allocators: []string{"magic"}}}})
	tr.do("explore: negative anneal_steps", "POST", "/v1/explore", schedroute.ExploreRequest{Problem: testProblem(0), Axes: schedroute.ExploreAxes{Placement: &schedroute.PlacementAxis{AnnealSeeds: []int64{2}, AnnealSteps: -5}}})
	tr.do("explore: unknown schema_version", "POST", "/v1/explore", schedroute.ExploreRequest{Problem: badSchema})
	tr.do("explore: bad engine", "POST", "/v1/explore", schedroute.ExploreRequest{Problem: testProblem(0), Options: schedroute.Options{Engine: "quantum"}})

	// ---- /v1/watch: create, events, attach, delete
	tr.stream("watch: infeasible base", "POST", "/v1/watch", schedroute.WatchRequest{Problem: testProblem(50)})
	tr.stream("watch: unknown schema_version", "POST", "/v1/watch", schedroute.WatchRequest{Problem: badSchema})
	tr.stream("watch: bad engine", "POST", "/v1/watch", schedroute.WatchRequest{Problem: p150, Options: schedroute.Options{Engine: "quantum"}})
	tr.do("watch events: unknown id", "POST", "/v1/watch/nope/events", schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"0-1"}})
	tr.do("watch attach: unknown id", "GET", "/v1/watch/nope", nil)
	tr.do("watch delete: unknown id", "DELETE", "/v1/watch/nope", nil)

	st := tr.stream("watch: ok, hello frame", "POST", "/v1/watch?debug=trace", schedroute.WatchRequest{Problem: p150, Execute: true, Invocations: 4})
	id := onlySub(t, srv)
	events := "/v1/watch/" + id + "/events"
	tr.do("watch events: malformed JSON", "POST", events, `{"type":`)
	tr.do("watch events: unknown field", "POST", events, `{"type":"fault","links":["0-1"],"bogus":1}`)
	tr.do("watch events: unknown schema_version", "POST", events, schedroute.WatchEvent{SchemaVersion: 99, Type: schedroute.WatchEventFault, Links: []string{"0-1"}})
	tr.do("watch events: no type", "POST", events, schedroute.WatchEvent{})
	tr.do("watch events: unknown type", "POST", events, schedroute.WatchEvent{Type: "flood"})
	tr.do("watch events: unresolvable link", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"0-63"}})
	tr.do("watch events: fault accepted", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"0-1"}})
	st.frame("watch frame: repaired schedule, traced, executed")
	tr.do("watch events: repairing a healthy link is accepted", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventRepaired, Links: []string{"2-3"}})
	st.frame("watch frame: rejected event")
	tr.do("watch events: unsurvivable node fault accepted", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Nodes: []int{0}})
	st.frame("watch frame: infeasible ladder with report")
	tr.do("watch events: node back", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventRepaired, Nodes: []int{0}})
	st.frame("watch frame: recovered")
	tr.do("watch events: tau_in rebase", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventTauIn, TauIn: 250})
	st.frame("watch frame: rebased with the fault re-applied")
	tr.do("watch events: infeasible tau_in", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventTauIn, TauIn: 1})
	st.frame("watch frame: infeasible rebase keeps the period")
	tr.do("watch attach: bad Last-Event-ID", "GET", "/v1/watch/"+id, nil, "Last-Event-ID", "minus-one")
	rst := tr.stream("watch attach: resume after the hello replays the first event frame", "GET", "/v1/watch/"+id, nil, "Last-Event-ID", "1")
	rst.close()
	rst = tr.stream("watch attach: no Last-Event-ID starts at the newest frame", "GET", "/v1/watch/"+id, nil)
	rst.close()

	// Events on a closed subscription: the window between the terminal
	// frame and the registry removal, held open by hand.
	sub := srv.watches.get(id)
	holdClosed := func(v bool) {
		sub.mu.Lock()
		sub.log[len(sub.log)-1].terminal = v
		sub.mu.Unlock()
	}
	holdClosed(true)
	tr.do("watch events: closed subscription", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"4-5"}})
	holdClosed(false)
	tr.do("watch delete: ok", "DELETE", "/v1/watch/"+id, nil)
	st.frame("watch frame: closing")
	waitFor(t, "deleted subscription to unregister", func() bool { return len(liveSubs(srv)) == 0 })
	tr.do("watch events: deleted subscription", "POST", events, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"0-1"}})

	// ---- resume cursors at and past the newest frame, on a subscription
	// of their own: 0 replays the hello; one past the newest seq — by six,
	// or by all the int64 there is — is caught up, and its first frame is
	// the next one appended.
	cst := tr.stream("watch: second subscription, hello frame", "POST", "/v1/watch", schedroute.WatchRequest{Problem: p150})
	cid := onlySub(t, srv)
	tr.stream("watch attach: Last-Event-ID 0 replays the hello", "GET", "/v1/watch/"+cid, nil, "Last-Event-ID", "0").close()
	var caughtUp []*transcriptStream
	for _, cursor := range []string{"7", "9223372036854775807"} {
		resp := tr.send("GET", "/v1/watch/"+cid, nil, "Last-Event-ID", cursor)
		ahead := &transcriptStream{tr: tr, resp: resp, br: bufio.NewReader(resp.Body)}
		t.Cleanup(ahead.close)
		caughtUp = append(caughtUp, ahead)
	}
	tr.do("watch events: fault accepted, second subscription", "POST", "/v1/watch/"+cid+"/events", schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"0-1"}})
	cst.frame("watch frame: repaired schedule")
	caughtUp[0].frame("watch attach: Last-Event-ID 7, past the newest seq 1, starts at the next frame")
	caughtUp[1].frame("watch attach: Last-Event-ID 9223372036854775807 starts at the next frame")
	if n := srv.metrics.value("srschedd_watch_dropped_frames_total"); n != 0 {
		t.Errorf("a cursor past the newest frame counted %d dropped frames, want 0", n)
	}
	tr.do("watch delete: second subscription", "DELETE", "/v1/watch/"+cid, nil)
	cst.frame("watch frame: closing, second subscription")
	waitFor(t, "second subscription to unregister", func() bool { return len(liveSubs(srv)) == 0 })

	// ---- tenant-scoped watch
	tr.stream("watch: tenant/problem mismatch", "POST", "/v1/watch", schedroute.WatchRequest{Problem: other, Tenant: video}).close()
	for _, sub := range liveSubs(srv) { // none, unless the mismatch was let through
		sub.end(schedroute.WatchFrameClosing, 0, "transcript cleanup")
		<-sub.done
	}
	ast := tr.stream("watch: admitted tenant, hello frame", "POST", "/v1/watch", schedroute.WatchRequest{Problem: audioP, Tenant: audio})
	aevents := "/v1/watch/" + onlySub(t, srv) + "/events"
	tr.do("watch events: tenant fault accepted", "POST", aevents, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{"0-1"}})
	ast.frame("watch frame: tenant repair")
	tr.do("watch events: tenant tau_in accepted", "POST", aevents, schedroute.WatchEvent{Type: schedroute.WatchEventTauIn, TauIn: 300})
	ast.frame("watch frame: tenant tau_in")
	tr.do("schedule: the other tenant's standing afterwards", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: p150, Tenant: video})

	// ---- draining: every queueing endpoint sheds, the stream closes
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ast.frame("watch frame: closing on drain")
	tr.do("draining: healthz", "GET", "/healthz", nil)
	tr.do("draining: schedule", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: p150})
	tr.do("draining: schedule, admitted tenant still answered", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: p150, Tenant: video})
	tr.do("draining: batch", "POST", "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: []schedroute.ScheduleRequest{{Problem: p150}}})
	tr.do("draining: repair", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Fault: link})
	tr.do("draining: repair, tenant-scoped", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Tenant: video, Fault: link})
	tr.do("draining: admit", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: tenantOf("late", 0, 0)})
	tr.do("draining: explore", "POST", "/v1/explore", grid)
	tr.do("draining: watch", "POST", "/v1/watch", schedroute.WatchRequest{Problem: p150})
	tr.do("draining: bad input is still shed first", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: badSchema})

	// ---- queue full, on a second server with one worker and one queue
	// slot: one solve held open, one request queued behind it, and every
	// queueing endpoint then sheds with 503.
	full, fts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	full.beforeSolve = func(string) { <-release }
	held := make(chan struct{}, 2)
	hold := func(p schedroute.Problem) {
		postJSON(t, fts, "/v1/schedule", schedroute.ScheduleRequest{Problem: p})
		held <- struct{}{}
	}
	go hold(p150)
	waitFor(t, "first request to hold the worker", func() bool { return len(full.sem) == 1 })
	go hold(other)
	waitFor(t, "second request to fill the queue", func() bool { return len(full.inflight) == 2 })
	ftr := &transcript{t: t, ts: fts}
	ftr.do("queue full: schedule", "POST", "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(200)})
	ftr.do("queue full: batch", "POST", "/v1/schedule:batch", schedroute.BatchScheduleRequest{Items: []schedroute.ScheduleRequest{{Problem: p150}}})
	ftr.do("queue full: repair", "POST", "/v1/repair", schedroute.RepairRequest{Problem: p150, Fault: link})
	ftr.do("queue full: admit", "POST", "/v1/admit", schedroute.AdmitRequest{Problem: p150, Tenant: video})
	ftr.do("queue full: explore", "POST", "/v1/explore", grid)
	ftr.do("queue full: watch", "POST", "/v1/watch", schedroute.WatchRequest{Problem: p150})
	close(release)
	<-held
	<-held
	tr.out.Write(ftr.out.Bytes())

	checkGolden(t, "wire_transcript.golden", tr.out.Bytes())

	// ---- the series /metrics exposes after all that, values stripped
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var series bytes.Buffer
	fmt.Fprintf(&series, "%d %s\n", resp.StatusCode, resp.Header.Get("Content-Type"))
	for _, line := range strings.Split(strings.TrimRight(string(text), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		series.WriteString(line + "\n")
	}
	checkGolden(t, "metrics_series.golden", series.Bytes())
}
