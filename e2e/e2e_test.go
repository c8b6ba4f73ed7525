// Package e2e holds what only a process can show: that srschedd's main
// wires the listener, the mux, the profiler port and the signal handler
// together, and that the exit statuses scripts branch on (2 usage,
// 3 infeasible repair, 4 admission rejected) come out of the real
// binaries. TestMain builds srschedd, srsched and traceview once; each
// test boots its own daemon on 127.0.0.1:0, reads the bound address from
// the daemon's "listening" log line, and ends with a SIGTERM that must
// exit 0. Every wait is on a log line, a frame or a process exit, under
// one deadline. The tests share nothing and run in parallel: a race-built
// process sleeps a second on its way out (GORACE atexit_sleep_ms), and
// every test starts a few.
//
// What a handler answers — bodies, refusals, metric values, frame
// contents — is not asserted here: internal/service pins it in-process,
// byte for byte (wire_transcript.golden, metrics_series.golden) and by
// property (tenant_test.go, watch_test.go, explore_test.go). This
// package replaced five shell smokes; CHANGES.md (PR 23) maps each of
// their assertions to the test that holds it now.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"schedroute/pkg/schedroute"
)

// deadline bounds every wait in the package: a log line, a tool run, an
// HTTP answer, a stream, a drain (srschedd's own -drain-timeout is 10s).
const deadline = 30 * time.Second

// bin is the directory TestMain built the tools into.
var bin string

var client = &http.Client{Timeout: deadline}

func TestMain(m *testing.M) { os.Exit(buildAndRun(m)) }

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "schedroute-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin = dir

	// A race-built test binary builds race-built tools: a race inside the
	// daemon then fails the drain, which must exit 0 (the detector's 66).
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				args = append(args, "-race")
			}
		}
	}
	args = append(args, "../cmd/srschedd", "../cmd/srsched", "../cmd/traceview")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: go %s: %v\n%s", strings.Join(args, " "), err, out)
		return 1
	}
	return m.Run()
}

// daemonLog is srschedd's stderr — one JSON object per line — kept whole
// for failure reports, with the two addresses it announces handed out as
// they are logged.
type daemonLog struct {
	mu      sync.Mutex
	text    bytes.Buffer
	scanned int // bytes of text already searched for announcements

	listening, pprof chan string // one send each: srschedd logs each line once
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.text.Write(p)
	for {
		rest := l.text.Bytes()[l.scanned:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return len(p), nil
		}
		l.scanned += nl + 1
		var line struct{ Msg, Addr string }
		if json.Unmarshal(rest[:nl], &line) != nil {
			continue
		}
		switch line.Msg {
		case "listening":
			l.listening <- line.Addr
		case "pprof listening":
			l.pprof <- line.Addr
		}
	}
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.text.String()
}

// daemon is one running srschedd.
type daemon struct {
	t   *testing.T
	cmd *exec.Cmd
	log *daemonLog
	url string // the API root, http://127.0.0.1:<port>

	exited  chan struct{} // closed once the process is reaped
	waitErr error         // cmd.Wait's answer, readable after exited
}

// boot starts srschedd on a port of the kernel's choosing and returns
// once it has logged the address it bound. Whatever the test does next,
// the process is reaped when it ends: killed, if it is still running.
func boot(t *testing.T, flags ...string) *daemon {
	t.Helper()
	d := &daemon{
		t:      t,
		log:    &daemonLog{listening: make(chan string, 1), pprof: make(chan string, 1)},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(filepath.Join(bin, "srschedd"),
		append([]string{"-listen", "127.0.0.1:0", "-drain-timeout", "10s"}, flags...)...)
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		select {
		case <-d.exited:
		default:
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
	d.url = "http://" + d.announced(d.log.listening, "listening")
	return d
}

// announced waits for the address srschedd logs under msg.
func (d *daemon) announced(addr <-chan string, msg string) string {
	d.t.Helper()
	var a string
	select {
	case a = <-addr:
	case <-d.exited:
		d.t.Fatalf("srschedd exited (%v) before logging %q:\n%s", d.waitErr, msg, d.log)
	case <-time.After(deadline):
		d.t.Fatalf("srschedd did not log %q within %v:\n%s", msg, deadline, d.log)
	}
	return a
}

// drain sends SIGTERM and requires the graceful shutdown: exit status 0.
func (d *daemon) drain() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			d.t.Fatalf("srschedd after SIGTERM: %v\n%s", d.waitErr, d.log)
		}
	case <-time.After(deadline):
		d.t.Fatalf("srschedd still running %v after SIGTERM:\n%s", deadline, d.log)
	}
}

// do sends one request to url and returns the status and the body.
func (d *daemon) do(method, url, body string) (int, string) {
	d.t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		d.t.Fatalf("%v\n%s", err, d.log)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode, string(raw)
}

// tool runs one of the built binaries to completion and returns what it
// printed and its exit status.
func tool(t *testing.T, name string, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError // a nonzero status is the caller's to judge
	if ctx.Err() != nil || (err != nil && !errors.As(err, &exit)) {
		t.Fatalf("%s %s: %v (deadline %v)\n%s%s", name, strings.Join(args, " "), err, deadline, &out, &errOut)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// The paper's DVB application on the binary 6-cube at B = 64, as a
// request at τin = 150 and as srsched's flags (the period is the caller's).
const problem = `{"tfg": "dvb:4", "topology": "cube:6", "bandwidth": 64, "tau_in": 150}`

func srsched(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	return tool(t, "srsched", append([]string{"-tfg", "dvb:4", "-topo", "cube:6", "-bw", "64"}, args...)...)
}

// isChromeTrace reports whether doc is a trace_event document.
func isChromeTrace(doc []byte) bool {
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	return json.Unmarshal(doc, &ct) == nil && len(ct.TraceEvents) > 0
}

// TestBootServeDrain: main binds, serves every route of the mux it was
// handed — one request each, status only — answers the mux's plain 404
// off it (the retired snapshot and sweep routes, and the profiler, which
// never rides the API port), and a SIGTERM drains to exit 0. /v1/watch's
// three routes are TestDrainClosesAttachedStream's and TestWatchCLI's.
func TestBootServeDrain(t *testing.T) {
	t.Parallel()
	d := boot(t)
	for _, r := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/healthz", "", 200},
		{"GET", "/v1/version", "", 200},
		{"GET", "/metrics", "", 200},
		{"POST", "/v1/schedule", `{"problem": ` + problem + `}`, 200},
		{"POST", "/v1/schedule:batch", `{"items": [{"problem": ` + problem + `}]}`, 200},
		{"POST", "/v1/repair", `{"problem": ` + problem + `, "fault": {"links": ["0-1"]}}`, 200},
		{"POST", "/v1/admit", `{"problem": ` + problem + `, "tenant": {"id": "video"}}`, 200},
		{"POST", "/v1/explore", `{"problem": ` + problem + `, "axes": {"tau_in": {"points": 2}}}`, 200},
		{"GET", "/v1/snapshot/x", "", 404},
		{"POST", "/v1/sweep", "{}", 404},
		{"GET", "/debug/pprof/", "", 404},
	} {
		if got, body := d.do(r.method, d.url+r.path, r.body); got != r.want {
			t.Errorf("%s %s: status %d, want %d: %s", r.method, r.path, got, r.want, body)
		}
	}
	d.drain()
}

// TestDrainAtOnce: the "listening" line is a promise that SIGTERM
// drains. A signal sent the moment the line is read exits 0; it does
// not find a process that has yet to install its handler.
func TestDrainAtOnce(t *testing.T) {
	t.Parallel()
	boot(t).drain()
}

// TestDrainClosesAttachedStream: a SIGTERM with an SSE stream attached
// hands the stream its terminal closing frame, and the daemon still
// exits 0 — it does not wait out the drain deadline on the open
// connection, and it does not cut it.
func TestDrainClosesAttachedStream(t *testing.T) {
	t.Parallel()
	d := boot(t)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	wc := &schedroute.WatchClient{BaseURL: d.url}
	st, err := wc.Subscribe(ctx, schedroute.WatchRequest{
		Problem: schedroute.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: 64, TauIn: 150},
	})
	if err != nil {
		t.Fatalf("subscribe: %v\n%s", err, d.log)
	}
	d.drain()
	var last schedroute.WatchFrame
	for f := range st.Frames {
		last = f
	}
	if last.Type != schedroute.WatchFrameClosing || !last.Terminal {
		t.Errorf("the stream ended on a %q frame (terminal %v, err %v), want the terminal closing frame", last.Type, last.Terminal, st.Err())
	}
}

// TestUsageErrorsExit2: what a script branches on before anything runs.
// The warm-start and fleet flags stay retired, the profiler may not share
// the API port, srsched's modes exclude each other, and its -best and
// -procs counts are never negative.
func TestUsageErrorsExit2(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		tool string
		args []string
		want string // on stderr
	}{
		{"srschedd", []string{"-listen", "127.0.0.1:0", "-warmstart-dir", "x"}, "flag provided but not defined"},
		{"srschedd", []string{"-listen", "127.0.0.1:0", "-peers", "x"}, "flag provided but not defined"},
		{"srschedd", []string{"-listen", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"}, "-pprof-addr must differ from -listen"},
		{"srsched", []string{"-explore", "-best", "3"}, "conflicting modes"},
		{"srsched", []string{"-best", "-1"}, "-best and -procs must be >= 0"},
		{"srsched", []string{"-procs", "-1"}, "-best and -procs must be >= 0"},
	} {
		_, stderr, status := tool(t, c.tool, c.args...)
		if status != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s %s: exit %d, want 2 and %q on stderr:\n%s", c.tool, strings.Join(c.args, " "), status, c.want, stderr)
		}
	}
}

// TestPprofOnItsOwnPort: -pprof-addr serves the profiler on the address
// it logs, and the API port still answers /debug/pprof/ with a 404.
func TestPprofOnItsOwnPort(t *testing.T) {
	t.Parallel()
	// Not 127.0.0.1:0: the flag check compares the two strings.
	d := boot(t, "-pprof-addr", "localhost:0")
	pprof := "http://" + d.announced(d.log.pprof, "pprof listening")
	if got, _ := d.do("GET", pprof+"/debug/pprof/cmdline", ""); got != 200 {
		t.Errorf("profiler port: /debug/pprof/cmdline status %d, want 200", got)
	}
	if got, _ := d.do("GET", d.url+"/debug/pprof/", ""); got != 404 {
		t.Errorf("API port: /debug/pprof/ status %d, want 404", got)
	}
	d.drain()
}

// TestTraceThroughTheTools: srsched -trace renders the five pipeline
// stages and -trace-out writes a Chrome document; a ?debug=trace body
// from the daemon goes through traceview in both of its modes.
func TestTraceThroughTheTools(t *testing.T) {
	t.Parallel()
	chrome := filepath.Join(t.TempDir(), "chrome.json")
	stdout, stderr, status := srsched(t, "-tauin", "150", "-trace", "-trace-out", chrome)
	if status != 0 {
		t.Fatalf("srsched -trace: exit %d\n%s%s", status, stdout, stderr)
	}
	for _, stage := range []string{"time_bounds", "assign_paths", "interval_allocation", "interval_scheduling", "omega_emission"} {
		if !strings.Contains(stdout, stage) {
			t.Errorf("srsched -trace does not name stage %s:\n%s", stage, stdout)
		}
	}
	if doc, err := os.ReadFile(chrome); err != nil || !isChromeTrace(doc) {
		t.Errorf("-trace-out wrote no Chrome trace (%v): %.200s", err, doc)
	}

	d := boot(t)
	code, traced := d.do("POST", d.url+"/v1/schedule?debug=trace", `{"problem": `+problem+`}`)
	if code != 200 {
		t.Fatalf("/v1/schedule?debug=trace: status %d: %s", code, traced)
	}
	response := filepath.Join(t.TempDir(), "traced.json")
	if err := os.WriteFile(response, []byte(traced), 0o600); err != nil {
		t.Fatal(err)
	}
	if stdout, stderr, status := tool(t, "traceview", "-text", response); status != 0 || !strings.HasPrefix(stdout, "request") {
		t.Errorf("traceview -text: exit %d, want a tree rooted at request:\n%s%s", status, stdout, stderr)
	}
	if stdout, stderr, status := tool(t, "traceview", response); status != 0 || !isChromeTrace([]byte(stdout)) {
		t.Errorf("traceview: exit %d, want a Chrome trace:\n%.200s%s", status, stdout, stderr)
	}
	d.drain()
}

// TestWatchCLI: srsched -watch strikes and repairs one link over a live
// subscription — create, two events, delete — and prints the incremental
// repair, then the unaffected frame after it.
func TestWatchCLI(t *testing.T) {
	t.Parallel()
	d := boot(t)
	stdout, stderr, status := srsched(t, "-tauin", "150", "-fail-link", "0-1", "-watch", d.url)
	struck := strings.Index(stdout, "incremental")
	if status != 0 || struck < 0 || !strings.Contains(stdout[struck:], "unaffected") {
		t.Errorf("srsched -watch: exit %d, want incremental then unaffected:\n%s%s", status, stdout, stderr)
	}
	d.drain()
}

// TestAdmitCLI: srsched -admit exits 0 for an admitted tenant, 4 with
// the printed report for a rejected one, and with the service's own
// class (1) for a request that never reached a verdict; the daemon ends
// up holding the two it admitted.
func TestAdmitCLI(t *testing.T) {
	t.Parallel()
	d := boot(t)
	admit := func(args ...string) (string, string, int) {
		t.Helper()
		return srsched(t, append([]string{"-tauin", "150", "-admit", d.url}, args...)...)
	}
	// Same application, placements apart: identical placements never
	// co-schedule, a tenant's direct links being reserved whole.
	if stdout, stderr, status := admit("-tenant", "video", "-priority", "5"); status != 0 || !strings.Contains(stdout, `tenant "video": reserved`) {
		t.Fatalf("video: exit %d:\n%s%s", status, stdout, stderr)
	}
	if stdout, stderr, status := admit("-tenant", "audio", "-priority", "3", "-rate", "0.5", "-alloc", "random", "-seed", "1"); status != 0 || !strings.Contains(stdout, `tenant "audio": `) {
		t.Fatalf("audio: exit %d:\n%s%s", status, stdout, stderr)
	}
	if stdout, stderr, status := admit("-tenant", "best-effort", "-priority", "1", "-rate", "0.9"); status != 4 ||
		!strings.Contains(stdout, `tenant "best-effort": rejected`) || !strings.Contains(stdout, "reason: ") {
		t.Errorf("best-effort on video's placement: exit %d, want 4 and the rejection report:\n%s%s", status, stdout, stderr)
	}
	if stdout, stderr, status := admit("-tenant", "greedy", "-rate", "2"); status != 1 || !strings.Contains(stderr, "400 Bad Request") {
		t.Errorf("a rate guarantee of 2: exit %d, want 1 and the service's 400 on stderr:\n%s%s", status, stdout, stderr)
	}
	if _, metrics := d.do("GET", d.url+"/metrics", ""); !strings.Contains(metrics, "\nsrschedd_tenants 2\n") {
		t.Errorf("/metrics does not read srschedd_tenants 2:\n%s", metrics)
	}
	d.drain()
}

// TestInfeasibleRepairExits3: a fault no rung of the ladder survives —
// the node that hosts task 0 — is srsched's status 3, with the hint.
func TestInfeasibleRepairExits3(t *testing.T) {
	t.Parallel()
	stdout, stderr, status := srsched(t, "-tauin", "150", "-fail-node", "0")
	if status != 3 || !strings.Contains(stderr, "repair infeasible") || !strings.Contains(stderr, "hint: ") {
		t.Errorf("srsched -fail-node 0: exit %d, want 3 and the hint on stderr:\n%s%s", status, stdout, stderr)
	}
}

// TestExploreCLI: srsched -explore finds the annealed placement that
// carries the 6-cube at full load (τin = τc = 50 µs).
func TestExploreCLI(t *testing.T) {
	t.Parallel()
	stdout, stderr, status := srsched(t, "-explore", "-anneal-seeds", "2", "-grid-points", "2")
	if status != 0 || !strings.Contains(stdout, "min τin 50.00") {
		t.Errorf("srsched -explore: exit %d, want a placement at min τin 50.00:\n%s%s", status, stdout, stderr)
	}
}
