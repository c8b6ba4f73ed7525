package service

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"schedroute/pkg/schedroute"
)

var updateReadme = flag.Bool("update-readme", false, "rewrite the generated Metrics table in README.md")

const (
	metricsBegin = "<!-- metrics:begin — generated from metricTable (internal/service/metrics.go); refresh with `go test ./internal/service -run MetricsReference -update-readme` -->\n"
	metricsEnd   = "<!-- metrics:end -->\n"
)

// metricsReference renders metricTable as the README's Metrics table.
func metricsReference() string {
	var b strings.Builder
	b.WriteString("| Series | Type | Labels | Help |\n|---|---|---|---|\n")
	for _, s := range metricTable {
		labels := "—"
		if len(s.labels) > 0 {
			labels = "`" + strings.Join(s.labels, "`, `") + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", s.name, s.typ, labels, s.help)
	}
	return b.String()
}

// TestMetricsReferenceInREADME keeps the README's metrics reference
// equal to the one table /metrics is rendered from, so a series cannot
// be added, renamed or re-described without its documentation.
func TestMetricsReferenceInREADME(t *testing.T) {
	const path = "../../README.md"
	readme, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(readme, []byte(metricsBegin))
	end := bytes.Index(readme, []byte(metricsEnd))
	if begin < 0 || end < begin {
		t.Fatalf("%s has no metrics:begin / metrics:end marker pair", path)
	}
	begin += len(metricsBegin)
	want := metricsReference()
	if got := string(readme[begin:end]); got != want {
		if !*updateReadme {
			t.Fatalf("%s Metrics table differs from metricTable; want:\n%s", path, want)
		}
		out := append(append(append([]byte{}, readme[:begin]...), want...), readme[end:]...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMetricTableNaming holds every row to the exposition conventions:
// the srschedd_ prefix, help text, a known type, a counter named
// *_total (and nothing else named so), unique names, and no more labels
// than a labelKey holds.
func TestMetricTableNaming(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range metricTable {
		if !strings.HasPrefix(s.name, "srschedd_") || seen[s.name] {
			t.Errorf("%s: not a unique srschedd_ name", s.name)
		}
		seen[s.name] = true
		if s.help == "" || !strings.HasSuffix(s.help, ".") {
			t.Errorf("%s: help %q must be a sentence", s.name, s.help)
		}
		switch s.typ {
		case "counter", "gauge", "summary", "histogram":
		default:
			t.Errorf("%s: unknown type %q", s.name, s.typ)
		}
		if (s.typ == "counter") != strings.HasSuffix(s.name, "_total") {
			t.Errorf("%s: type %s — counters, and only counters, end in _total", s.name, s.typ)
		}
		if len(s.labels) > len(labelKey{}) {
			t.Errorf("%s: %d labels, a labelKey holds %d", s.name, len(s.labels), len(labelKey{}))
		}
	}
	if len(metricTable) != 29 {
		t.Errorf("%d series; adding or retiring one is a documented decision (README Metrics, DESIGN §6)", len(metricTable))
	}
}

// TestGoroutinesGauge holds srschedd_goroutines to runtime.NumGoroutine
// at scrape time: with eight goroutines parked, the value and the
// exposition each lie between two direct readings taken around them,
// and the gauge falls back once the eight exit. A reading before the
// eight start is no lower bound: a goroutine an earlier test left, such
// as an HTTP client connection's read loop, may exit at any point.
func TestGoroutinesGauge(t *testing.T) {
	m := newMetrics()
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	done := make(chan struct{}, 8)
	for range 8 {
		go func() {
			<-release
			done <- struct{}{}
		}()
	}
	bracket := func(what string, read func() int64) {
		t.Helper()
		before := runtime.NumGoroutine()
		got := read()
		after := runtime.NumGoroutine()
		if got < int64(min(before, after)) || got > int64(max(before, after)) {
			t.Fatalf("%s %d with 8 goroutines parked, between direct readings of %d and %d", what, got, before, after)
		}
	}
	bracket("gauge", func() int64 { return m.value("srschedd_goroutines") })
	bracket("scraped srschedd_goroutines", func() int64 {
		var b bytes.Buffer
		m.WriteText(&b)
		var scraped int64
		if _, v, ok := strings.Cut(b.String(), "\nsrschedd_goroutines "); !ok {
			t.Fatal("exposition has no srschedd_goroutines sample")
		} else if _, err := fmt.Sscan(v, &scraped); err != nil {
			t.Fatalf("srschedd_goroutines sample %q: %v", v, err)
		}
		return scraped
	})
	close(release)
	for range 8 {
		<-done
	}
	waitFor(t, "the gauge to fall back", func() bool { return m.value("srschedd_goroutines") <= int64(base) })
}

// TestTopologyGauges holds srschedd_topologies and
// srschedd_topology_routes to the machine intern and srschedd_graphs to
// the graph intern at scrape time, in the value and in the exposition: a
// structure's machine is among those counted, with the routes its solve
// enumerated, and a second placement of the same graph on the same
// machine adds no machine and no graph.
func TestTopologyGauges(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	scraped := func(name string) (n int) {
		t.Helper()
		var b bytes.Buffer
		srv.metrics.WriteText(&b)
		if _, v, ok := strings.Cut(b.String(), "\n"+name+" "); !ok {
			t.Fatalf("exposition has no %s sample", name)
		} else if _, err := fmt.Sscan(v, &n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	check := func() (machines, routes, graphs int) {
		t.Helper()
		machines, routes = schedroute.InternedMachines()
		graphs = schedroute.InternedGraphs()
		for _, g := range []struct {
			name string
			want int
		}{{"srschedd_topologies", machines}, {"srschedd_topology_routes", routes}, {"srschedd_graphs", graphs}} {
			if v, s := srv.metrics.value(g.name), scraped(g.name); v != int64(g.want) || s != g.want {
				t.Errorf("%s reads %d, scrapes %d; the intern holds %d", g.name, v, s, g.want)
			}
		}
		return machines, routes, graphs
	}
	problem := func(seed int64) schedroute.Problem {
		return schedroute.Problem{TFG: "dvb:4", Topology: "torus:6,6", Bandwidth: 128, Allocator: "random", AllocSeed: seed}
	}
	solve := func(seed int64) {
		t.Helper()
		if code, body := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: problem(seed)}); code != 200 {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	check()
	solve(1)
	m1, r1, g1 := check()
	b, err := schedroute.NewProblem(problem(1))
	if err != nil {
		t.Fatal(err)
	}
	if own := b.Topology.RouteMemoLen(); m1 < 1 || own == 0 || own > r1 {
		t.Fatalf("after a structure on torus:6,6: %d machines holding %d routes, torus:6,6 alone %d", m1, r1, own)
	}
	if g1 < 1 {
		t.Fatalf("after a structure of dvb:4: %d graphs", g1)
	}
	solve(2)
	if m2, r2, g2 := check(); m2 != m1 || r2 < r1 || g2 != g1 {
		t.Errorf("after a second placement on torus:6,6: %d machines, %d routes, %d graphs; %d, %d and %d before", m2, r2, g2, m1, r1, g1)
	}
}
