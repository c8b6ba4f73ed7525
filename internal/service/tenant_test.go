package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"schedroute/internal/errkind"
	"schedroute/internal/topology"
	"schedroute/pkg/schedroute"
)

func tenantOf(id string, prio int, rate float64) *schedroute.Tenant {
	return &schedroute.Tenant{ID: id, Priority: prio, RateGuarantee: rate}
}

// TestAdmitEndpoint drives the full admission surface over HTTP: a
// fitting tenant is admitted reserved, its tenant-scoped /v1/schedule
// serves the admitted schedule byte-for-byte, a duplicate admission is
// rejected as bad input, and the per-tenant metrics appear on /metrics.
func TestAdmitEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem:      testProblem(150),
		Tenant:       tenantOf("video", 5, 1),
		IncludeOmega: true,
	})
	if code != http.StatusOK {
		t.Fatalf("admit: status %d: %s", code, body)
	}
	var adm schedroute.AdmitResult
	if err := json.Unmarshal(body, &adm); err != nil {
		t.Fatal(err)
	}
	if !adm.Admitted || adm.Outcome != "reserved" || adm.TenantID != "video" {
		t.Fatalf("admit outcome: %+v", adm)
	}
	if adm.TauOut != 150 || adm.WindowScale != 1 {
		t.Fatalf("granted τout=%g scale=%g, want the requested 150 at scale 1", adm.TauOut, adm.WindowScale)
	}
	if adm.Schedule == nil || len(adm.Schedule.Omega) == 0 {
		t.Fatal("IncludeOmega did not embed the admitted schedule")
	}

	// The tenant-scoped schedule is the admitted standing, not a fresh
	// solve: the Ω bytes must match the admission response exactly.
	code, body = postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{
		Problem:      testProblem(150),
		Tenant:       tenantOf("video", 5, 1),
		IncludeOmega: true,
	})
	if code != http.StatusOK {
		t.Fatalf("tenant schedule: status %d: %s", code, body)
	}
	var sched schedroute.ScheduleResult
	if err := json.Unmarshal(body, &sched); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sched.Omega, adm.Schedule.Omega) {
		t.Fatal("tenant-scoped schedule Ω differs from the admitted Ω")
	}

	// An admitted tenant asking about a different problem is a bad
	// request: its standing is per-problem.
	code, body = postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{
		Problem: schedroute.Problem{TFG: "chain:8", Topology: "cube:6", TauIn: 150},
		Tenant:  tenantOf("video", 5, 1),
	})
	if code != http.StatusBadRequest {
		t.Fatalf("mismatched tenant problem: status %d: %s", code, body)
	}

	// Duplicate admission of a live tenant id.
	code, body = postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem: testProblem(150),
		Tenant:  tenantOf("video", 5, 1),
	})
	if code != http.StatusBadRequest {
		t.Fatalf("duplicate admit: status %d: %s", code, body)
	}

	// A tenant never admitted falls through to the plain solve path.
	code, _ = postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{
		Problem: testProblem(150),
		Tenant:  tenantOf("ghost", 0, 0),
	})
	if code != http.StatusOK {
		t.Fatalf("unadmitted tenant solve: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"srschedd_tenants 1",
		`srschedd_admissions_total{outcome="reserved"} 1`,
		`srschedd_tenant_requests_total{endpoint="admit",tenant="video"} 2`,
		`srschedd_tenant_requests_total{endpoint="schedule",tenant="video"} 2`,
		`srschedd_tenant_requests_total{endpoint="schedule",tenant="unadmitted"} 1`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if n := srv.metrics.value("srschedd_admissions_total", "reserved"); n != 1 {
		t.Errorf("reserved admissions counter = %d, want 1", n)
	}
}

// TestGhostTenantsShareOneMetricCell: a client can send any tenant.id it
// likes, so an id is a label only while the registry holds it. 1000 ids
// nobody admitted, and one refused admission, leave one cell per
// endpoint; the admitted id keeps its own.
func TestGhostTenantsShareOneMetricCell(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{Problem: testProblem(150), Tenant: tenantOf("video", 5, 1)}); code != http.StatusOK {
		t.Fatalf("admit: status %d: %s", code, body)
	}
	for i := 0; i < 1000; i++ {
		ghost := tenantOf(fmt.Sprintf("ghost-%d", i), 0, 0)
		if code, body := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(150), Tenant: ghost}); code != http.StatusOK {
			t.Fatalf("ghost %d: status %d: %s", i, code, body)
		}
	}
	if code, _ := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{Problem: testProblem(150), Tenant: tenantOf("strict", 0, 1)}); code != http.StatusUnprocessableEntity {
		t.Fatalf("admit beside video at full rate: status %d, want 422", code)
	}
	if n := len(srv.metrics.vecs[mTenantRequests.id].cells); n != 3 {
		t.Errorf("%d tenant-request cells, want 3: admit/video, admit/unadmitted, schedule/unadmitted", n)
	}
	for _, c := range []struct {
		endpoint, tenant string
		want             int64
	}{{"admit", "video", 1}, {"admit", unadmittedTenant, 1}, {"schedule", unadmittedTenant, 1000}} {
		if n := srv.metrics.value("srschedd_tenant_requests_total", c.endpoint, c.tenant); n != c.want {
			t.Errorf("tenant_requests{%s, %s} = %d, want %d", c.endpoint, c.tenant, n, c.want)
		}
	}
}

// TestAdmitDegradedRateAndRejection: the DVB workload at τin=50 is
// infeasible at full rate but admissible at τout=75 (factor 1.5), so a
// tenant guaranteeing 0.5 of its rate is admitted degraded-rate while
// one guaranteeing 0.8 is a 422 admission_rejected whose error body
// carries the shared envelope and the full admission report.
func TestAdmitDegradedRateAndRejection(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem: testProblem(50),
		Tenant:  tenantOf("elastic", 0, 0.5),
	})
	if code != http.StatusOK {
		t.Fatalf("elastic admit: status %d: %s", code, body)
	}
	var adm schedroute.AdmitResult
	if err := json.Unmarshal(body, &adm); err != nil {
		t.Fatal(err)
	}
	if adm.Outcome != "degraded-rate" || adm.TauOut != 75 {
		t.Fatalf("elastic outcome %q τout=%g, want degraded-rate at 75", adm.Outcome, adm.TauOut)
	}

	// The strict tenant demands 0.8 of its rate; 1/1.5 < 0.8, so the
	// rate rung cannot go far enough and the set has no one to evict.
	code, body = postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem: testProblem(50),
		Tenant:  tenantOf("strict", 0, 0.8),
	})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("strict admit: status %d: %s", code, body)
	}
	var er schedroute.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "admission_rejected" {
		t.Fatalf("rejection kind %q, want admission_rejected", er.Kind)
	}
	c, _ := errkind.Classify(errkind.ErrAdmissionRejected)
	if er.Detail != c.Detail {
		t.Fatalf("rejection detail %q drifted from table %q", er.Detail, c.Detail)
	}
	if er.Admit == nil || er.Admit.Admitted || er.Admit.Outcome != "rejected" || er.Admit.Reason == "" {
		t.Fatalf("rejection report: %+v", er.Admit)
	}
	if n := srv.metrics.value("srschedd_admissions_total", "rejected"); n != 1 {
		t.Errorf("rejected admissions counter = %d, want 1", n)
	}
}

// TestAdmissionLeavesAdmittedOmegaUntouched is the service-level
// invariant check: whatever a later admission attempt does — admitted
// or rejected — an already-admitted tenant's Ω bytes never move.
func TestAdmissionLeavesAdmittedOmegaUntouched(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem:      testProblem(150),
		Tenant:       tenantOf("anchor", 5, 1),
		IncludeOmega: true,
	})
	if code != http.StatusOK {
		t.Fatalf("anchor admit: status %d: %s", code, body)
	}
	var adm schedroute.AdmitResult
	if err := json.Unmarshal(body, &adm); err != nil {
		t.Fatal(err)
	}
	before := adm.Schedule.Omega

	// A second tenant tries the same fabric at equal priority: whether
	// it fits the residual or not, it may not perturb the anchor.
	code, body = postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem: testProblem(250),
		Tenant:  tenantOf("later", 5, 0),
	})
	if code != http.StatusOK && code != http.StatusUnprocessableEntity {
		t.Fatalf("later admit: status %d: %s", code, body)
	}

	code, body = postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{
		Problem:      testProblem(150),
		Tenant:       tenantOf("anchor", 5, 1),
		IncludeOmega: true,
	})
	if code != http.StatusOK {
		t.Fatalf("anchor schedule: status %d: %s", code, body)
	}
	var sched schedroute.ScheduleResult
	if err := json.Unmarshal(body, &sched); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sched.Omega, before) {
		t.Fatal("anchor's Ω moved after a later admission attempt")
	}
}

// TestBatchGroupsByTenant: two batch items naming the identical
// problem but different tenants must not share one result — the
// admitted tenant's item is its admitted standing (granted τout 75),
// the default item is a plain solve (infeasible at τin=50).
func TestBatchGroupsByTenant(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem: testProblem(50),
		Tenant:  tenantOf("elastic", 0, 0.5),
	})
	if code != http.StatusOK {
		t.Fatalf("admit: status %d: %s", code, body)
	}

	code, body = postJSON(t, ts, "/v1/schedule:batch", schedroute.BatchScheduleRequest{
		Items: []schedroute.ScheduleRequest{
			{Problem: testProblem(50), Tenant: tenantOf("elastic", 0, 0.5)},
			{Problem: testProblem(50)},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	var out schedroute.BatchScheduleResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 2 {
		t.Fatalf("batch returned %d items", len(out.Items))
	}
	tenantItem, plain := out.Items[0].Result, out.Items[1].Result
	if tenantItem == nil || plain == nil {
		t.Fatalf("batch items errored: %+v", out.Items)
	}
	if !tenantItem.Feasible || tenantItem.TauIn != 75 {
		t.Fatalf("tenant item: feasible=%t τ=%g, want the admitted standing at 75", tenantItem.Feasible, tenantItem.TauIn)
	}
	if plain.Feasible {
		t.Fatal("default-tenant item should be the plain (infeasible) solve at τin=50")
	}
}

// TestBatchItemErrorEnvelope: a failed batch item carries the same
// {error, kind, detail} triple its standalone error body would.
func TestBatchItemErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts, "/v1/schedule:batch", schedroute.BatchScheduleRequest{
		Items: []schedroute.ScheduleRequest{
			{Problem: schedroute.Problem{TFG: "dvb:4", Topology: "not-a-topology"}},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	var out schedroute.BatchScheduleResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	it := out.Items[0]
	c, _ := errkind.Classify(errkind.ErrBadInput)
	if it.Kind != c.Name || it.Detail != c.Detail || it.Error == "" {
		t.Fatalf("batch item envelope drifted from table: %+v vs %+v", it, c)
	}
}

// TestTenantRepairScoped: a tenant-scoped /v1/repair runs the ladder
// from the tenant's admitted base and answers without disturbing the
// tenant's admitted schedule.
func TestTenantRepairScoped(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem:      testProblem(150),
		Tenant:       tenantOf("video", 5, 0),
		IncludeOmega: true,
	})
	if code != http.StatusOK {
		t.Fatalf("admit: status %d: %s", code, body)
	}
	var adm schedroute.AdmitResult
	if err := json.Unmarshal(body, &adm); err != nil {
		t.Fatal(err)
	}

	code, body = postJSON(t, ts, "/v1/repair", schedroute.RepairRequest{
		Problem: testProblem(150),
		Tenant:  tenantOf("video", 5, 0),
		Fault:   schedroute.FaultSpec{Links: []string{"0-1"}},
	})
	if code != http.StatusOK {
		t.Fatalf("tenant repair: status %d: %s", code, body)
	}
	var rep schedroute.RepairResult
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Outcome == "" || rep.Outcome == "infeasible" {
		t.Fatalf("tenant repair outcome %q", rep.Outcome)
	}

	// The repair query is stateless: the tenant's schedule is untouched.
	code, body = postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{
		Problem:      testProblem(150),
		Tenant:       tenantOf("video", 5, 0),
		IncludeOmega: true,
	})
	if code != http.StatusOK {
		t.Fatalf("schedule after repair: status %d: %s", code, body)
	}
	var sched schedroute.ScheduleResult
	if err := json.Unmarshal(body, &sched); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sched.Omega, adm.Schedule.Omega) {
		t.Fatal("a stateless repair query moved the tenant's Ω")
	}
}

// TestAdmitFabricBandwidthPinned: the first admission fixes the
// fabric's bandwidth; a tenant naming a different bandwidth for the
// same topology is a bad request, not a silently different machine.
func TestAdmitFabricBandwidthPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem: testProblem(150),
		Tenant:  tenantOf("a", 0, 0),
	})
	if code != http.StatusOK {
		t.Fatalf("first admit: status %d: %s", code, body)
	}
	p := testProblem(150)
	p.Bandwidth = 128
	code, body = postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{
		Problem: p,
		Tenant:  tenantOf("b", 0, 0),
	})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "bandwidth") {
		t.Fatalf("mismatched bandwidth: status %d: %s", code, body)
	}
}

// TestOneFabricPerDaemon: the daemon schedules one machine. Admissions
// rejected while no tenant is in leave no fabric behind, whatever
// topology they named; the first admitted tenant pins the topology, and
// a candidate naming another is refused before its ladder runs — an ID
// the fabric holds or not, evicted or not — as is the loser of two
// first admissions racing onto two topologies. After every step the
// srschedd_tenants gauge and the index equal what the fabric holds.
func TestOneFabricPerDaemon(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	admit := func(p schedroute.Problem, ten *schedroute.Tenant) (int, string) {
		t.Helper()
		code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{Problem: p, Tenant: ten})
		registryMatches(t, srv, ten.ID+" on "+p.Topology)
		return code, string(body)
	}
	onCube7 := testProblem(150)
	onCube7.Topology = "cube:7"

	// Rejected on an empty daemon, on two topologies: nothing is pinned.
	for _, p := range []schedroute.Problem{testProblem(50), onCube7} {
		p.TauIn = 50
		if code, body := admit(p, tenantOf("strict", 0, 0.8)); code != http.StatusUnprocessableEntity {
			t.Fatalf("strict on %s: status %d, want 422: %s", p.Topology, code, body)
		}
	}
	if fab := srv.tenants.fab.Load(); fab != nil {
		t.Fatalf("rejected admissions left a fabric: %+v", fab)
	}

	if code, body := admit(testProblem(150), tenantOf("a", 1, 1)); code != http.StatusOK {
		t.Fatalf("a on cube:6: status %d: %s", code, body)
	}
	refused := func(ten *schedroute.Tenant) {
		t.Helper()
		code, body := admit(onCube7, ten)
		if code != http.StatusBadRequest || !strings.Contains(body, `"kind":"bad_input"`) || !strings.Contains(body, "cube:6") {
			t.Fatalf("%s on cube:7 of a cube:6 daemon: status %d: %s", ten.ID, code, body)
		}
	}
	refused(tenantOf("a", 1, 1))
	refused(tenantOf("b", 1, 1))
	// The same placement at a higher priority evicts a, which frees the
	// ID — not the topology.
	code, body := admit(testProblem(150), tenantOf("boss", 9, 1))
	if code != http.StatusOK || !strings.Contains(body, `"evicted":["a"]`) {
		t.Fatalf("boss on cube:6: status %d: %s", code, body)
	}
	refused(tenantOf("a", 1, 1))

	// Two first admissions at once, on two topologies: one pins, the
	// other is refused by it.
	race, rts := newTestServer(t, Config{})
	codes := make(chan int, 2)
	for _, p := range []schedroute.Problem{testProblem(150), onCube7} {
		body, err := json.Marshal(schedroute.AdmitRequest{Problem: p, Tenant: tenantOf("c-"+p.Topology, 0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.Post(rts.URL+"/v1/admit", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	if a, b := <-codes, <-codes; a+b != http.StatusOK+http.StatusBadRequest {
		t.Fatalf("first admissions on two topologies at once: statuses %d and %d, want one 200 and one 400", a, b)
	}
	registryMatches(t, race, "two first admissions at once")
}

// registryMatches checks that the srschedd_tenants gauge and the
// registry's index both equal the tenants the daemon's fabric holds.
func registryMatches(t *testing.T, srv *Server, after string) {
	t.Helper()
	srv.tenants.mu.Lock()
	held, indexed := 0, len(srv.tenants.tenants)
	if fab := srv.tenants.fab.Load(); fab != nil {
		held = len(fab.set.Tenants())
	}
	srv.tenants.mu.Unlock()
	if gauge := srv.metrics.value("srschedd_tenants"); int(gauge) != held || indexed != held {
		t.Fatalf("after %s: srschedd_tenants = %d and %d indexed, the fabric holds %d", after, gauge, indexed, held)
	}
}

// TestTenantRegistryIsBounded: past maxTenants an admission is shed as
// 503 unavailable before its ladder runs — the admissions counter does
// not move — and the registry stays at the cap. The tenants have no
// message, so they reserve nothing and would all fit.
func TestTenantRegistryIsBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.maxTenants = 3
	empty := schedroute.Problem{TFG: "chain:1", Topology: "cube:6", Bandwidth: 64, TauIn: 150}
	for i := 0; i < 5; i++ {
		code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{Problem: empty, Tenant: tenantOf(fmt.Sprintf("t%d", i), 0, 0)})
		switch {
		case i < 3 && code != http.StatusOK:
			t.Fatalf("admission %d under the cap: status %d: %s", i, code, body)
		case i >= 3 && (code != http.StatusServiceUnavailable || !strings.Contains(string(body), `"kind":"unavailable"`)):
			t.Fatalf("admission %d past the cap: status %d, want 503 unavailable: %s", i, code, body)
		}
	}
	registryMatches(t, srv, "five admissions against a cap of three")
	if n := len(srv.tenants.tenants); n != 3 {
		t.Fatalf("%d tenants registered, cap 3", n)
	}
	if n := srv.metrics.value("srschedd_admissions_total", "reserved"); n != 3 {
		t.Fatalf("%d admissions ran their ladder, want 3", n)
	}
}

// TestWatchErrorFrameEnvelope: a rejected watch event's error frame
// carries the shared envelope with the bad_input classification.
func TestWatchErrorFrameEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c, hello := openWatch(t, ts, schedroute.WatchRequest{Problem: testProblem(150)})
	defer c.Close()

	// Repairing a link that never failed is a rejected event.
	code, body := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{
		Type: schedroute.WatchEventRepaired, Links: []string{"0-1"},
	})
	if code != http.StatusOK {
		t.Fatalf("event: status %d: %s", code, body)
	}
	frame, _ := c.nextPayload(t)
	if frame.Type != schedroute.WatchFrameError {
		t.Fatalf("frame type %q, want error", frame.Type)
	}
	if frame.Err == nil || frame.Err.Kind != "bad_input" {
		t.Fatalf("error frame envelope: %+v", frame.Err)
	}
	cls, _ := errkind.Classify(errkind.ErrBadInput)
	if frame.Err.Detail != cls.Detail {
		t.Fatalf("error frame detail %q drifted from table %q", frame.Err.Detail, cls.Detail)
	}
}

// TestWatchTenantScoped pins the tenant scope of /v1/watch to the one
// /v1/schedule and /v1/repair already honour: an admitted tenant
// watching a different problem is a bad request; watching its own
// problem it gets its admitted standing in the hello frame, repairs
// through its own admission-time link shares (byte-identical to a
// tenant-scoped /v1/repair), a non-terminal bad_input frame for a
// tau_in event (the period was fixed at admission), and none of it
// moves another tenant's Ω.
func TestWatchTenantScoped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	video, audio := tenantOf("video", 5, 1), tenantOf("audio", 3, 0.5)
	audioP := testProblem(150)
	audioP.Allocator, audioP.AllocSeed = "random", 1 // half a machine away from video's rr placement

	admit := func(p schedroute.Problem, ten *schedroute.Tenant) schedroute.AdmitResult {
		t.Helper()
		code, body := postJSON(t, ts, "/v1/admit", schedroute.AdmitRequest{Problem: p, Tenant: ten, IncludeOmega: true})
		var adm schedroute.AdmitResult
		if err := json.Unmarshal(body, &adm); code != http.StatusOK || err != nil || !adm.Admitted {
			t.Fatalf("admit %s: status %d (%v): %s", ten.ID, code, err, body)
		}
		return adm
	}
	admit(testProblem(150), video)
	audioAdm := admit(audioP, audio)
	videoOmega := func() []byte {
		t.Helper()
		code, body := postJSON(t, ts, "/v1/schedule", schedroute.ScheduleRequest{Problem: testProblem(150), Tenant: video, IncludeOmega: true})
		var out schedroute.ScheduleResult
		if err := json.Unmarshal(body, &out); code != http.StatusOK || err != nil {
			t.Fatalf("video schedule: status %d (%v): %s", code, err, body)
		}
		return out.Omega
	}
	before := videoOmega()

	// A different problem than the tenant was admitted with: 400, as on
	// /v1/schedule and /v1/repair.
	raw, _ := json.Marshal(schedroute.WatchRequest{
		Problem: schedroute.Problem{TFG: "chain:8", Topology: "cube:6", TauIn: 150}, Tenant: audio,
	})
	resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest { // a 200 here is an open stream: do not read it
		t.Fatalf("mismatched tenant watch: status %d, want 400", resp.StatusCode)
	}
	var er schedroute.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Kind != "bad_input" {
		t.Fatalf("mismatched tenant watch: kind %q (%v), want bad_input", er.Kind, err)
	}

	// Its own problem: the hello frame is its admitted standing.
	c, hello := openWatch(t, ts, schedroute.WatchRequest{Problem: audioP, Tenant: audio, IncludeOmega: true})
	defer c.Close()
	if hello.Schedule == nil || !bytes.Equal(hello.Schedule.Omega, audioAdm.Schedule.Omega) {
		t.Fatal("tenant watch hello does not carry the admitted Ω")
	}

	// A fault on a link the tenant's admitted schedule uses: the frame's
	// repair is the tenant arm of /v1/repair, byte for byte.
	built, err := schedroute.NewProblem(audioP)
	if err != nil {
		t.Fatal(err)
	}
	var spec string
	for l := 0; l < built.Topology.Links() && spec == ""; l++ {
		cand := linkSpec(built.Topology, topology.LinkID(l))
		code, body := postJSON(t, ts, "/v1/repair", schedroute.RepairRequest{
			Problem: audioP, Tenant: audio, Fault: schedroute.FaultSpec{Links: []string{cand}},
		})
		var rep schedroute.RepairResult
		if err := json.Unmarshal(body, &rep); code == http.StatusOK && err == nil && rep.Affected > 0 {
			spec = cand
		}
	}
	if spec == "" {
		t.Fatal("no single link fault affects the tenant's schedule")
	}
	if code, body := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventFault, Links: []string{spec}}); code != http.StatusOK {
		t.Fatalf("fault event: status %d: %s", code, body)
	}
	frame, _ := c.nextPayload(t)
	code, body := postJSON(t, ts, "/v1/repair", schedroute.RepairRequest{
		Problem: audioP, Tenant: audio, Fault: schedroute.FaultSpec{Links: []string{spec}}, IncludeOmega: true,
	})
	var cold schedroute.RepairResult
	if err := json.Unmarshal(body, &cold); code != http.StatusOK || err != nil {
		t.Fatalf("tenant repair: status %d (%v): %s", code, err, body)
	}
	if frame.Type != schedroute.WatchFrameSchedule || frame.Repair == nil ||
		!bytes.Equal(repairWire(t, frame.Repair), repairWire(t, &cold)) {
		t.Fatalf("tenant watch frame diverges from the tenant-scoped /v1/repair:\n%.300s\nvs\n%.300s",
			repairWire(t, frame.Repair), repairWire(t, &cold))
	}

	// The period was fixed at admission.
	if code, body := sendEvent(t, ts, hello.SubID, schedroute.WatchEvent{Type: schedroute.WatchEventTauIn, TauIn: 300}); code != http.StatusOK {
		t.Fatalf("tau_in event: status %d: %s", code, body)
	}
	frame, _ = c.nextPayload(t)
	if frame.Type != schedroute.WatchFrameError || frame.Terminal || frame.Err == nil || frame.Err.Kind != "bad_input" {
		t.Fatalf("tenant tau_in frame = %+v, want a non-terminal bad_input error", frame)
	}

	if !bytes.Equal(videoOmega(), before) {
		t.Fatal("a tenant's watch moved another tenant's Ω")
	}
}
