package schedule

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// pairTenant builds a single producer/consumer tenant between two
// nodes of the topology: xmit bits at uniform timing (50, 64), period
// tauIn. With tauIn = τc = 50 the window-widening rung is structurally
// unavailable (any widened window would exceed the period), which lets
// tests pin admission decisions to the utilization numbers alone.
func pairTenant(t *testing.T, top *topology.Topology, id string, src, dst topology.NodeID, xmitBits int, tauIn float64) Tenant {
	t.Helper()
	g, err := tfg.Chain(2, 100, int64(xmitBits))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	as := &alloc.Assignment{NodeOf: []topology.NodeID{src, dst}}
	return Tenant{
		ID:      id,
		Problem: Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: tauIn},
		Options: Options{Seed: 1},
	}
}

// chainTenant is the repairFixture workload as a tenant: an 8-task
// chain placed one task per node of a 3-cube, lightly loaded.
func chainTenant(t *testing.T, top *topology.Topology, id string) Tenant {
	t.Helper()
	g, err := tfg.Chain(8, 100, 640)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]topology.NodeID, 8)
	for i := range nodes {
		nodes[i] = topology.NodeID(i)
	}
	return Tenant{
		ID:      id,
		Problem: Problem{Graph: g, Timing: tm, Topology: top, Assignment: &alloc.Assignment{NodeOf: nodes}, TauIn: 2 * tm.TauC()},
		Options: Options{Seed: 1},
	}
}

func omegaBytes(t *testing.T, om *Omega) []byte {
	t.Helper()
	if om == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := EncodeOmega(&buf, om); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func threeCube(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func mustAdmit(t *testing.T, ts *TenantSet, tn Tenant) *AdmitReport {
	t.Helper()
	rep, err := ts.Admit(context.Background(), tn, nil)
	if err != nil {
		t.Fatalf("admit %s: %v", tn.ID, err)
	}
	if !rep.Admitted {
		t.Fatalf("admit %s: rejected: %s", tn.ID, rep.Reason)
	}
	return rep
}

// TestTenantFirstAdmissionSoloIdentical: an admission into an empty
// set sees the whole machine (nil LinkCap) and must be byte-identical
// to a plain solo solve of the same problem.
func TestTenantFirstAdmissionSoloIdentical(t *testing.T) {
	top := threeCube(t)
	tn := chainTenant(t, top, "A")
	ts := NewTenantSet(top)
	rep := mustAdmit(t, ts, tn)
	if rep.Outcome != AdmitReserved || rep.TauOut != tn.Problem.TauIn || rep.WindowScale != 1 {
		t.Fatalf("first admission should reserve at the requested rate, got %+v", rep)
	}

	solo, err := Compute(tn.Problem, tn.Options)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(omegaBytes(t, rep.Result.Omega), omegaBytes(t, solo.Omega)) {
		t.Fatal("first admitted tenant's omega differs from its solo solve")
	}
	if rep.Result.Peak != solo.Peak {
		t.Fatalf("peak drifted: admitted %g, solo %g", rep.Result.Peak, solo.Peak)
	}
}

// TestTenantAdmissionInvariantUnderFaults is the admission invariant
// end to end: tenant A keeps a byte-identical Ω after tenant B is
// admitted and after tenant C is rejected; at a single-link fault on
// B's path, A's what-if repair matches a solo-admitted A's at the same
// fault state, and neither what-if moves anyone's standing.
func TestTenantAdmissionInvariantUnderFaults(t *testing.T) {
	top := threeCube(t)
	ctx := context.Background()

	// Shared set: A (8-task chain over every node), then B (light pair
	// on the 2→3 edge), then C (a pair demanding more than link 0→1's
	// residual, with a hard rate guarantee: must be rejected).
	ts := NewTenantSet(top)
	a := chainTenant(t, top, "A")
	mustAdmit(t, ts, a)
	soloOmega := omegaBytes(t, ts.Lookup("A").Base.Omega)

	b := pairTenant(t, top, "B", 2, 3, 640, 50)
	mustAdmit(t, ts, b)
	if got := omegaBytes(t, ts.Lookup("A").Base.Omega); !bytes.Equal(got, soloOmega) {
		t.Fatal("admitting B perturbed A's omega")
	}

	c := pairTenant(t, top, "C", 0, 1, 2880, 50) // xmit 45 of a 50 window
	c.RateGuarantee = 1
	crep, err := ts.Admit(ctx, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if crep.Admitted {
		t.Fatalf("C (demand %.2g against A's residual) should be rejected", 45.0/50)
	}
	if !errors.Is(crep.Err(), errkind.ErrAdmissionRejected) {
		t.Fatalf("rejection error not in the admission_rejected family: %v", crep.Err())
	}
	if ts.Lookup("C") != nil {
		t.Fatal("rejected tenant left in the set")
	}
	if got := omegaBytes(t, ts.Lookup("A").Base.Omega); !bytes.Equal(got, soloOmega) {
		t.Fatal("rejecting C perturbed A's omega")
	}
	if got := len(ts.Tenants()); got != 2 {
		t.Fatalf("set should hold A and B, has %d tenants", got)
	}

	// A single-link fault striking B's path.
	bLinks := ts.Lookup("B").Base.Assignment.Links[0]
	if len(bLinks) == 0 {
		t.Fatal("B's message has no links")
	}
	failed := bLinks[0]
	fs := topology.NewFaultSet()
	fs.FailLink(failed)
	repair := func(ts *TenantSet, id string) *RepairReport {
		t.Helper()
		r, err := ts.RepairTenant(ctx, id, fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Report
	}
	if repair(ts, "B").Outcome == RepairUnaffected {
		t.Fatal("fault on B's path left B unaffected")
	}

	// Solo reference: A admitted alone, same fault state.
	ref := NewTenantSet(top)
	mustAdmit(t, ref, chainTenant(t, top, "A"))
	got, want := repair(ts, "A"), repair(ref, "A")
	if got.Outcome != want.Outcome {
		t.Fatalf("A's repair outcome %v differs from solo %v", got.Outcome, want.Outcome)
	}
	if !bytes.Equal(omegaBytes(t, got.Result.Omega), omegaBytes(t, want.Result.Omega)) {
		t.Fatal("at the fault, A's omega differs from its solo-admitted omega at the same fault state")
	}
	if !bytes.Equal(omegaBytes(t, ts.Lookup("A").Base.Omega), soloOmega) {
		t.Fatal("a what-if repair moved A's standing")
	}
}

// TestTenantEviction: a higher-priority candidate that cannot fit
// evicts the lowest-priority admitted tenant and is then admitted; the
// evicted tenant leaves the set.
func TestTenantEviction(t *testing.T) {
	top := threeCube(t)
	low := pairTenant(t, top, "low", 0, 1, 2880, 50) // 0.9 of link 0→1
	low.RateGuarantee = 1
	high := pairTenant(t, top, "high", 0, 1, 2880, 50)
	high.RateGuarantee = 1
	high.Priority = 10

	ts := NewTenantSet(top)
	mustAdmit(t, ts, low)
	rep := mustAdmit(t, ts, high)
	if len(rep.Evicted) != 1 || rep.Evicted[0] != "low" {
		t.Fatalf("expected eviction of \"low\", got %v", rep.Evicted)
	}
	if ts.Lookup("low") != nil {
		t.Fatal("evicted tenant still in the set")
	}
	if ts.Lookup("high") == nil {
		t.Fatal("evicting tenant not admitted")
	}

	// The mirror case: an equal-priority candidate may not evict.
	ts2 := NewTenantSet(top)
	mustAdmit(t, ts2, low)
	peer := pairTenant(t, top, "peer", 0, 1, 2880, 50)
	peer.RateGuarantee = 1
	prep, err := ts2.Admit(context.Background(), peer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Admitted || len(prep.Evicted) != 0 {
		t.Fatalf("equal-priority candidate must be rejected without evictions, got %+v", prep)
	}
	if prep.BottleneckShare >= 1 {
		t.Fatalf("rejection should report the contended bottleneck, got share %g", prep.BottleneckShare)
	}
}

// TestTenantDegradedRateRespectsGuarantee: a candidate that fits only
// at a reduced rate is admitted on the degraded-rate rung when its
// guarantee allows it, and rejected when the guarantee forbids it. The
// DVB workload at load 1.0 (τin = τc = 50) on the 6-cube is
// utilization-infeasible at factors 1, 1.1 and 1.25 and becomes
// feasible at factor 1.5 — and with τin = τc every widened window
// would exceed the period, so the window rung is structurally skipped.
func TestTenantDegradedRateRespectsGuarantee(t *testing.T) {
	top := sixCube(t)
	elastic := Tenant{ID: "elastic", RateGuarantee: 0.5, // 1/1.5 = 0.667 >= 0.5: allowed
		Problem: dvbProblem(t, top, 64, 50), Options: Options{Seed: 1}}
	ts := NewTenantSet(top)
	rep := mustAdmit(t, ts, elastic)
	if rep.Outcome != AdmitDegradedRate {
		t.Fatalf("expected degraded-rate admission, got %v", rep.Outcome)
	}
	if rep.TauOut != 75 {
		t.Fatalf("expected the factor-1.5 period 75, got %g", rep.TauOut)
	}

	strict := Tenant{ID: "strict", RateGuarantee: 0.8, // forbids factors past 1.25
		Problem: dvbProblem(t, top, 64, 50), Options: Options{Seed: 1}}
	ts2 := NewTenantSet(top)
	srep, err := ts2.Admit(context.Background(), strict, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srep.Admitted {
		t.Fatalf("a 0.8 rate guarantee must reject the factor-1.5 rung, got %v", srep.Outcome)
	}
	if !errors.Is(srep.Err(), errkind.ErrAdmissionRejected) {
		t.Fatalf("rejection error not in the admission_rejected family: %v", srep.Err())
	}
}

// TestTenantReleaseFreesShares: releasing a tenant frees its
// reservation, letting a previously rejected candidate in.
func TestTenantReleaseFreesShares(t *testing.T) {
	top := threeCube(t)
	ts := NewTenantSet(top)
	mustAdmit(t, ts, pairTenant(t, top, "hog", 0, 1, 2880, 50))

	cand := pairTenant(t, top, "cand", 0, 1, 2880, 50)
	cand.RateGuarantee = 1
	rep, err := ts.Admit(context.Background(), cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted {
		t.Fatal("candidate should not fit next to the hog")
	}
	if !ts.Release("hog") {
		t.Fatal("release of an admitted tenant reported absent")
	}
	mustAdmit(t, ts, cand)
}

// TestReadmitUsesNewProblem: a tenant ID names no problem beyond the
// Admit call that carries it — after a release, and after a rejection,
// the same ID admitted with another problem gets that problem's
// schedule, byte-identical to a solo solve of it.
func TestReadmitUsesNewProblem(t *testing.T) {
	top := threeCube(t)
	p1 := pairTenant(t, top, "a", 0, 1, 640, 50)
	p2 := pairTenant(t, top, "a", 0, 1, 1280, 50)
	want, err := Compute(p2.Problem, p2.Options)
	if err != nil {
		t.Fatal(err)
	}

	ts := NewTenantSet(top)
	mustAdmit(t, ts, p1)
	ts.Release("a")
	rep := mustAdmit(t, ts, p2)
	if !bytes.Equal(omegaBytes(t, rep.Result.Omega), omegaBytes(t, want.Omega)) {
		t.Errorf("re-admitted after release: xmit %g, want problem 2's %g",
			rep.Result.Windows[0].Xmit, want.Windows[0].Xmit)
	}

	ts = NewTenantSet(top)
	mustAdmit(t, ts, pairTenant(t, top, "hog", 0, 1, 2880, 50))
	p1.RateGuarantee = 1
	if rej, err := ts.Admit(context.Background(), p1, nil); err != nil || rej.Admitted {
		t.Fatalf("candidate should not fit next to the hog, got %+v, %v", rej, err)
	}
	ts.Release("hog")
	rep = mustAdmit(t, ts, p2)
	if !bytes.Equal(omegaBytes(t, rep.Result.Omega), omegaBytes(t, want.Omega)) {
		t.Errorf("admitted after a rejection: xmit %g, want problem 2's %g",
			rep.Result.Windows[0].Xmit, want.Windows[0].Xmit)
	}
}

// TestSolveLinkCapOnesBitIdentical: a LinkCap of all ones must leave
// every stage bit-identical to the nil (whole-machine) fast path —
// dividing by 1.0 is exact, and the allocation rows keep their
// right-hand sides.
func TestSolveLinkCapOnesBitIdentical(t *testing.T) {
	top := sixCube(t)
	p := dvbProblem(t, top, 64, gridTauIn(5))
	base, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, top.Links())
	for j := range ones {
		ones[j] = 1
	}
	capped, err := Compute(p, Options{Seed: 1, LinkCap: ones})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, capped) {
		t.Fatal("LinkCap of all ones changed the result")
	}
}

// TestSolveLinkCapValidated: a LinkCap of the wrong length is invalid
// input.
func TestSolveLinkCapValidated(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	if _, err := Compute(p, Options{Seed: 1, LinkCap: []float64{1, 1}}); err == nil {
		t.Fatal("expected an error for a short LinkCap")
	}
}

// TestTenantAdmitValidation covers the bad-input admission paths.
func TestTenantAdmitValidation(t *testing.T) {
	top := threeCube(t)
	ts := NewTenantSet(top)
	tn := chainTenant(t, top, "A")
	mustAdmit(t, ts, tn)

	if _, err := ts.Admit(context.Background(), tn, nil); !errors.Is(err, errkind.ErrBadInput) {
		t.Fatalf("duplicate ID should be bad input, got %v", err)
	}
	anon := chainTenant(t, top, "")
	if _, err := ts.Admit(context.Background(), anon, nil); !errors.Is(err, errkind.ErrBadInput) {
		t.Fatalf("empty ID should be bad input, got %v", err)
	}
	badRate := chainTenant(t, top, "R")
	badRate.RateGuarantee = 1.5
	if _, err := ts.Admit(context.Background(), badRate, nil); !errors.Is(err, errkind.ErrBadInput) {
		t.Fatalf("rate guarantee above 1 should be bad input, got %v", err)
	}
	faulted := chainTenant(t, top, "F")
	faulted.Problem.Faults = topology.NewFaultSet()
	if _, err := ts.Admit(context.Background(), faulted, nil); !errors.Is(err, errkind.ErrBadInput) {
		t.Fatalf("a tenant brought its own fault set; want bad input, got %v", err)
	}
}

// TestTenantStandingDoesNotWaitForAnAdmission: Lookup, Tenants and a
// RepairTenant what-if answer while another candidate's ladder runs.
// The candidate is TestSolveStopsInsideTheAllocationLP's instance,
// which spends some 30 s in the allocation LP of its first rung; its
// admission is cancelled once the answers are in.
func TestTenantStandingDoesNotWaitForAnAdmission(t *testing.T) {
	top := sixCube(t)
	ts := NewTenantSet(top)
	mustAdmit(t, ts, pairTenant(t, top, "a", 62, 63, 640, 100))

	g, err := tfg.RandomLayered(3, []int{8, 8, 8, 8, 8, 8, 8}, 400, 1925, 192, 3200, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 128)
	if err != nil {
		t.Fatal(err)
	}
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	admitted := make(chan error, 1)
	go func() {
		_, err := ts.Admit(ctx, Tenant{ID: "slow", Problem: Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 65}, Options: Options{Seed: 1}}, nil)
		admitted <- err
	}()
	for ts.admitting.TryLock() { // until the candidate's Admit holds the admission lock
		ts.admitting.Unlock()
		time.Sleep(time.Millisecond)
	}

	fs := topology.NewFaultSet()
	fs.FailLink(0)
	start := time.Now()
	if ts.Lookup("a") == nil || len(ts.Tenants()) != 1 {
		t.Fatal("tenant a is not standing")
	}
	if _, err := ts.RepairTenant(context.Background(), "a", fs, nil); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a's standing took %v to read behind another tenant's admission", took)
	}
	select {
	case err := <-admitted:
		t.Fatalf("the candidate's admission ended (%v) before the queries ran; nothing was measured", err)
	default:
	}
	cancel()
	if err := <-admitted; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admission returned %v", err)
	}
}
