package schedule

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"schedroute/internal/topology"
	"schedroute/internal/trace"
)

func newFaultSet(t *testing.T, p Problem, links ...topology.LinkID) *topology.FaultSet {
	t.Helper()
	fs := topology.NewFaultSet(p.Topology.Links(), p.Topology.Nodes())
	for _, l := range links {
		fs.FailLink(l)
	}
	return fs
}

// TestRepairConsecutiveSameLink is the fault → repair → re-fault
// satellite: the same link dies, returns to service, and dies again.
// The re-fault must reproduce the first repair exactly (the ladder is
// deterministic and always repairs from the base schedule), and the
// session must answer it from the memo.
func TestRepairConsecutiveSameLink(t *testing.T) {
	p, o, base := repairFixture(t)
	failed := firstUsedLink(base)
	if failed < 0 {
		t.Fatal("no message uses any link")
	}
	ses, err := NewRepairSession(p, o, base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	fs := newFaultSet(t, p)
	fs.FailLink(failed)
	rep1, cached, err := ses.Apply(ctx, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first apply must not be a memo hit")
	}
	if rep1.Outcome != RepairIncremental {
		t.Fatalf("single used link fault: outcome %s, want incremental", rep1.Outcome)
	}
	if len(rep1.Affected) == 0 || rep1.Rerouted != len(rep1.Affected) {
		t.Fatalf("report: affected %d, rerouted %d; want equal and non-zero", len(rep1.Affected), rep1.Rerouted)
	}
	if rep1.TauOut != p.TauIn || rep1.WindowScale != 1 {
		t.Fatalf("incremental repair must preserve rate and window: τout %g (τin %g), scale %g",
			rep1.TauOut, p.TauIn, rep1.WindowScale)
	}

	// The link returns to service: the fault set is empty again, and
	// the base schedule is valid as-is.
	fs.RepairLink(failed)
	rep2, _, err := ses.Apply(ctx, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Outcome != RepairUnaffected || rep2.Result != base {
		t.Fatalf("repaired link: outcome %s, want unaffected reusing the base", rep2.Outcome)
	}

	// Re-fault: same canonical fault population, so the memo answers
	// with the identical report.
	fs.FailLink(failed)
	rep3, cached, err := ses.Apply(ctx, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("re-fault of an already-repaired state must hit the memo")
	}
	if rep3 != rep1 {
		t.Fatal("memo hit must return the original report")
	}

	st := ses.Stats()
	if st.Applies != 3 || st.MemoHits != 1 || st.Incremental != 2 || st.FullSolves != 0 {
		t.Fatalf("stats %+v; want 3 applies, 1 memo hit, 2 incremental, 0 full solves", st)
	}
}

// TestRepairRungEscalation grows the fault set on a two-node pair until
// the ladder is forced off rung 1: with only two disjoint routes
// between the endpoints, the second link fault on the remaining route
// escalates past the pinned-allocation incremental rung.
func TestRepairRungEscalation(t *testing.T) {
	p, o, base := repairFixture(t)
	ses, err := NewRepairSession(p, o, base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fs := newFaultSet(t, p)

	// Keep failing the link the current repaired schedule leans on; the
	// outcome must never get better as faults accumulate, and the
	// report must stay internally consistent at every step.
	prev := RepairUnaffected
	cur := base
	for step := 0; step < 3; step++ {
		failed := firstUsedLink(cur)
		if failed < 0 {
			t.Fatal("no message uses any link")
		}
		fs.FailLink(failed)
		rep, _, err := ses.Apply(ctx, fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outcome < prev {
			t.Fatalf("step %d: outcome %s improved on previous %s as faults accumulated", step, rep.Outcome, prev)
		}
		if rep.Outcome == RepairInfeasible {
			if rep.Result != nil || rep.Err() == nil {
				t.Fatal("infeasible report must carry no result and a typed error")
			}
			break
		}
		if rep.Result == nil || rep.Result.Omega == nil {
			t.Fatalf("step %d: feasible outcome %s without a repaired Ω", step, rep.Outcome)
		}
		// The repaired assignment must avoid every failed link.
		for i := range rep.Result.Assignment.Paths {
			if rep.Result.Windows[i].Local {
				continue
			}
			for _, l := range rep.Result.Assignment.Links[i] {
				if fs.LinkFailed(l) {
					t.Fatalf("step %d: repaired message %d still crosses failed link %d", step, i, l)
				}
			}
		}
		prev = rep.Outcome
		cur = rep.Result
	}
	if prev == RepairUnaffected {
		t.Fatal("escalation never left the unaffected rung")
	}
}

// TestSessionMatchesColdRepair pins the session's central contract: the
// report at any fault state reached through a sequence of events is
// bit-identical to a cold schedule.Repair run straight to that state.
func TestSessionMatchesColdRepair(t *testing.T) {
	p, o, base := repairFixture(t)
	failed := firstUsedLink(base)
	if failed < 0 {
		t.Fatal("no message uses any link")
	}
	// A second fault on whatever link the first repair rerouted onto.
	ses, err := NewRepairSession(p, o, base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fs := newFaultSet(t, p, failed)
	rep1, _, err := ses.Apply(ctx, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	second := firstUsedLink(rep1.Result)
	fs.FailLink(second)
	viaSession, _, err := ses.Apply(ctx, fs, nil)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := Repair(ctx, p, o, base, newFaultSet(t, p, failed, second))
	if err != nil {
		t.Fatal(err)
	}
	if viaSession.Outcome != cold.Outcome {
		t.Fatalf("session outcome %s, cold outcome %s", viaSession.Outcome, cold.Outcome)
	}
	if !reflect.DeepEqual(viaSession.Result.Omega, cold.Result.Omega) {
		t.Fatal("session-applied repair diverged from the cold full repair at the same fault state")
	}
	if !reflect.DeepEqual(viaSession.Affected, cold.Affected) ||
		viaSession.Rerouted != cold.Rerouted || viaSession.NewPeak != cold.NewPeak {
		t.Fatalf("report mismatch: session %+v vs cold %+v", viaSession, cold)
	}
}

// TestSessionTraceRecordsLadder checks that a traced Apply records the
// repair ladder under the provided span and that a rung-1 repair never
// runs the full pipeline (no "solve" span anywhere in the tree).
func TestSessionTraceRecordsLadder(t *testing.T) {
	p, o, base := repairFixture(t)
	failed := firstUsedLink(base)
	ses, err := NewRepairSession(p, o, base)
	if err != nil {
		t.Fatal(err)
	}
	sp := trace.Start("watch.repair")
	rep, _, err := ses.Apply(context.Background(), newFaultSet(t, p, failed), sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	tree := sp.Tree()
	if tree.Count(SpanRepair) != 1 || tree.Count(SpanRung) == 0 {
		t.Fatalf("trace missing repair ladder spans: %v", tree.Names())
	}
	if rep.Outcome == RepairIncremental && tree.Count(SpanSolve) != 0 {
		t.Fatalf("incremental repair must not run a full solve; trace: %v", tree.Names())
	}
}

// TestSessionConcurrentApplies hammers one session from many
// goroutines under -race: one state, one ladder run, one shared report.
func TestSessionConcurrentApplies(t *testing.T) {
	p, o, base := repairFixture(t)
	failed := firstUsedLink(base)
	ses, err := NewRepairSession(p, o, base)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	done := make(chan *RepairReport, workers)
	for w := 0; w < workers; w++ {
		go func() {
			rep, _, err := ses.Apply(context.Background(), newFaultSet(t, p, failed), nil)
			if err != nil {
				t.Error(err)
			}
			done <- rep
		}()
	}
	first := <-done
	for w := 1; w < workers; w++ {
		if rep := <-done; rep != first {
			t.Fatal("concurrent applies of one fault state must share one memoized report")
		}
	}
	// One ladder for the state, however the eight arrive: the rest wait
	// for it or find it done.
	if st := ses.Stats(); st.Applies != workers || st.Incremental+st.FullSolves != 1 || st.MemoHits != workers-1 {
		t.Fatalf("stats %+v, want %d applies, one ladder run and %d memo hits", st, workers, workers-1)
	}
}

// dvbRepairFixture is the 6-cube DVB base the daemon's tests repair
// from: B = 64, τin = 150, round-robin placement.
func dvbRepairFixture(t *testing.T) (Problem, Options, *Result) {
	t.Helper()
	p, o := dvbProblem(t, sixCube(t), 64, 150), Options{Seed: 1}
	base, err := Compute(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible {
		t.Fatalf("DVB base schedule infeasible at stage %s", base.FailStage)
	}
	return p, o, base
}

// sameReport holds a session's report to a cold Repair's at the same
// fault state: outcome, affected, rerouted, peak, rate and Ω.
func sameReport(got, cold *RepairReport) bool {
	if got.Outcome != cold.Outcome || got.Stage != cold.Stage || got.Rerouted != cold.Rerouted ||
		got.NewPeak != cold.NewPeak || got.TauOut != cold.TauOut || got.WindowScale != cold.WindowScale ||
		!reflect.DeepEqual(got.Affected, cold.Affected) || (got.Result == nil) != (cold.Result == nil) {
		return false
	}
	return got.Result == nil || reflect.DeepEqual(got.Result.Omega, cold.Result.Omega)
}

// TestSessionMemoIsBounded: 500 distinct two-link fault sets through one
// session, and as many through a tenant's (the map a tenant-scoped
// /v1/repair reaches), leave at most sessionMemo reports resident, and
// a state that comes back after its eviction is the same report again.
func TestSessionMemoIsBounded(t *testing.T) {
	p, o, base := dvbRepairFixture(t)
	ses, err := NewRepairSession(p, o, base)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTenantSet(p.Topology)
	mustAdmit(t, ts, Tenant{ID: "dvb", Problem: p, Options: o})
	ctx := context.Background()

	const sets = 500
	var first *RepairReport
	for i := 0; i < sets; i++ {
		a := topology.LinkID(i % p.Topology.Links())
		b := topology.LinkID((i + 1 + i/p.Topology.Links()) % p.Topology.Links())
		rep, hit, err := ses.Apply(ctx, newFaultSet(t, p, a, b), nil)
		if err != nil || hit {
			t.Fatalf("set %d (links %d, %d): err %v, memo hit %t; want a fresh ladder run", i, a, b, err, hit)
		}
		if i == 0 {
			first = rep
		}
		if _, err := ts.RepairTenant(ctx, "dvb", newFaultSet(t, p, a, b), nil); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range map[string]*RepairSession{"session": ses, "tenant": ts.Lookup("dvb").session} {
		if n := s.memo.Stats().Len; n > sessionMemo {
			t.Errorf("%s: %d reports resident after %d distinct fault sets, bound %d", name, n, sets, sessionMemo)
		}
		if st := s.Stats(); st.Applies != sets || st.MemoHits != 0 {
			t.Errorf("%s: stats %+v, want %d applies and no memo hit", name, st, sets)
		}
	}
	again, hit, err := ses.Apply(ctx, newFaultSet(t, p, 0, 1), nil)
	if err != nil || hit {
		t.Fatalf("evicted state: err %v, memo hit %t; want a re-run", err, hit)
	}
	if !sameReport(again, first) {
		t.Fatalf("re-run after eviction diverged: %+v vs %+v", again, first)
	}
}

// TestSessionRandomWalkMatchesColdRepair drives a session with a seeded
// random walk of fail / repair events over a handful of links and nodes
// — few enough that states come back, more than the memo holds, so the
// walk sees memo hits, evictions and re-runs — and holds every report to
// a cold Repair straight to that fault set, whatever order reached it.
func TestSessionRandomWalkMatchesColdRepair(t *testing.T) {
	fixtures := []struct {
		name string
		make func(*testing.T) (Problem, Options, *Result)
	}{
		{"chain on the 3-cube", repairFixture},
		{"DVB on the 6-cube", dvbRepairFixture},
	}
	for _, fx := range fixtures {
		name := fx.name
		p, o, base := fx.make(t)
		// The links the base routes over, in message order.
		var used []int
		for _, ls := range base.Assignment.Links {
			for _, l := range ls {
				if !slices.Contains(used, int(l)) {
					used = append(used, int(l))
				}
			}
		}
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ses, err := NewRepairSession(p, o, base)
			if err != nil {
				t.Fatal(err)
			}
			// The walk's elements, by seed: four links the base routes
			// over, two taken from the whole machine, and two nodes.
			rng.Shuffle(len(used), func(i, j int) { used[i], used[j] = used[j], used[i] })
			links := append(used[:4:4], rng.Perm(p.Topology.Links())[:2]...)
			nodes := rng.Perm(p.Topology.Nodes())[:2]
			outcomes := map[RepairOutcome]int{}
			fs := newFaultSet(t, p)
			states := map[string]bool{}
			for step := 0; step < 120; step++ {
				// Flip one element, a link three times in four; a crowded
				// set mostly heals.
				if k := rng.Intn(4 * len(links)); k < 3*len(links) {
					if l := topology.LinkID(links[k%len(links)]); fs.LinkFailed(l) || len(fs.FailedLinks()) >= 3 && rng.Intn(4) > 0 {
						fs.RepairLink(l)
					} else {
						fs.FailLink(l)
					}
				} else if n := topology.NodeID(nodes[k%len(nodes)]); fs.NodeFailed(n) {
					fs.RepairNode(n)
				} else {
					fs.FailNode(n)
				}
				states[fs.String()] = true
				got, _, err := ses.Apply(context.Background(), fs, nil)
				if err != nil {
					t.Fatalf("%s, seed %d, step %d (%s): %v", name, seed, step, fs, err)
				}
				cold, err := Repair(context.Background(), p, o, base, fs.Clone())
				if err != nil {
					t.Fatalf("%s, seed %d, step %d (%s): cold repair: %v", name, seed, step, fs, err)
				}
				if !sameReport(got, cold) {
					t.Fatalf("%s, seed %d, step %d (%s): session report %+v, cold repair %+v", name, seed, step, fs, got, cold)
				}
				outcomes[got.Outcome]++
			}
			t.Logf("%s, seed %d: %d distinct states, outcomes %v", name, seed, len(states), outcomes)
			st := ses.Stats()
			if len(states) <= sessionMemo || st.MemoHits == 0 || int(st.Applies-st.MemoHits) <= len(states) {
				t.Errorf("%s, seed %d: %d distinct states, stats %+v: the walk must outgrow the memo (%d), hit it, and re-run an evicted state",
					name, seed, len(states), st, sessionMemo)
			}
			if n := ses.memo.Stats().Len; n > sessionMemo {
				t.Errorf("%s, seed %d: %d reports resident, bound %d", name, seed, n, sessionMemo)
			}
		}
	}
}
