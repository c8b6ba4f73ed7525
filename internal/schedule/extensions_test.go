package schedule

import (
	"bytes"
	"context"
	"math"
	"testing"

	"schedroute/internal/metrics"
	"schedroute/internal/topology"
)

func TestSyncMarginStillFeasible(t *testing.T) {
	// At low load the DVB windows have slack; a small clock-skew margin
	// must not break feasibility, and the schedule must still validate.
	p := dvbProblem(t, sixCube(t), 128, gridTauIn(8))
	res, err := Compute(p, Options{Seed: 1, SyncMargin: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("margin 2 µs broke feasibility at %v", res.FailStage)
	}
	if err := res.Omega.Validate(p.Topology); err != nil {
		t.Errorf("validation: %v", err)
	}
	// The margin shrinks every non-local window at its deadline side,
	// leaving the release untouched.
	plain, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Windows {
		if res.Windows[i].Local {
			continue
		}
		if res.Windows[i].AbsRelease != plain.Windows[i].AbsRelease {
			t.Fatalf("message %d release moved by the margin", i)
		}
		if math.Abs(plain.Windows[i].Length-res.Windows[i].Length-2) > 1e-9 {
			t.Fatalf("message %d window not shrunk by the margin", i)
		}
	}
	// Execution still yields constant throughput.
	exec, err := Execute(res.Omega, p.Graph, p.Timing, p.Timing.TauC(), 6)
	if err != nil {
		t.Fatal(err)
	}
	ivs := metrics.Intervals(exec.OutputCompletions)
	if metrics.OutputInconsistent(p.TauIn, ivs, 1e-9) {
		t.Error("margin schedule lost output consistency")
	}
}

func TestSyncMarginTooLargeRejected(t *testing.T) {
	// At B=64 the c-messages are no-slack: any margin exceeds capacity.
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	if _, err := Compute(p, Options{Seed: 1, SyncMargin: 1}); err == nil {
		t.Error("margin on a no-slack window should be rejected")
	}
}

func TestRetriesRecoverAllocationFailure(t *testing.T) {
	// τin = 200 fails message-interval allocation with seed 1 (see
	// compute tests); feedback retries with fresh seeds should find an
	// alternative path assignment for at least one of a few base seeds.
	p := dvbProblem(t, sixCube(t), 64, 200)
	plain, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Feasible {
		t.Skip("baseline unexpectedly feasible; retry path not exercised")
	}
	retried, err := Compute(p, Options{Seed: 1, Retries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !retried.Feasible {
		// Retries are heuristic; at minimum they must not worsen the
		// reported peak.
		if retried.Peak > plain.Peak+1e-9 {
			t.Errorf("retries worsened peak: %g > %g", retried.Peak, plain.Peak)
		}
		t.Logf("retries did not recover feasibility (stage %v); acceptable but worth knowing", retried.FailStage)
	} else if err := retried.Omega.Validate(p.Topology); err != nil {
		t.Errorf("recovered schedule invalid: %v", err)
	}
}

func TestComputeBestAllocation(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	cands, err := DefaultCandidates(context.Background(), p, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("got %d candidates", len(cands))
	}
	sr, err := ComputeBestAllocation(context.Background(), p, Options{Seed: 1}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Chosen < 0 || sr.Chosen >= len(cands) {
		t.Fatalf("chosen index %d", sr.Chosen)
	}
	// The coupled search can never be worse than the round-robin
	// baseline (candidate 0) since that candidate is in the pool.
	base, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Feasible && !sr.Result.Feasible {
		t.Error("search lost feasibility available in the pool")
	}
	if base.Feasible == sr.Result.Feasible && sr.Result.Peak > base.Peak+1e-9 {
		t.Errorf("search peak %g worse than baseline %g", sr.Result.Peak, base.Peak)
	}
}

func TestComputeBestAllocationRejectsEmpty(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	if _, err := ComputeBestAllocation(context.Background(), p, Options{}, nil); err == nil {
		t.Error("empty candidate list should fail")
	}
}

func TestOmegaJSONRoundTrip(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil || !res.Feasible {
		t.Fatalf("setup: %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeOmega(&buf, res.Omega); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOmega(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TauIn != res.Omega.TauIn || got.Latency != res.Omega.Latency {
		t.Error("scalar fields lost")
	}
	if len(got.Slices) != len(res.Omega.Slices) || len(got.Nodes) != len(res.Omega.Nodes) {
		t.Fatal("structure lost")
	}
	// The decoded schedule still validates and executes identically.
	if err := got.Validate(p.Topology); err != nil {
		t.Errorf("decoded omega invalid: %v", err)
	}
	a, err := Execute(res.Omega, p.Graph, p.Timing, p.Timing.TauC(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(got, p.Graph, p.Timing, p.Timing.TauC(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.OutputCompletions {
		if a.OutputCompletions[i] != b.OutputCompletions[i] {
			t.Fatal("decoded omega executes differently")
		}
	}
	for i := range a.Deliveries {
		if math.Abs(a.Deliveries[i]-b.Deliveries[i]) > 1e-9 {
			t.Fatal("decoded omega delivers differently")
		}
	}
}

func TestDecodeOmegaRejectsGarbage(t *testing.T) {
	cases := []string{
		"{nope",
		`{"schema_version":1,"tau_in":0}`,
		`{"schema_version":1,"tau_in":50,"slices":[{"interval":0,"msgs":[0],"until":[]}]}`,
		`{"schema_version":1,"tau_in":50,"windows":[],"slices":[{"interval":0,"msgs":[5],"until":[1]}]}`,
		`{"schema_version":1,"tau_in":50,"nodes":[{"node":0,"commands":[{"in":"XX","out":"AP"}]}]}`,
	}
	for _, c := range cases {
		if _, err := DecodeOmega(bytes.NewBufferString(c)); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
}

func TestDefaultCandidatesRejectOversubscription(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	small := p
	tiny, err := topology.NewHypercube(2) // 4 nodes for 15 tasks
	if err != nil {
		t.Fatal(err)
	}
	small.Topology = tiny
	if _, err := DefaultCandidates(context.Background(), small); err == nil {
		t.Error("15 tasks on 4 nodes should fail")
	}
}
