package schedule

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"schedroute/internal/errkind"
	"schedroute/internal/topology"
)

// snapshotRoundTrip encodes s, decodes it against p, and fails on any
// codec error. The returned solver is hydrated purely from the
// artifact — its build counters must stay zero until it is asked for
// something the snapshot did not carry.
func snapshotRoundTrip(t *testing.T, s *Solver, p Problem, key string) *Solver {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSolverSnapshot(&buf, s, key); err != nil {
		t.Fatalf("encode: %v", err)
	}
	warm, err := DecodeSolverSnapshot(&buf, p, key)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return warm
}

// TestSnapshotRoundTripByteIdentical is the snapshot acceptance test:
// on every standard config (four 64-node topologies at both link
// bandwidths) plus a faulted variant, a solver hydrated from a
// snapshot must emit byte-identical Ω versus cold derivation — at the
// snapshotted period and at a fresh one — while performing zero
// structure builds.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	for name, top := range solverGoldenTopologies(t) {
		for _, bw := range []float64{64, 128} {
			testSnapshotConfig(t, name, dvbProblem(t, top, bw, 0))
		}
	}
	// The faulted config: the snapshot embeds the fault signature, and
	// the baseline/candidates it carries are the fault-aware ones.
	top := sixCube(t)
	p := dvbProblem(t, top, 64, 0)
	fs := topology.NewFaultSet()
	fs.FailLink(0)
	p.Faults = fs
	testSnapshotConfig(t, "6cube-faulted", p)
}

func testSnapshotConfig(t *testing.T, name string, p Problem) {
	t.Helper()
	ctx := context.Background()
	key := "snap-test|" + name
	cold := NewSolver(p)
	if _, err := cold.Solve(ctx, 150, Options{Seed: 1}); err != nil {
		t.Fatalf("%s: seed solve: %v", name, err)
	}
	warm := snapshotRoundTrip(t, cold, p, key)

	for _, tauIn := range []float64{150, 200} {
		want, err := cold.Solve(ctx, tauIn, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s τin=%g: cold solve: %v", name, tauIn, err)
		}
		got, err := warm.Solve(ctx, tauIn, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s τin=%g: hydrated solve: %v", name, tauIn, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s τin=%g: hydrated result differs from cold (peak %v vs %v)", name, tauIn, got.Peak, want.Peak)
		}
		if want.Feasible {
			var wb, gb bytes.Buffer
			if err := EncodeOmega(&wb, want.Omega); err != nil {
				t.Fatal(err)
			}
			if err := EncodeOmega(&gb, got.Omega); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
				t.Fatalf("%s τin=%g: hydrated Ω not byte-identical to cold derivation", name, tauIn)
			}
		}
	}

	// Hydration is not derivation: everything the snapshot carried must
	// have been served without a single structure build. (τin 200
	// shares the default window, so even the starts table was carried.)
	st := warm.CacheStats()
	if st.BaselineBuilds != 0 || st.CandidateBuilds != 0 || st.ValidateBuilds != 0 || st.StartsBuilds != 0 {
		t.Errorf("%s: hydrated solver rebuilt structure: %+v", name, st)
	}
	if st.Solves != 2 {
		t.Errorf("%s: hydrated solver served %d solves, want 2", name, st.Solves)
	}
}

// TestSnapshotEncodeDeterministic pins that equal solver state always
// serializes to equal bytes, so snapshot files are content-comparable.
func TestSnapshotEncodeDeterministic(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, 0)
	enc := func() []byte {
		s := NewSolver(p)
		for _, tauIn := range []float64{150, 175, 200} {
			if _, err := s.Solve(context.Background(), tauIn, Options{Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := EncodeSolverSnapshot(&buf, s, "det"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := enc(), enc(); !bytes.Equal(a, b) {
		t.Error("same solver state serialized to different bytes")
	}
}

// TestSnapshotEmptySolver round-trips a solver that has not solved
// anything yet: a legal, if pointless, artifact.
func TestSnapshotEmptySolver(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, 0)
	warm := snapshotRoundTrip(t, NewSolver(p), p, "empty")
	res, err := warm.Solve(context.Background(), 150, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("solve after empty hydration failed at %v", res.FailStage)
	}
}

// TestSnapshotRejections covers every decode guard: unknown schema
// version (errkind.ErrUnknownVersion), corrupt JSON, a mismatched
// structure key, a shape mismatch, and a fault-signature mismatch
// (all errkind.ErrBadInput).
func TestSnapshotRejections(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, 0)
	s := NewSolver(p)
	if _, err := s.Solve(context.Background(), 150, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSolverSnapshot(&buf, s, "guard"); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	if _, err := DecodeSolverSnapshot(strings.NewReader(`{"schema_version": 99}`), p, ""); !errors.Is(err, errkind.ErrUnknownVersion) {
		t.Errorf("unknown schema version: got %v, want ErrUnknownVersion", err)
	}
	if _, err := DecodeSolverSnapshot(strings.NewReader(`{"schema_version": `), p, ""); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("corrupt JSON: got %v, want ErrBadInput", err)
	}
	if _, err := DecodeSolverSnapshot(strings.NewReader(good), p, "other-key"); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("mismatched key: got %v, want ErrBadInput", err)
	}
	other := dvbProblem(t, solverGoldenTopologies(t)["torus88"], 64, 0)
	if _, err := DecodeSolverSnapshot(strings.NewReader(good), other, "guard"); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("shape mismatch: got %v, want ErrBadInput", err)
	}
	faulted := p
	fs := topology.NewFaultSet()
	fs.FailLink(1)
	faulted.Faults = fs
	if _, err := DecodeSolverSnapshot(strings.NewReader(good), faulted, "guard"); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("fault mismatch: got %v, want ErrBadInput", err)
	}
	// A snapshot with a tampered path (non-adjacent hop) must be
	// rejected by the link re-derivation, not hydrated blindly.
	bad := strings.Replace(good, `"paths":[`, `"paths":[[0,63],`, 1)
	if bad == good {
		t.Fatal("fixture: no lsd paths found to tamper with")
	}
	if _, err := DecodeSolverSnapshot(strings.NewReader(bad), p, "guard"); !errors.Is(err, errkind.ErrBadInput) {
		t.Errorf("tampered path: got %v, want ErrBadInput", err)
	}
}
