package schedule

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"schedroute/internal/errkind"
	"schedroute/internal/topology"
)

// TestOmegaJSONVersionedRoundTrip saves a computed Ω through the
// versioned encoder and requires the load to reproduce it exactly,
// field for field.
func TestOmegaJSONVersionedRoundTrip(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	res, err := Compute(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("fixture infeasible at %v", res.FailStage)
	}

	var buf bytes.Buffer
	if err := EncodeOmega(&buf, res.Omega); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema_version": 1`) {
		t.Fatalf("encoded artifact missing schema_version 1:\n%.200s", buf.String())
	}
	got, err := DecodeOmega(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res.Omega) {
		t.Fatal("decoded Ω differs from the encoded one")
	}
}

// TestOmegaJSONVersions pins the version policy: only the current
// version loads; 0, an absent field and anything newer are refused via
// the errkind.ErrUnknownVersion family.
func TestOmegaJSONVersions(t *testing.T) {
	base := `"tau_in": 100, "latency": 5, "windows": [], "slices": [], "nodes": []`
	if _, err := DecodeOmega(strings.NewReader(`{"schema_version": 1,` + base + `}`)); err != nil {
		t.Fatalf("current schema_version rejected: %v", err)
	}
	for _, v := range []string{`"schema_version": 0,`, "", `"schema_version": 99,`} {
		_, err := DecodeOmega(strings.NewReader("{" + v + base + "}"))
		if err == nil {
			t.Fatalf("artifact with %q accepted", v)
		}
		if !errors.Is(err, errkind.ErrUnknownVersion) {
			t.Fatalf("unknown version (%q) not in ErrUnknownVersion family: %v", v, err)
		}
		if errkind.HTTPStatus(err) != 400 || errkind.ExitStatus(err) != 1 {
			t.Fatalf("unexpected statuses for unknown version (%q): http=%d exit=%d",
				v, errkind.HTTPStatus(err), errkind.ExitStatus(err))
		}
	}
}

// malformedRingEdits lists single-id edits of the saved ringOmega and
// who must refuse each. Ids that need no topology to be wrong — a
// command's message outside the windows, a negative link, a link wider
// than LinkID (which would wrap onto link 0) — are DecodeOmega's; a link
// or node past the topology loads and is Validate's. The first two used
// to panic omegainspect. Also FuzzOmegaDecode's seeds.
func malformedRingEdits(pa *PathAssignment) []struct{ old, edit, decodeErr, validateErr string } {
	out := fmt.Sprintf(`"out": "L%d"`, pa.Links[0][0])
	return []struct{ old, edit, decodeErr, validateErr string }{
		{out, `"out": "L99999"`, "", "schedule: message 0 uses unknown link 99999"},
		{`"msg": 0`, `"msg": -3`, "message -3 out of range", ""},
		{`"msg": 0`, `"msg": 1`, "message 1 out of range", ""},
		{out, `"out": "L-1"`, `bad port "L-1"`, ""},
		{out, `"out": "L4294967296"`, `bad port "L4294967296"`, ""},
		{out, `"out": "L1x"`, `bad port "L1x"`, ""},
		{`"node": 7`, `"node": 8`, "", "schedule: schedule for unknown node 8"},
	}
}

// TestMalformedOmegaIsRefused applies malformedRingEdits one at a time,
// then sets the same kinds of id in memory, where Validate is the only
// check.
func TestMalformedOmegaIsRefused(t *testing.T) {
	om, top, pa := ringOmega(t)
	var buf bytes.Buffer
	if err := EncodeOmega(&buf, om); err != nil {
		t.Fatal(err)
	}
	for _, tc := range malformedRingEdits(pa) {
		edited := strings.Replace(buf.String(), tc.old, tc.edit, 1)
		if edited == buf.String() {
			t.Fatalf("%s: nothing to edit in the saved Ω", tc.edit)
		}
		got, err := DecodeOmega(strings.NewReader(edited))
		if tc.decodeErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.decodeErr) {
				t.Errorf("%s: DecodeOmega = %v, want an error holding %q", tc.edit, err, tc.decodeErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.edit, err)
		}
		if err := got.Validate(top); err == nil || err.Error() != tc.validateErr {
			t.Errorf("%s: Validate = %v, want %q", tc.edit, err, tc.validateErr)
		}
	}

	om.Nodes[1].Commands[0].Msg = -3
	if err := om.Validate(top); err == nil || err.Error() != "schedule: a command switches unknown message -3" {
		t.Errorf("negative command message: Validate = %v", err)
	}
	om, _, _ = ringOmega(t)
	om.Slices[0].Msgs[0] = 5
	if err := om.Validate(top); err == nil || err.Error() != "schedule: slice carries unknown message 5" {
		t.Errorf("slice message past the windows: Validate = %v", err)
	}
}

// TestSolveCancelled pins the context plumbing: a cancelled context
// aborts Solve and Repair with the context's error.
func TestSolveCancelled(t *testing.T) {
	p := dvbProblem(t, sixCube(t), 64, gridTauIn(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSolver(p).Solve(ctx, p.TauIn, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve under cancelled ctx: got %v, want context.Canceled", err)
	}

	base, err := Compute(p, Options{Seed: 1})
	if err != nil || !base.Feasible {
		t.Fatalf("fixture: %v feasible=%v", err, base != nil && base.Feasible)
	}
	fs := singleLinkFault(t, p)
	if _, err := Repair(ctx, p, Options{Seed: 1}, base, fs); !errors.Is(err, context.Canceled) {
		t.Fatalf("Repair under cancelled ctx: got %v, want context.Canceled", err)
	}
}

// singleLinkFault fails the first link that carries scheduled traffic,
// guaranteeing the repair ladder has real work to do.
func singleLinkFault(t *testing.T, p Problem) *topology.FaultSet {
	t.Helper()
	base, err := Compute(p, Options{Seed: 1})
	if err != nil || !base.Feasible {
		t.Fatalf("fixture: %v", err)
	}
	for i := range base.Windows {
		if base.Windows[i].Local || len(base.Assignment.Links[i]) == 0 {
			continue
		}
		fs := topology.NewFaultSet(p.Topology.Links(), p.Topology.Nodes())
		fs.FailLink(base.Assignment.Links[i][0])
		return fs
	}
	t.Fatal("no scheduled link traffic in fixture")
	return nil
}
