package schedule

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"schedroute/internal/alloc"
	"schedroute/internal/errkind"
	"schedroute/internal/tfg"
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

// TestOmegaArtifactKeys pins schema 1's keys, in order, for every kind
// of object in the artifact. Ω's JSON comes from Ω's own types, so a
// field added to one of them would otherwise enter the artifact
// unnoticed. The ring Ω is given task starts and a local window so that
// every omitempty key is present too.
func TestOmegaArtifactKeys(t *testing.T) {
	om, _, _ := ringOmega(t)
	om.Starts = []float64{0, 2}
	om.Windows = append(om.Windows, Window{Length: 10, Local: true})
	data, err := MarshalOmega(om)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"omega":   {"schema_version", "tau_in", "latency", "starts", "windows", "slices", "nodes"},
		"window":  {"release", "length", "abs_release", "xmit"},
		"local":   {"release", "length", "abs_release", "xmit", "local"},
		"slice":   {"interval", "start", "end", "msgs", "until"},
		"node":    {"node", "commands"},
		"idle":    {"node"},
		"command": {"start", "end", "msg", "in", "out"},
	}
	check := func(kind string, raw json.RawMessage) map[string]json.RawMessage {
		t.Helper()
		keys, fields := objectKeys(t, raw)
		if !reflect.DeepEqual(keys, want[kind]) {
			t.Fatalf("%s keys = %q, want %q", kind, keys, want[kind])
		}
		return fields
	}
	list := func(raw json.RawMessage) []json.RawMessage {
		t.Helper()
		var out []json.RawMessage
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	doc := check("omega", data)
	for i, w := range list(doc["windows"]) {
		kind := "window"
		if i == 1 {
			kind = "local"
		}
		check(kind, w)
	}
	for _, sl := range list(doc["slices"]) {
		check("slice", sl)
	}
	commands := 0
	for _, ns := range list(doc["nodes"]) {
		if _, idle := objectKeys(t, ns); idle["commands"] == nil {
			check("idle", ns)
			continue
		}
		for _, c := range list(check("node", ns)["commands"]) {
			check("command", c)
			commands++
		}
	}
	if commands != om.NumCommands() {
		t.Fatalf("%d commands in the artifact, Ω has %d", commands, om.NumCommands())
	}
}

// TestOmegaWithoutMessagesKeepsNullWindows pins the artifact of a graph
// without messages: its windows are written as null, as they were
// before Ω was encoded from its own types, and the document loads back.
func TestOmegaWithoutMessagesKeepsNullWindows(t *testing.T) {
	g, err := tfg.Chain(1, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tfg.NewUniformTiming(g, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	top := sixCube(t)
	as, err := alloc.RoundRobin(g, top)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(Problem{Graph: g, Timing: tm, Topology: top, Assignment: as, TauIn: 100}, Options{Seed: 1})
	if err != nil || !res.Feasible {
		t.Fatalf("one-task problem: %v", err)
	}
	data, err := MarshalOmega(res.Omega)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"windows":null,"slices":null,`)) {
		t.Fatalf("artifact without messages: %s", data)
	}
	if _, err := DecodeOmega(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
}

// objectKeys returns a JSON object's keys in document order and its
// values by key.
func objectKeys(t *testing.T, raw json.RawMessage) ([]string, map[string]json.RawMessage) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not an object: %.80s", raw)
	}
	var keys []string
	fields := map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		fields[tok.(string)] = v
	}
	return keys, fields
}

// malformedRingEdits lists single-id edits of the saved ringOmega and
// who must refuse each. Ids that need no topology to be wrong — a
// command's message outside the windows, a negative link, a link wider
// than LinkID (which would wrap onto link 0), a port that is null or
// absent (which would load as link 0) — are DecodeOmega's; a link
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
		{out, `"out": null`, `bad port ""`, ""},
		{`"in": "AP",`, ``, `bad port ""`, ""},
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
		name := fmt.Sprintf("%s → %s", tc.old, tc.edit)
		edited := strings.Replace(buf.String(), tc.old, tc.edit, 1)
		if edited == buf.String() {
			t.Fatalf("%s: nothing to edit in the saved Ω", name)
		}
		got, err := DecodeOmega(strings.NewReader(edited))
		if tc.decodeErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.decodeErr) {
				t.Errorf("%s: DecodeOmega = %v, want an error holding %q", name, err, tc.decodeErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := got.Validate(top); err == nil || err.Error() != tc.validateErr {
			t.Errorf("%s: Validate = %v, want %q", name, err, tc.validateErr)
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
