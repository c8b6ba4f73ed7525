package schedule

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
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
// of object in the artifact. The keys are the json tags of Ω's own
// types, which DecodeOmega reads and appendOmega must write as
// json.Marshal would (TestMarshalOmegaMatchesReference), so a field
// added to one of them would otherwise change the schema unnoticed.
// The ring Ω is given task starts and a local window so that every
// omitempty key is present too.
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
	data, err := MarshalOmega(noMessageOmega(t))
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

// noMessageOmega is the Ω of a one-task graph: it has no messages, so
// its windows and slices are nil.
func noMessageOmega(t testing.TB) *Omega {
	t.Helper()
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
	return res.Omega
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
		fs := topology.NewFaultSet()
		fs.FailLink(base.Assignment.Links[i][0])
		return fs
	}
	t.Fatal("no scheduled link traffic in fixture")
	return nil
}

// marshalOmegaReference is the artifact as encoding/json writes it from
// Ω's tagged types: the oracle MarshalOmega is held to.
func marshalOmegaReference(om *Omega) ([]byte, error) {
	return json.Marshal(omegaDoc{OmegaSchemaVersion, om})
}

// encodeOmegaReference is the indented artifact as json.Encoder writes
// it: the oracle EncodeOmega is held to.
func encodeOmegaReference(w io.Writer, om *Omega) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(omegaDoc{OmegaSchemaVersion, om})
}

// checkOmegaMatchesReference requires MarshalOmega and EncodeOmega to
// write the oracles' bytes for om, or, where the oracles refuse om, to
// refuse it too and write nothing.
func checkOmegaMatchesReference(t *testing.T, name string, om *Omega) {
	t.Helper()
	want, wantErr := marshalOmegaReference(om)
	got, err := MarshalOmega(om)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		at := diffAt(got, want)
		t.Fatalf("%s: MarshalOmega = …%.120q, %v; json.Marshal = …%.120q, %v", name, got[at:], err, want[at:], wantErr)
	}
	if err != nil && got != nil {
		t.Fatalf("%s: MarshalOmega refused Ω (%v) but returned %d bytes", name, err, len(got))
	}
	var wantBuf, gotBuf bytes.Buffer
	wantErr = encodeOmegaReference(&wantBuf, om)
	err = EncodeOmega(&gotBuf, om)
	if g, w := gotBuf.Bytes(), wantBuf.Bytes(); (err != nil) != (wantErr != nil) || !bytes.Equal(g, w) {
		at := diffAt(g, w)
		t.Fatalf("%s: EncodeOmega = …%.120q, %v; json.Encoder = …%.120q, %v", name, g[at:], err, w[at:], wantErr)
	}
}

// diffAt is where a and b start to differ, backed off by 40 bytes so a
// failure shows the key being written.
func diffAt(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return max(0, i-40)
}

// TestMarshalOmegaMatchesReference holds the hand-written encoder to
// encoding/json on every Ω of the standard grid, the ring, the edge
// cases of Ω's shape and of float formatting, and random Ωs whose every
// field is set: a field added to a tagged type but not to appendOmega
// makes the last of these differ. Its floats subtest covers number
// formatting and the refusal of NaN and ±Inf.
func TestMarshalOmegaMatchesReference(t *testing.T) {
	t.Run("floats", floatsMatchJSON)

	for _, e := range standardGrid(t) {
		res, err := Compute(e.p, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		checkOmegaMatchesReference(t, e.id, res.Omega)
	}
	ring, _, _ := ringOmega(t)
	checkOmegaMatchesReference(t, "ring", ring)
	checkOmegaMatchesReference(t, "no messages", noMessageOmega(t))

	if got, err := MarshalOmega(nil); err != nil || string(got) != `{"schema_version":1}` {
		t.Fatalf("nil Ω: %q, %v", got, err)
	}
	checkOmegaMatchesReference(t, "nil", nil)
	checkOmegaMatchesReference(t, "empty", &Omega{})

	edge, _, _ := ringOmega(t)
	edge.TauIn, edge.Latency = 1e21, math.Copysign(0, -1)
	edge.Starts = []float64{1e-7, -1e-7, 1e-6, 1e20, 123456789.125, 5e-324}
	edge.Windows = append(edge.Windows, Window{Release: 1e-7, Length: 1e21, AbsRelease: -1e21, Xmit: 0.1, Local: true})
	edge.Slices = append(edge.Slices,
		Slice{Interval: 1, Msgs: []tfg.MessageID{}, Until: []float64{}},
		Slice{Interval: 2, Start: 3, End: 4})
	edge.Nodes[3].Commands = []Command{}
	edge.Nodes = append(edge.Nodes, NodeSchedule{Node: -1, Commands: []Command{{Start: -0.5, End: 2e-7, Msg: -2,
		In: Port{Link: math.MaxInt32}, Out: Port{Link: math.MinInt32}}}})
	checkOmegaMatchesReference(t, "edges", edge)
	edge.Starts = []float64{}
	checkOmegaMatchesReference(t, "empty starts", edge)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		om := new(Omega)
		fillRandom(t, rng, reflect.ValueOf(om).Elem())
		checkOmegaMatchesReference(t, fmt.Sprintf("random %d", i), om)
	}
}

// fillRandom sets v, and everything v holds, to random values: every
// struct field of every kind Ω's types use, slices nil, empty or of one
// to three elements, numbers finite and often awkward to format. A
// field of a kind it does not know fails the test.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, rng, v.Field(i))
		}
	case reflect.Slice:
		if n := rng.Intn(5) - 1; n < 0 {
			v.SetZero()
		} else {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fillRandom(t, rng, v.Index(i))
			}
		}
	case reflect.Float64:
		v.SetFloat(randomFloat(rng))
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(rng.Int63n(1<<31) - 1<<30)
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	default:
		t.Fatalf("fillRandom: no values for %s", v.Type())
	}
}

// randomFloat draws a finite float64: a random bit pattern, a small
// decimal, or a value at one of json's notation cutoffs.
func randomFloat(rng *rand.Rand) float64 {
	for {
		var f float64
		switch rng.Intn(4) {
		case 0:
			f = math.Float64frombits(rng.Uint64())
		case 1:
			f = float64(rng.Intn(20001)-10000) / 8
		case 2:
			f = []float64{1e-6, 1e21, 0, math.Copysign(0, -1)}[rng.Intn(4)]
			f = math.Nextafter(f, []float64{-1, 1, math.Inf(1)}[rng.Intn(3)])
		default:
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// floatsMatchJSON holds the encoder's number formatting to
// json.Marshal(float64) on random bit patterns, and its refusal of NaN
// and ±Inf to json's, for the encoder alone and for every float field
// of an Ω.
func floatsMatchJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i%2 == 1 {
			f = randomFloat(rng)
		}
		want, wantErr := json.Marshal(f)
		var e omegaEncoder
		e.float(f)
		if (e.err != nil) != (wantErr != nil) || (e.err == nil && !bytes.Equal(e.b, want)) {
			t.Fatalf("%x: encoder wrote %q (%v), json.Marshal %q (%v)", math.Float64bits(f), e.b, e.err, want, wantErr)
		}
	}

	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	fields := []func(om *Omega, f float64){
		func(om *Omega, f float64) { om.TauIn = f },
		func(om *Omega, f float64) { om.Latency = f },
		func(om *Omega, f float64) { om.Starts = []float64{0, f} },
		func(om *Omega, f float64) { om.Windows[0].Release = f },
		func(om *Omega, f float64) { om.Windows[0].Length = f },
		func(om *Omega, f float64) { om.Windows[0].AbsRelease = f },
		func(om *Omega, f float64) { om.Windows[0].Xmit = f },
		func(om *Omega, f float64) { om.Slices[0].Start = f },
		func(om *Omega, f float64) { om.Slices[0].End = f },
		func(om *Omega, f float64) { om.Slices[0].Until[0] = f },
		func(om *Omega, f float64) { om.Nodes[1].Commands[0].Start = f },
		func(om *Omega, f float64) { om.Nodes[2].Commands[0].End = f },
	}
	for i, set := range fields {
		for _, f := range bad {
			om, _, _ := ringOmega(t)
			set(om, f)
			checkOmegaMatchesReference(t, fmt.Sprintf("field %d = %g", i, f), om)
			if _, err := MarshalOmega(om); err == nil {
				t.Fatalf("field %d = %g: MarshalOmega accepted it", i, f)
			}
		}
	}
}

// TestMarshalOmegaAllocatesOnce pins the warm encoder's cost: the
// returned bytes are its one allocation, whatever Ω's size.
func TestMarshalOmegaAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under -race")
	}
	ring, _, _ := ringOmega(t)
	res, err := Compute(dvbProblem(t, sixCube(t), 64, gridTauIn(5)), Options{Seed: 1})
	if err != nil || !res.Feasible {
		t.Fatalf("fixture: %v", err)
	}
	for _, om := range []*Omega{ring, res.Omega} {
		if _, err := MarshalOmega(om); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = MarshalOmega(om) }); n != 1 {
			t.Errorf("MarshalOmega of %d commands: %v allocations, want 1", om.NumCommands(), n)
		}
	}
}
