package schedule

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"schedroute/internal/errkind"
)

// FuzzOmegaDecode feeds arbitrary bytes to the Ω loader and, when they
// load, on through everything omegainspect does with a loaded Ω short
// of replaying it: Validate against the 6-cube, Linksets, NumCommands,
// a compact and an indented save that must equal encoding/json's bytes
// (marshalOmegaReference, encodeOmegaReference), and a save that must
// load again and save to the same bytes. Nothing may panic, and bytes
// whose schema_version parses as another version must be refused as
// unknown_schema_version, whatever else they hold.
func FuzzOmegaDecode(f *testing.F) {
	top := sixCube(f)
	res, err := Compute(dvbProblem(f, top, 64, gridTauIn(5)), Options{Seed: 1})
	if err != nil || !res.Feasible {
		f.Fatalf("fixture: %v", err)
	}
	ring, _, pa := ringOmega(f)
	var small, large bytes.Buffer
	if err := errors.Join(EncodeOmega(&small, ring), EncodeOmega(&large, res.Omega)); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Add(large.Bytes())
	for _, tc := range malformedRingEdits(pa) {
		f.Add([]byte(strings.Replace(small.String(), tc.old, tc.edit, 1)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		om, err := DecodeOmega(bytes.NewReader(data))
		var v struct {
			SchemaVersion int `json:"schema_version"`
		}
		if json.NewDecoder(bytes.NewReader(data)).Decode(&v) == nil && v.SchemaVersion != OmegaSchemaVersion {
			if kind := errkind.Name(err); kind != "unknown_schema_version" {
				t.Fatalf("schema_version %d refused as %q: %v", v.SchemaVersion, kind, err)
			}
		}
		if err != nil {
			return
		}
		_ = om.Validate(top)
		_, _ = om.Linksets(), om.NumCommands()
		var want bytes.Buffer
		compact, err := MarshalOmega(om)
		wantCompact, wantErr := marshalOmegaReference(om)
		if err != nil || wantErr != nil || !bytes.Equal(compact, wantCompact) {
			t.Fatalf("MarshalOmega = %.200q, %v; json.Marshal = %.200q, %v", compact, err, wantCompact, wantErr)
		}
		var saved, again bytes.Buffer
		if err := EncodeOmega(&saved, om); err != nil {
			t.Fatalf("loaded Ω does not save: %v", err)
		}
		if err := encodeOmegaReference(&want, om); err != nil || !bytes.Equal(saved.Bytes(), want.Bytes()) {
			t.Fatalf("EncodeOmega differs from json.Encoder (%v)", err)
		}
		reloaded, err := DecodeOmega(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("saved Ω does not load: %v", err)
		}
		if err := EncodeOmega(&again, reloaded); err != nil || !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("save → load → save changed the artifact (%v)", err)
		}
	})
}
