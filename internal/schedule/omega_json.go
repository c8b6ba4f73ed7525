package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"schedroute/internal/errkind"
)

// The JSON encoding of Ω is the deployable artifact of scheduled
// routing: a real multicomputer would compile it on the host and ship
// each node's command list to that node's communication processor. Its
// keys are the json tags of Omega, Window, Slice, NodeSchedule and
// Command, and a Port is written as its String form, so Ω is encoded
// from the schedule itself, never from a copy.

// OmegaSchemaVersion is the schema_version written by EncodeOmega and
// the only one DecodeOmega accepts; anything else (an absent field
// included) is rejected with an errkind.ErrUnknownVersion error so
// stale tools fail loudly instead of misreading a future layout.
const OmegaSchemaVersion = 1

// omegaDoc is the artifact: the schema version, then Ω's own keys.
type omegaDoc struct {
	SchemaVersion int `json:"schema_version"`
	*Omega
}

// EncodeOmega writes Ω as indented JSON, the form srsched -save writes
// and the golden byte comparisons read.
func EncodeOmega(w io.Writer, om *Omega) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(omegaDoc{OmegaSchemaVersion, om})
}

// MarshalOmega returns Ω as compact JSON: EncodeOmega's document without
// the indentation and the trailing newline, which is what json.Compact
// makes of EncodeOmega's bytes.
func MarshalOmega(om *Omega) ([]byte, error) {
	return json.Marshal(omegaDoc{OmegaSchemaVersion, om})
}

// UnmarshalJSON reads a command and refuses one whose in or out key is
// absent or null. encoding/json hands neither to Port's UnmarshalText,
// and the zero Port is link 0, a real link, so each port starts at a
// link id no topology has and must not keep it.
func (c *Command) UnmarshalJSON(b []byte) error {
	type command Command
	unset := Port{Link: -1}
	cj := command{In: unset, Out: unset}
	if err := json.Unmarshal(b, &cj); err != nil {
		return err
	}
	if cj.In == unset || cj.Out == unset {
		return fmt.Errorf("bad port %q", "")
	}
	*c = Command(cj)
	return nil
}

// DecodeOmega reads Ω back from JSON. A document of another schema
// version is refused as one even when some other field of it does not
// decode: only then is the version read again, on its own.
func DecodeOmega(r io.Reader) (*Omega, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("schedule: decode omega: %w", err)
	}
	doc := omegaDoc{Omega: new(Omega)}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		var v struct {
			SchemaVersion int `json:"schema_version"`
		}
		if json.NewDecoder(bytes.NewReader(data)).Decode(&v) != nil || v.SchemaVersion == OmegaSchemaVersion {
			return nil, fmt.Errorf("schedule: decode omega: %w", err)
		}
		doc.SchemaVersion = v.SchemaVersion
	}
	if doc.SchemaVersion != OmegaSchemaVersion {
		return nil, errkind.Mark(
			fmt.Errorf("schedule: decode omega: schema_version %d not supported (this build reads %d)",
				doc.SchemaVersion, OmegaSchemaVersion),
			errkind.ErrUnknownVersion)
	}
	om := doc.Omega
	if om.TauIn <= 0 {
		return nil, fmt.Errorf("schedule: decode omega: non-positive period %g", om.TauIn)
	}
	for _, sl := range om.Slices {
		if len(sl.Msgs) != len(sl.Until) {
			return nil, fmt.Errorf("schedule: decode omega: slice msgs/until mismatch")
		}
		for _, m := range sl.Msgs {
			if m < 0 || int(m) >= len(om.Windows) {
				return nil, fmt.Errorf("schedule: decode omega: message %d out of range", m)
			}
		}
	}
	for _, ns := range om.Nodes {
		for _, c := range ns.Commands {
			if c.Msg < 0 || int(c.Msg) >= len(om.Windows) {
				return nil, fmt.Errorf("schedule: decode omega: message %d out of range", c.Msg)
			}
		}
	}
	return om, nil
}
