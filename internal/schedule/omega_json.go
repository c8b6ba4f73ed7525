package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"schedroute/internal/errkind"
	"schedroute/internal/tfg"
)

// The JSON encoding of Ω is the deployable artifact of scheduled
// routing: a real multicomputer would compile it on the host and ship
// each node's command list to that node's communication processor. Its
// keys are the json tags of Omega, Window, Slice, NodeSchedule and
// Command, and a Port is written as its String form, so Ω is encoded
// from the schedule itself, never from a copy.
//
// The encoder is written by hand (appendOmega): it writes exactly what
// json.Marshal writes for those tagged types, without reflection and
// without a MarshalText allocation per port. The decoder is
// encoding/json over the same tags, and the tests hold the encoder to
// json.Marshal of the tagged types byte for byte.

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

// omegaBufPool holds the scratch buffers compactOmega appends the
// compact document into, so that only what its callers make of them is
// allocated.
var omegaBufPool = sync.Pool{New: func() any { return new([]byte) }}

// compactOmega hands use the compact artifact of om in a pooled scratch
// buffer, valid until use returns.
func compactOmega(om *Omega, use func([]byte) error) error {
	bp := omegaBufPool.Get().(*[]byte)
	defer omegaBufPool.Put(bp)
	b, err := appendOmega((*bp)[:0], om)
	*bp = b
	if err != nil {
		return err
	}
	return use(b)
}

// EncodeOmega writes Ω as indented JSON, the form srsched -save writes
// and the golden byte comparisons read: MarshalOmega's document indented
// by one space per level, then a newline, as json.Encoder with
// SetIndent("", " ") writes it.
func EncodeOmega(w io.Writer, om *Omega) error {
	return compactOmega(om, func(b []byte) error {
		var out bytes.Buffer
		if err := json.Indent(&out, b, "", " "); err != nil {
			return err
		}
		out.WriteByte('\n')
		_, err := w.Write(out.Bytes())
		return err
	})
}

// MarshalOmega returns Ω as compact JSON: EncodeOmega's document without
// the indentation and the trailing newline, which is what json.Compact
// makes of EncodeOmega's bytes. A warm call allocates only the bytes it
// returns.
func MarshalOmega(om *Omega) (out []byte, err error) {
	err = compactOmega(om, func(b []byte) error {
		out = bytes.Clone(b)
		return nil
	})
	return out, err
}

// appendOmega appends the compact artifact of om to dst: the bytes
// json.Marshal(omegaDoc{OmegaSchemaVersion, om}) writes, key order,
// omitempty and null slices included. JSON has no NaN or ±Inf, so a
// non-finite number anywhere in Ω is an error and dst comes back as it
// was given.
func appendOmega(dst []byte, om *Omega) ([]byte, error) {
	e := omegaEncoder{b: dst}
	e.raw(`{"schema_version":`)
	e.int(OmegaSchemaVersion)
	if om != nil {
		e.omega(om)
	}
	e.raw("}")
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// omegaEncoder appends Ω's keys and values to b. err is set at the
// first number JSON cannot carry.
type omegaEncoder struct {
	b   []byte
	err error
}

// omega appends Ω's own keys, the schema_version already written.
func (e *omegaEncoder) omega(om *Omega) {
	e.raw(`,"tau_in":`)
	e.float(om.TauIn)
	e.raw(`,"latency":`)
	e.float(om.Latency)
	if len(om.Starts) > 0 {
		e.raw(`,"starts":`)
		list(e, om.Starts, (*omegaEncoder).float)
	}
	e.raw(`,"windows":`)
	list(e, om.Windows, (*omegaEncoder).window)
	e.raw(`,"slices":`)
	list(e, om.Slices, (*omegaEncoder).slice)
	e.raw(`,"nodes":`)
	list(e, om.Nodes, (*omegaEncoder).node)
}

func (e *omegaEncoder) window(w Window) {
	e.raw(`{"release":`)
	e.float(w.Release)
	e.raw(`,"length":`)
	e.float(w.Length)
	e.raw(`,"abs_release":`)
	e.float(w.AbsRelease)
	e.raw(`,"xmit":`)
	e.float(w.Xmit)
	if w.Local {
		e.raw(`,"local":true`)
	}
	e.raw("}")
}

func (e *omegaEncoder) slice(sl Slice) {
	e.raw(`{"interval":`)
	e.int(sl.Interval)
	e.raw(`,"start":`)
	e.float(sl.Start)
	e.raw(`,"end":`)
	e.float(sl.End)
	e.raw(`,"msgs":`)
	list(e, sl.Msgs, (*omegaEncoder).msg)
	e.raw(`,"until":`)
	list(e, sl.Until, (*omegaEncoder).float)
	e.raw("}")
}

func (e *omegaEncoder) node(ns NodeSchedule) {
	e.raw(`{"node":`)
	e.int(int(ns.Node))
	if len(ns.Commands) > 0 {
		e.raw(`,"commands":`)
		list(e, ns.Commands, (*omegaEncoder).command)
	}
	e.raw("}")
}

func (e *omegaEncoder) command(c Command) {
	e.raw(`{"start":`)
	e.float(c.Start)
	e.raw(`,"end":`)
	e.float(c.End)
	e.raw(`,"msg":`)
	e.msg(c.Msg)
	e.raw(`,"in":"`)
	e.b = appendPort(e.b, c.In)
	e.raw(`","out":"`)
	e.b = appendPort(e.b, c.Out)
	e.raw(`"}`)
}

// list appends s as json.Marshal writes a slice: null when nil, else
// its elements, each written by elem, in brackets.
func list[T any](e *omegaEncoder, s []T, elem func(*omegaEncoder, T)) {
	if s == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, v := range s {
		if i > 0 {
			e.raw(",")
		}
		elem(e, v)
	}
	e.raw("]")
}

// raw appends literal JSON: punctuation, keys, null, true.
func (e *omegaEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *omegaEncoder) int(i int) { e.b = strconv.AppendInt(e.b, int64(i), 10) }

func (e *omegaEncoder) msg(m tfg.MessageID) { e.int(int(m)) }

// float appends f as encoding/json writes a float64: the shortest form
// that reads back to f, in %f notation unless its magnitude is below
// 1e-6 or at least 1e21, and then in %e notation with a one-digit
// negative exponent unpadded (e-7, not e-07).
func (e *omegaEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("schedule: encode omega: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
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
