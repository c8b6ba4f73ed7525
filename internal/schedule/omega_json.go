package schedule

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"schedroute/internal/errkind"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// The JSON encoding of Ω is the deployable artifact of scheduled
// routing: a real multicomputer would compile it on the host and ship
// each node's command list to that node's communication processor.

// OmegaSchemaVersion is the schema_version written by EncodeOmega and
// the only one DecodeOmega accepts; anything else (an absent field
// included) is rejected with an errkind.ErrUnknownVersion error so
// stale tools fail loudly instead of misreading a future layout.
const OmegaSchemaVersion = 1

type omegaJSON struct {
	SchemaVersion int               `json:"schema_version"`
	TauIn         float64           `json:"tau_in"`
	Latency       float64           `json:"latency"`
	Starts        []float64         `json:"starts,omitempty"`
	Windows       []windowJSON      `json:"windows"`
	Slices        []sliceJSON       `json:"slices"`
	Nodes         []nodeSchedule256 `json:"nodes"`
}

type windowJSON struct {
	Release    float64 `json:"release"`
	Length     float64 `json:"length"`
	AbsRelease float64 `json:"abs_release"`
	Xmit       float64 `json:"xmit"`
	Local      bool    `json:"local,omitempty"`
}

type sliceJSON struct {
	Interval int       `json:"interval"`
	Start    float64   `json:"start"`
	End      float64   `json:"end"`
	Msgs     []int     `json:"msgs"`
	Until    []float64 `json:"until"`
}

type nodeSchedule256 struct {
	Node     int           `json:"node"`
	Commands []commandJSON `json:"commands,omitempty"`
}

type commandJSON struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Msg   int     `json:"msg"`
	In    string  `json:"in"`
	Out   string  `json:"out"`
}

// portFromJSON reads back what Port.String writes.
func portFromJSON(s string) (Port, error) {
	if s == "AP" {
		return Port{AP: true}, nil
	}
	rest, ok := strings.CutPrefix(s, "L")
	// Bit size 32 is the range check: an id past LinkID's width is
	// refused here instead of wrapping onto a link the topology has.
	l, err := strconv.ParseInt(rest, 10, 32)
	if !ok || err != nil || l < 0 {
		return Port{}, fmt.Errorf("schedule: bad port %q", s)
	}
	return Port{Link: topology.LinkID(l)}, nil
}

// EncodeOmega writes Ω as indented JSON, the form srsched -save writes
// and the golden byte comparisons read.
func EncodeOmega(w io.Writer, om *Omega) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(omegaDoc(om))
}

// MarshalOmega returns Ω as compact JSON: EncodeOmega's document without
// the indentation and the trailing newline, which is what json.Compact
// makes of EncodeOmega's bytes.
func MarshalOmega(om *Omega) ([]byte, error) {
	return json.Marshal(omegaDoc(om))
}

// omegaDoc builds the JSON document of Ω that both encoders write.
func omegaDoc(om *Omega) omegaJSON {
	oj := omegaJSON{SchemaVersion: OmegaSchemaVersion, TauIn: om.TauIn, Latency: om.Latency, Starts: om.Starts}
	for _, win := range om.Windows {
		oj.Windows = append(oj.Windows, windowJSON{
			Release: win.Release, Length: win.Length,
			AbsRelease: win.AbsRelease, Xmit: win.Xmit, Local: win.Local,
		})
	}
	for _, sl := range om.Slices {
		sj := sliceJSON{Interval: sl.Interval, Start: sl.Start, End: sl.End, Until: sl.Until}
		for _, m := range sl.Msgs {
			sj.Msgs = append(sj.Msgs, int(m))
		}
		oj.Slices = append(oj.Slices, sj)
	}
	for _, ns := range om.Nodes {
		nj := nodeSchedule256{Node: int(ns.Node)}
		for _, c := range ns.Commands {
			nj.Commands = append(nj.Commands, commandJSON{
				Start: c.Start, End: c.End, Msg: int(c.Msg),
				In: c.In.String(), Out: c.Out.String(),
			})
		}
		oj.Nodes = append(oj.Nodes, nj)
	}
	return oj
}

// DecodeOmega reads Ω back from JSON.
func DecodeOmega(r io.Reader) (*Omega, error) {
	var oj omegaJSON
	if err := json.NewDecoder(r).Decode(&oj); err != nil {
		return nil, fmt.Errorf("schedule: decode omega: %w", err)
	}
	if oj.SchemaVersion != OmegaSchemaVersion {
		return nil, errkind.Mark(
			fmt.Errorf("schedule: decode omega: schema_version %d not supported (this build reads %d)",
				oj.SchemaVersion, OmegaSchemaVersion),
			errkind.ErrUnknownVersion)
	}
	if oj.TauIn <= 0 {
		return nil, fmt.Errorf("schedule: decode omega: non-positive period %g", oj.TauIn)
	}
	om := &Omega{TauIn: oj.TauIn, Latency: oj.Latency, Starts: oj.Starts}
	for _, wj := range oj.Windows {
		om.Windows = append(om.Windows, Window{
			Release: wj.Release, Length: wj.Length,
			AbsRelease: wj.AbsRelease, Xmit: wj.Xmit, Local: wj.Local,
		})
	}
	for _, sj := range oj.Slices {
		if len(sj.Msgs) != len(sj.Until) {
			return nil, fmt.Errorf("schedule: decode omega: slice msgs/until mismatch")
		}
		sl := Slice{Interval: sj.Interval, Start: sj.Start, End: sj.End, Until: sj.Until}
		for _, m := range sj.Msgs {
			if m < 0 || m >= len(om.Windows) {
				return nil, fmt.Errorf("schedule: decode omega: message %d out of range", m)
			}
			sl.Msgs = append(sl.Msgs, tfg.MessageID(m))
		}
		om.Slices = append(om.Slices, sl)
	}
	for _, nj := range oj.Nodes {
		ns := NodeSchedule{Node: topology.NodeID(nj.Node)}
		for _, cj := range nj.Commands {
			if cj.Msg < 0 || cj.Msg >= len(om.Windows) {
				return nil, fmt.Errorf("schedule: decode omega: message %d out of range", cj.Msg)
			}
			in, err := portFromJSON(cj.In)
			if err != nil {
				return nil, err
			}
			out, err := portFromJSON(cj.Out)
			if err != nil {
				return nil, err
			}
			ns.Commands = append(ns.Commands, Command{
				Start: cj.Start, End: cj.End, Msg: tfg.MessageID(cj.Msg), In: in, Out: out,
			})
		}
		om.Nodes = append(om.Nodes, ns)
	}
	return om, nil
}
