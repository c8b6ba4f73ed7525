// Package gantt renders a scheduled-routing frame as an ASCII timeline:
// one row per used link, one column per time bucket of [0, τin), the
// cell showing which message occupies the link. It makes the
// contention-freedom of Ω visible at a glance — every cell carries at
// most one message — and shows how AssignPaths spreads traffic over
// links and time.
package gantt

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/topology"
)

// glyphs label messages 0..61; busier frames wrap around.
const glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// Render writes the link-occupancy chart with the given number of time
// columns (minimum 10).
func Render(w io.Writer, om *schedule.Omega, top *topology.Topology, columns int) error {
	if columns < 10 {
		columns = 10
	}
	type span struct {
		start, end float64
		msg        tfg.MessageID
	}
	perLink := map[topology.LinkID][]span{}
	linksets := om.Linksets()
	for _, sl := range om.Slices {
		for mi, msg := range sl.Msgs {
			for _, l := range linksets[msg] {
				perLink[l] = append(perLink[l], span{start: sl.Start, end: sl.Until[mi], msg: msg})
			}
		}
	}
	if len(perLink) == 0 {
		_, err := fmt.Fprintln(w, "(no link traffic: all messages local)")
		return err
	}
	links := make([]topology.LinkID, 0, len(perLink))
	for l := range perLink {
		links = append(links, l)
	}
	sort.Slice(links, func(a, b int) bool { return links[a] < links[b] })

	bucket := om.TauIn / float64(columns)
	if _, err := fmt.Fprintf(w, "frame [0, %g µs), %g µs per column; cells show the occupying message\n", om.TauIn, bucket); err != nil {
		return err
	}
	header := fmt.Sprintf("%-12s |%s|", "link", ruler(columns))
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, l := range links {
		row := make([]byte, columns)
		for i := range row {
			row[i] = '.'
		}
		overlap := false
		for _, sp := range perLink[l] {
			lo := int(sp.start / bucket)
			hi := int((sp.end - 1e-9) / bucket)
			for c := lo; c <= hi && c < columns; c++ {
				g := glyphs[int(sp.msg)%len(glyphs)]
				if row[c] != '.' && row[c] != g {
					row[c] = '!'
					overlap = true
				} else {
					row[c] = g
				}
			}
		}
		label := fmt.Sprintf("L%d %d-%d", l, top.Link(l).A, top.Link(l).B)
		suffix := ""
		if overlap {
			suffix = "  <- bucket shared (sub-column resolution)"
		}
		if _, err := fmt.Fprintf(w, "%-12s |%s|%s\n", label, row, suffix); err != nil {
			return err
		}
	}
	return nil
}

// ruler builds a column ruler with a tick every ten columns.
func ruler(columns int) string {
	var b strings.Builder
	for i := 0; i < columns; i++ {
		if i%10 == 0 {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Legend lists the message glyph assignments for the graph.
func Legend(w io.Writer, g *tfg.Graph) error {
	for _, m := range g.Messages() {
		if _, err := fmt.Fprintf(w, "  %c = %s (%d bytes, task %d -> %d)\n",
			glyphs[int(m.ID)%len(glyphs)], m.Name, m.Bytes, m.Src, m.Dst); err != nil {
			return err
		}
	}
	return nil
}
