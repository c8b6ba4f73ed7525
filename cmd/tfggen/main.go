// Command tfggen generates task-flow graphs as JSON for use with
// srsched and wormsim.
//
// Usage:
//
//	tfggen -kind dvb -n 4 > dvb4.json
//	tfggen -kind random -layers 2,4,4,2 -seed 7 > rand.json
package main

import (
	"flag"
	"fmt"
	"os"

	"schedroute/internal/cliutil"
	"schedroute/internal/dvb"
	"schedroute/internal/tfg"
)

func main() {
	kind := flag.String("kind", "dvb", "graph kind: dvb, chain, fan, diamond, fft, stencil, random (alias: layered)")
	n := flag.Int("n", 4, "size parameter (models, chain length, fan width)")
	ops := flag.Int64("ops", 1925, "operations per task (chain/fan/diamond)")
	bytes := flag.Int64("bytes", 1536, "bytes per message (chain/fan/diamond)")
	layers := flag.String("layers", "2,4,4,2", "random graph layer widths; 64*14 repeats a width 14 times")
	seed := flag.Int64("seed", 1, "random graph seed")
	density := flag.Float64("density", 0.3, "random graph extra-edge probability")
	flag.Parse()

	var g *tfg.Graph
	var err error
	switch *kind {
	case "dvb":
		g, err = dvb.New(*n)
	case "chain":
		g, err = tfg.Chain(*n, *ops, *bytes)
	case "fan":
		g, err = tfg.FanOutIn(*n, *ops, *bytes)
	case "diamond":
		g, err = tfg.Diamond(*ops, *bytes)
	case "fft":
		g, err = tfg.FFT(*n, *ops, *bytes)
	case "stencil":
		g, err = tfg.Stencil(*n, *ops, *bytes, *bytes/4)
	case "random", "layered":
		widths, perr := tfg.ParseWidths(*layers)
		if perr != nil {
			cliutil.Fatal("tfggen", fmt.Errorf("-layers: %v", perr))
		}
		g, err = tfg.RandomLayered(*seed, widths, 400, 1925, 192, 3200, *density)
	default:
		cliutil.Fatal("tfggen", fmt.Errorf("unknown kind %q", *kind))
	}
	if err != nil {
		cliutil.Fatal("tfggen", err)
	}
	if err := tfg.Encode(os.Stdout, g); err != nil {
		cliutil.Fatal("tfggen", err)
	}
}
