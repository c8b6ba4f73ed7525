// Command omegainspect loads a communication schedule Ω saved by
// srsched -save, prints its summary, optionally renders its link
// occupancy, validates it against a topology, and re-verifies it at
// packet level — the consumer side of the "compile on the host, ship to
// the CPs" workflow.
//
// Usage:
//
//	srsched -tfg dvb:4 -topo cube:6 -tauin 141 -save omega.json
//	omegainspect -omega omega.json -tfg dvb:4 -topo cube:6 -bw 64 -gantt
package main

import (
	"flag"
	"fmt"
	"os"

	"schedroute/internal/cliutil"
	"schedroute/internal/cpsim"
	"schedroute/internal/gantt"
	"schedroute/internal/schedule"
	"schedroute/pkg/schedroute"
)

func main() {
	omegaPath := flag.String("omega", "", "path to the Ω JSON file (required)")
	tfgSpec := flag.String("tfg", "dvb:4", "the TFG the schedule was computed for")
	topoSpec := flag.String("topo", "cube:6", "the topology the schedule was computed for")
	bw := flag.Float64("bw", 64, "link bandwidth in bytes/µs (for packet verification)")
	packets := flag.Int("packets", 64, "packet size in bytes for the CP replay (0 to skip)")
	chart := flag.Bool("gantt", false, "render the frame's link occupancy")
	flag.Parse()

	if *omegaPath == "" {
		fmt.Fprintln(os.Stderr, "omegainspect: -omega is required")
		os.Exit(2)
	}
	f, err := os.Open(*omegaPath)
	if err != nil {
		cliutil.Fatal("omegainspect", err)
	}
	om, err := schedule.DecodeOmega(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		cliutil.Fatal("omegainspect", err)
	}
	g, err := cliutil.LoadGraph(*tfgSpec)
	if err != nil {
		cliutil.Fatal("omegainspect", err)
	}
	top, err := schedroute.ParseTopology(*topoSpec)
	if err != nil {
		cliutil.Fatal("omegainspect", err)
	}
	if len(om.Windows) != g.NumMessages() {
		cliutil.Fatal("omegainspect", fmt.Errorf("schedule has %d windows but the TFG has %d messages — wrong -tfg?", len(om.Windows), g.NumMessages()))
	}

	fmt.Printf("Ω: τin = %g µs, latency = %g µs, %d slices, %d switching commands on %d nodes\n",
		om.TauIn, om.Latency, len(om.Slices), om.NumCommands(), len(om.Nodes))
	if err := om.Validate(top); err != nil {
		cliutil.Fatal("omegainspect", fmt.Errorf("validation FAILED: %w", err))
	}
	fmt.Println("static validation: contention-free, windows honored, transmissions complete")

	if *packets > 0 {
		out, err := cpsim.Run(cpsim.Config{
			Omega: om, Graph: g, Topology: top,
			PacketBytes: *packets, Bandwidth: *bw,
		})
		if err != nil {
			cliutil.Fatal("omegainspect", err)
		}
		fmt.Printf("packet replay: %d packets/frame delivered, %d violations, skew tolerance ±%.3g µs\n",
			out.PacketsDelivered, len(out.Violations), out.MaxSkewTolerated)
		if len(out.Violations) > 0 {
			os.Exit(1)
		}
	}
	if *chart {
		if err := gantt.Render(os.Stdout, om, top, 80); err != nil {
			cliutil.Fatal("omegainspect", err)
		}
	}
}
