// Command experiments regenerates the paper's evaluation figures.
//
// Usage:
//
//	experiments -fig 7            # one figure (5..10)
//	experiments -all              # all six figures
//	experiments -fig faults       # survivability under single-link faults
//	experiments -fig tenant       # two-tenant isolation under victim-only faults
//	experiments -fig pareto       # Pareto fronts: τin × latency × resources
//	experiments -list             # show the figure → configuration map
//
// Figures 5 and 6 print peak-utilization tables (AssignPaths vs
// LSD-to-MSD); figures 7-10 print wormhole-vs-scheduled-routing
// throughput/latency tables with output-inconsistency spikes. The
// faults pseudo-figure runs the repair ladder against every
// single-link fault at each load point, optionally re-verifying each
// repaired Ω by packet-level simulation with the fault injected
// mid-run (-verify), and can be narrowed with -config. The pareto
// pseudo-figure explores the period × latency × resource trade-off
// per configuration, co-optimizing placement through the annealer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"schedroute/internal/cliutil"
	"schedroute/internal/experiments"
)

// A figure is a titled list of standard configurations and the sweep
// that turns each into the series to print.
type figure struct {
	title string
	keys  []string
	sweep sweepFunc
}

type sweepFunc = func(context.Context, experiments.Config) (experiments.Series, error)

// sweepOf adapts a sweep returning its own series type to a sweepFunc.
func sweepOf[S experiments.Series](f func(context.Context, experiments.Config) (S, error)) sweepFunc {
	return func(ctx context.Context, cfg experiments.Config) (experiments.Series, error) { return f(ctx, cfg) }
}

func main() {
	fig := flag.String("fig", "", "figure to regenerate (5..10), 'faults' for the survivability sweep, 'tenant' for the two-tenant isolation sweep, or 'pareto' for the multi-criteria fronts")
	all := flag.Bool("all", false, "regenerate every figure")
	configFilter := flag.String("config", "", "faults, tenant and pareto sweeps: only configurations whose key contains this substring")
	verify := flag.Bool("verify", true, "faults sweep: re-verify every repaired Ω by packet-level fault injection")
	strict := flag.Bool("strict", false, "faults and tenant sweeps: abort on the first infeasible repair")
	maxFaults := flag.Int("max-faults", 0, "faults and tenant sweeps: cap single-link scenarios per load point (0 = every link)")
	gridPoints := flag.Int("grid-points", 0, "pareto sweep: candidate periods per placement (0 = 4)")
	annealSeeds := flag.String("anneal-seeds", "", "pareto sweep: comma-separated annealer seeds for candidate placements (default seed+1,seed+2)")
	objectives := flag.String("objectives", "", "pareto sweep: comma-separated objectives among tau_in,latency,links,buffers (default all)")
	list := flag.Bool("list", false, "list figures and their configurations")
	invocations := flag.Int("invocations", 40, "wormhole invocations to simulate per load point")
	warmup := flag.Int("warmup", 20, "wormhole invocations to discard before measuring")
	seed := flag.Int64("seed", 1, "AssignPaths random-restart seed")
	format := flag.String("format", "table", "output format: table or csv")
	procs := flag.Int("procs", 0, "worker goroutines per sweep (0 = GOMAXPROCS, 1 = serial); results are identical either way")
	flag.Parse()
	if *format != "table" && *format != "csv" {
		usage("-format must be table or csv")
	}

	if *list {
		for id := 5; id <= 10; id++ {
			keys, _ := experiments.Figure(id)
			kind := "throughput/latency"
			if experiments.IsUtilizationFigure(id) {
				kind = "peak utilization"
			}
			fmt.Printf("fig %-2d (%s): %v\n", id, kind, keys)
		}
		return
	}

	cfgs, err := experiments.StandardConfigs()
	if err != nil {
		cliutil.Fatal("experiments", err)
	}
	spec, err := cliutil.ParseExploreSpec(*gridPoints, *annealSeeds, *objectives)
	if err != nil {
		usage(err.Error())
	}

	// Figures 5-10 run on the configurations the paper plots them for;
	// the pseudo-figures on every standard configuration -config keeps,
	// in key order.
	var selected []string
	for key := range cfgs {
		if strings.Contains(key, *configFilter) {
			selected = append(selected, key)
		}
	}
	sort.Strings(selected)
	figures := map[string]figure{
		"faults": {"Survivability under single-link faults", selected, sweepOf(experiments.SurvivabilitySweep)},
		"tenant": {"Tenant isolation under victim-only link faults", selected, sweepOf(experiments.TenantSurvivabilitySweep)},
		"pareto": {"Pareto fronts: τin × latency × resources", selected, func(ctx context.Context, cfg experiments.Config) (experiments.Series, error) {
			return experiments.ParetoSweep(ctx, cfg, spec)
		}},
	}
	names := []string{*fig}
	if n, err := strconv.Atoi(*fig); err == nil {
		names[0] = strconv.Itoa(n) // "07" is figure 7
	}
	if *all {
		names = nil
	}
	for id := 5; id <= 10; id++ {
		name := strconv.Itoa(id)
		keys, _ := experiments.Figure(id)
		sw := sweepOf(experiments.PerfSweep)
		if experiments.IsUtilizationFigure(id) {
			sw = sweepOf(experiments.UtilizationSweep)
		}
		figures[name] = figure{"Figure " + name, keys, sw}
		if *all {
			names = append(names, name)
		}
	}

	for _, name := range names {
		f, ok := figures[name]
		if !ok {
			usage("pass -fig 5..10, -fig faults, -fig tenant, -fig pareto, -all or -list")
		}
		if len(f.keys) == 0 {
			usage(fmt.Sprintf("no configuration matches -config %q", *configFilter))
		}
		if *format == "table" {
			fmt.Printf("==== %s ====\n", f.title)
		}
		for _, key := range f.keys {
			cfg := cfgs[key]
			cfg.Seed, cfg.Procs = *seed, *procs
			cfg.Invocations, cfg.Warmup = *invocations, *warmup
			cfg.MaxFaults, cfg.VerifyFaults, cfg.StrictRepair = *maxFaults, *verify, *strict
			s, err := f.sweep(context.Background(), cfg)
			if err != nil {
				cliutil.Fatal("experiments", err)
			}
			write := s.WriteText
			if *format == "csv" {
				write = s.WriteCSV
			}
			if err := write(os.Stdout); err != nil {
				cliutil.Fatal("experiments", err)
			}
			fmt.Println()
		}
	}
}

// usage reports flag misuse and exits with the flag package's own status.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "experiments:", msg)
	os.Exit(cliutil.ExitUsage)
}
