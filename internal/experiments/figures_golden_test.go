package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"schedroute/internal/schedule"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figures.golden")

const figuresGolden = "testdata/figures.golden"

// renderFigures is everything cmd/experiments can print, as text and as
// CSV: Figs. 5-10 on their standard configs, then the three
// pseudo-figures (faults and tenant capped at four scenarios per point,
// pareto at its defaults) on the two determinism configs.
func renderFigures(t *testing.T, procs int) []byte {
	t.Helper()
	ctx := context.Background()
	cfgs, err := StandardConfigs()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	emit := func(title string, s Series, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		for _, write := range []func(Series, io.Writer) error{Series.WriteText, Series.WriteCSV} {
			fmt.Fprintf(&out, "==== %s\n", title)
			if err := write(s, &out); err != nil {
				t.Fatalf("%s: %v", title, err)
			}
		}
	}
	for fig := 5; fig <= 10; fig++ {
		keys, _ := Figure(fig)
		for _, key := range keys {
			cfg := cfgs[key]
			cfg.Procs = procs
			title := fmt.Sprintf("fig %d %s", fig, key)
			if IsUtilizationFigure(fig) {
				s, err := UtilizationSweep(ctx, cfg)
				emit(title, s, err)
			} else {
				s, err := PerfSweep(ctx, cfg)
				emit(title, s, err)
			}
		}
	}
	for _, key := range determinismConfigs {
		cfg := cfgs[key]
		cfg.Procs = procs
		cfg.MaxFaults = 4
		cfg.VerifyFaults = true
		fs, err := SurvivabilitySweep(ctx, cfg)
		emit("faults "+key, fs, err)
		ts, err := TenantSurvivabilitySweep(ctx, cfg)
		emit("tenant "+key, ts, err)
		ps, err := ParetoSweep(ctx, cfg, schedule.ExploreSpec{})
		emit("pareto "+key, ps, err)
	}
	return out.Bytes()
}

// TestFiguresGolden pins every table cmd/experiments prints, byte for
// byte, serial and parallel. The file was generated on the parent of the
// commit that moved the sweeps onto schedule.Sweep, so a byte that moves
// is a behaviour change, not a refactor (-update regenerates it).
func TestFiguresGolden(t *testing.T) {
	if *updateFigures {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figuresGolden, renderFigures(t, 1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		got := renderFigures(t, procs)
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("procs=%d: %s drifted at line %d\n got: %s\nwant: %s", procs, figuresGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("procs=%d: %s drifted: %d lines, want %d", procs, figuresGolden, len(gl), len(wl))
	}
}
