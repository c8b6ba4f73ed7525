// Package experiments regenerates every figure of the paper's Section 6
// evaluation: peak-utilization sweeps for the AssignPaths heuristic
// against LSD-to-MSD routing (Figs. 5 and 6) and wormhole-vs-scheduled
// routing throughput/latency sweeps with output-inconsistency spikes
// (Figs. 7-10). All experiments run the reconstructed DARPA Vision
// Benchmark TFG over the paper's twelve input periods between τc and
// 5τc on 64-node networks; the fault-free solves of every sweep are one
// schedule.Sweep over that grid (gridSweep.solve), and each sweep is
// what it projects out of the per-point Results.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"schedroute/internal/alloc"
	"schedroute/internal/dvb"
	"schedroute/internal/memo"
	"schedroute/internal/metrics"
	"schedroute/internal/schedule"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
	"schedroute/internal/wormhole"
)

// NumLoadPoints is the paper's twelve input periods per sweep.
const NumLoadPoints = 12

// Span names the sweeps record under Config.Trace.
const (
	SpanUtilizationSweep   = "utilization_sweep"
	SpanPerfSweep          = "perf_sweep"
	SpanSurvivabilitySweep = "survivability_sweep"
	SpanPoint              = "point"
	SpanFault              = "fault"
)

// LoadPoint is one x-axis position: input period τin and normalized
// load τc/τin.
type LoadPoint struct {
	Index int
	TauIn float64
	Load  float64
}

// Grid returns the twelve input periods between τc and 5τc used by
// every sweep in the paper.
func Grid(tauC float64) []LoadPoint {
	pts := make([]LoadPoint, NumLoadPoints)
	for k := 0; k < NumLoadPoints; k++ {
		tauIn := tauC * (1 + 4*float64(k)/float64(NumLoadPoints-1))
		pts[k] = LoadPoint{Index: k, TauIn: tauIn, Load: tauC / tauIn}
	}
	return pts
}

// Config describes one experiment configuration (a topology at a link
// bandwidth).
type Config struct {
	Name      string
	Topology  *topology.Topology
	Bandwidth float64 // bytes/µs
	// Models is the DVB object-model count (0 = dvb.DefaultModels).
	Models int
	// Seed drives AssignPaths restarts.
	Seed int64
	// Invocations/Warmup control the wormhole simulation length
	// (defaults 40/20).
	Invocations int
	Warmup      int
	// Procs bounds the worker goroutines a sweep uses across its twelve
	// load points: 0 selects GOMAXPROCS, 1 forces a serial run. The
	// points are independent and every point keeps its serial seed, so
	// sweep results are identical for every Procs value.
	Procs int
	// VerifyFaults makes SurvivabilitySweep re-verify every repaired
	// schedule end-to-end: cpsim injects the fault mid-run, activates
	// the repaired Ω, and asserts the replay is contention-free.
	VerifyFaults bool
	// StrictRepair makes SurvivabilitySweep abort with the first
	// *schedule.InfeasibleRepairError instead of tallying the fault as
	// unsurvivable — for deployments where graceful degradation is not
	// an acceptable answer.
	StrictRepair bool
	// MaxFaults caps the single-link fault scenarios per load point
	// (0 = every link); the scenarios kept are the first in link order,
	// so a capped sweep is a prefix of the full one.
	MaxFaults int
	// Trace, when non-nil, is the parent span the sweep records under:
	// one "point" child per load point (pre-created serially in index
	// order, so the traced structure is identical for every Procs value)
	// with the per-point solves nested beneath. Series values carry no
	// trace — they stay value-comparable across runs.
	Trace *trace.Span
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Models == 0 {
		out.Models = dvb.DefaultModels
	}
	if out.Invocations == 0 {
		out.Invocations = 40
	}
	if out.Warmup == 0 {
		out.Warmup = 20
	}
	return out
}

// workloadKey identifies one cached workload instantiation. Topologies
// are compared by identity: StandardConfigs shares one topology object
// across bandwidths, and distinct objects must not share path caches'
// assignments anyway.
type workloadKey struct {
	top       *topology.Topology
	bandwidth float64
	models    int
}

// workloads memoizes workload so repeated sweeps of one config stop
// rebuilding the DVB graph, its timing, and the round-robin placement.
// All three are immutable once built, so sharing them across concurrent
// sweeps is safe. The bound holds the eight standard configurations
// twice over.
var workloads = memo.New[workloadKey, schedule.Problem](16)

// workload instantiates (or recalls) the DVB problem for a config, its
// period left at 0.
func workload(cfg Config) (schedule.Problem, error) {
	p, _, err := workloads.Get(workloadKey{cfg.Topology, cfg.Bandwidth, cfg.Models}, func() (schedule.Problem, error) {
		g, err := dvb.New(cfg.Models)
		if err != nil {
			return schedule.Problem{}, err
		}
		tm, err := dvb.Timing(g, cfg.Bandwidth)
		if err != nil {
			return schedule.Problem{}, err
		}
		as, err := alloc.RoundRobin(g, cfg.Topology)
		return schedule.Problem{Graph: g, Timing: tm, Topology: cfg.Topology, Assignment: as}, err
	})
	return p, err
}

// gridSweep is what every sweep starts from: the configuration's
// workload, the twelve load points, and the sweep's span with one
// "point" child per load point — pre-created serially in index order, so
// a traced sweep has the same structure however its workers interleave,
// each recording only into its own point's span.
type gridSweep struct {
	cfg   Config
	base  schedule.Problem // the workload, its period left at 0
	pts   []LoadPoint
	span  *trace.Span
	spans []*trace.Span
}

func newGridSweep(c Config, span string) (*gridSweep, error) {
	cfg := c.withDefaults()
	base, err := workload(cfg)
	if err != nil {
		return nil, err
	}
	sw := &gridSweep{cfg: cfg, base: base, pts: Grid(base.Timing.TauC())}
	sw.span = cfg.Trace.Start(span, trace.String("config", cfg.Name))
	sw.spans = make([]*trace.Span, len(sw.pts))
	for i, lp := range sw.pts {
		sw.spans[i] = sw.span.Start(SpanPoint, trace.Int("index", i), trace.Float64("tau_in", lp.TauIn))
	}
	return sw, nil
}

// end closes the sweep's span and any point span an early error return
// left open.
func (sw *gridSweep) end() {
	for _, sp := range sw.spans {
		sp.End()
	}
	sw.span.End()
}

// problem is the workload placed by as at period tauIn.
func (sw *gridSweep) problem(tauIn float64, as *alloc.Assignment) schedule.Problem {
	p := sw.base
	p.TauIn, p.Assignment = tauIn, as
	return p
}

// solve runs the fault-free pipeline at every load point as one
// schedule.Sweep — through a single Solver, so the path candidates and
// the LSD baseline are built once per sweep — and hands each point's
// Result and span to visit on the sweep's cfg.Procs workers. Every point
// keeps the serial seed and writes its own ordered slot, so what a sweep
// returns is identical for every worker count.
func (sw *gridSweep) solve(ctx context.Context, visit func(i int, res *schedule.Result, sp *trace.Span) error) error {
	solvers := []*schedule.Solver{schedule.NewSolver(sw.base)}
	periods := make([]float64, len(sw.pts))
	for i, lp := range sw.pts {
		periods[i] = lp.TauIn
	}
	opts := schedule.Options{Seed: sw.cfg.Seed, Procs: sw.cfg.Procs}
	err := schedule.Sweep(ctx, solvers, periods, opts, sw.spans, func(sp *schedule.SweepPeriod) error {
		return visit(sp.Index, sp.Best(), sp.Span)
	})
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", sw.cfg.Name, err)
	}
	return nil
}

// Series is one configuration's sweep outcome, whichever sweep made it:
// it writes itself as the text table the paper plots or as CSV for
// external plotting.
type Series interface {
	WriteText(w io.Writer) error
	WriteCSV(w io.Writer) error
}

// UtilizationPoint is one Fig. 5/6 sample: peak utilization under
// LSD-to-MSD routing and after AssignPaths.
type UtilizationPoint struct {
	Load  float64
	LSD   float64
	Final float64
}

// UtilizationSeries is one curve pair of Fig. 5 or 6.
type UtilizationSeries struct {
	Config string
	Points []UtilizationPoint
}

// UtilizationSweep reproduces one panel of Fig. 5/6: the minimum peak
// utilization reached by AssignPaths versus the LSD-to-MSD baseline
// across the twelve load points. ctx cancels the sweep: no new load
// point starts after cancellation and the context error is returned.
func UtilizationSweep(ctx context.Context, c Config) (*UtilizationSeries, error) {
	sw, err := newGridSweep(c, SpanUtilizationSweep)
	if err != nil {
		return nil, err
	}
	defer sw.end()
	points := make([]UtilizationPoint, len(sw.pts))
	err = sw.solve(ctx, func(i int, res *schedule.Result, sp *trace.Span) error {
		sp.End()
		points[i] = UtilizationPoint{Load: sw.pts[i].Load, LSD: res.PeakLSD, Final: res.Peak}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &UtilizationSeries{Config: sw.cfg.Name, Points: points}, nil
}

// PerfPoint is one Fig. 7-10 sample comparing wormhole routing and
// scheduled routing at a load point.
type PerfPoint struct {
	Load  float64
	TauIn float64

	// Wormhole routing measurements.
	WRThroughput metrics.Spike
	WRLatency    metrics.Spike
	WROI         bool
	WRDeadlock   bool

	// Scheduled routing outcome.
	SRFeasible   bool
	SRStage      schedule.Stage
	SRPeak       float64
	SRThroughput metrics.Spike
	SRLatency    metrics.Spike
}

// PerfSeries is one panel of Figs. 7-10.
type PerfSeries struct {
	Config       string
	CriticalPath float64
	Points       []PerfPoint
}

// PerfSweep reproduces one panel of Figs. 7-10: scheduled routing is
// computed at each of the twelve load points and, on the same worker,
// executed next to a wormhole-routing simulation over many invocations
// (spikes mark output inconsistency). ctx cancels the sweep between
// load points.
func PerfSweep(ctx context.Context, c Config) (*PerfSeries, error) {
	sw, err := newGridSweep(c, SpanPerfSweep)
	if err != nil {
		return nil, err
	}
	defer sw.end()
	cfg, g, tm := sw.cfg, sw.base.Graph, sw.base.Timing
	cp, _ := g.CriticalPath(tm)
	points := make([]PerfPoint, len(sw.pts))
	err = sw.solve(ctx, func(i int, sres *schedule.Result, sp *trace.Span) error {
		defer sp.End()
		lp := sw.pts[i]
		at := func(what string, err error) error { return fmt.Errorf("load %.4f: %s: %w", lp.Load, what, err) }
		pt := PerfPoint{
			Load: lp.Load, TauIn: lp.TauIn,
			SRFeasible: sres.Feasible, SRStage: sres.FailStage, SRPeak: sres.Peak,
		}

		wh := sp.Start("wormhole")
		wres, err := wormhole.Simulate(wormhole.Config{
			Graph: g, Timing: tm, Topology: cfg.Topology, Assignment: sw.base.Assignment,
			TauIn: lp.TauIn, Invocations: cfg.Invocations, Warmup: cfg.Warmup,
		})
		if err != nil {
			return at("wormhole", err)
		}
		if wres.Deadlocked {
			pt.WRDeadlock = true
		} else {
			ivs := metrics.Intervals(wres.OutputCompletions)
			pt.WRThroughput, err = metrics.NormalizedThroughput(lp.TauIn, ivs)
			if err != nil {
				return at("WR throughput", err)
			}
			pt.WRLatency, err = metrics.NormalizedLatency(cp, wres.Latencies)
			if err != nil {
				return at("WR latency", err)
			}
			pt.WROI = metrics.OutputInconsistent(lp.TauIn, ivs, 1e-6)
		}
		wh.End()

		if sres.Feasible {
			ex := sp.Start("execute")
			out, err := schedule.CheckOutput(sres.Omega, g, tm, lp.TauIn, cfg.Invocations)
			if err != nil {
				return at("SR execution", err)
			}
			pt.SRThroughput = out.Throughput
			pt.SRLatency, err = metrics.NormalizedLatency(cp, out.Exec.Latencies)
			if err != nil {
				return at("SR latency", err)
			}
			ex.End()
		}
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &PerfSeries{Config: cfg.Name, CriticalPath: cp, Points: points}, nil
}

// StandardConfigs returns the named configuration for each 64-node
// network the paper evaluates.
func StandardConfigs() (map[string]Config, error) {
	cube, err := topology.NewHypercube(6)
	if err != nil {
		return nil, err
	}
	ghc, err := topology.NewGHC(4, 4, 4)
	if err != nil {
		return nil, err
	}
	t88, err := topology.NewTorus(8, 8)
	if err != nil {
		return nil, err
	}
	t444, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		return nil, err
	}
	mk := func(name string, top *topology.Topology, bw float64) Config {
		return Config{Name: name, Topology: top, Bandwidth: bw, Seed: 1}
	}
	return map[string]Config{
		"6cube-b64":     mk("binary 6-cube, B=64 bytes/µs", cube, 64),
		"6cube-b128":    mk("binary 6-cube, B=128 bytes/µs", cube, 128),
		"ghc444-b64":    mk("GHC(4,4,4), B=64 bytes/µs", ghc, 64),
		"ghc444-b128":   mk("GHC(4,4,4), B=128 bytes/µs", ghc, 128),
		"torus88-b64":   mk("8x8 torus, B=64 bytes/µs", t88, 64),
		"torus88-b128":  mk("8x8 torus, B=128 bytes/µs", t88, 128),
		"torus444-b64":  mk("4x4x4 torus, B=64 bytes/µs", t444, 64),
		"torus444-b128": mk("4x4x4 torus, B=128 bytes/µs", t444, 128),
	}, nil
}

// Figure identifies the configurations behind each paper figure.
func Figure(id int) ([]string, bool) {
	figs := map[int][]string{
		5:  {"6cube-b64", "ghc444-b64"},
		6:  {"torus88-b64", "torus444-b64"},
		7:  {"6cube-b64", "6cube-b128"},
		8:  {"ghc444-b64", "ghc444-b128"},
		9:  {"torus88-b128"},
		10: {"torus444-b128"},
	}
	keys, ok := figs[id]
	return keys, ok
}

// IsUtilizationFigure reports whether the figure plots utilization
// (Figs. 5/6) rather than throughput/latency (Figs. 7-10).
func IsUtilizationFigure(id int) bool { return id == 5 || id == 6 }

// WriteText renders a Fig. 5/6 panel as the text table the paper plots.
func (s *UtilizationSeries) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", s.Config); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %-12s %-12s\n", "load", "U(LSD-MSD)", "U(final)"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%-10.4f %-12.4f %-12.4f\n", p.Load, p.LSD, p.Final); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders a Fig. 7-10 panel: one row per load point with the
// wormhole spike triples (min/mid/max) and the scheduled-routing
// outcome.
func (s *PerfSeries) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s (critical path %.1f µs)\n", s.Config, s.CriticalPath); err != nil {
		return err
	}
	header := fmt.Sprintf("%-8s %-24s %-24s %-4s | %-10s %-8s %-8s",
		"load", "WR thr min/mid/max", "WR lat min/mid/max", "OI", "SR", "SR thr", "SR lat")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, p := range s.Points {
		var wrThr, wrLat, oi string
		if p.WRDeadlock {
			wrThr, wrLat, oi = "deadlock", "deadlock", "-"
		} else {
			wrThr = p.WRThroughput.String()
			wrLat = p.WRLatency.String()
			oi = map[bool]string{true: "yes", false: "no"}[p.WROI]
		}
		sr := "feasible"
		srThr, srLat := "-", "-"
		if !p.SRFeasible {
			sr = failTag(p.SRStage)
		} else {
			srThr = fmt.Sprintf("%.4g", p.SRThroughput.Mid)
			srLat = fmt.Sprintf("%.4g", p.SRLatency.Mid)
		}
		if _, err := fmt.Fprintf(w, "%-8.4f %-24s %-24s %-4s | %-10s %-8s %-8s\n",
			p.Load, wrThr, wrLat, oi, sr, srThr, srLat); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders a Fig. 5/6 panel as CSV for external plotting.
func (s *UtilizationSeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "config,load,u_lsd,u_final\n"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%q,%.6f,%.6f,%.6f\n", s.Config, p.Load, p.LSD, p.Final); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders a Fig. 7-10 panel as CSV: one row per load point
// with the wormhole spikes and the scheduled-routing outcome.
func (s *PerfSeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "config,load,wr_thr_min,wr_thr_mid,wr_thr_max,wr_lat_min,wr_lat_mid,wr_lat_max,wr_oi,wr_deadlock,sr_stage,sr_peak,sr_thr,sr_lat\n"); err != nil {
		return err
	}
	for _, p := range s.Points {
		srThr, srLat := math.NaN(), math.NaN()
		if p.SRFeasible {
			srThr, srLat = p.SRThroughput.Mid, p.SRLatency.Mid
		}
		if _, err := fmt.Fprintf(w, "%q,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%t,%t,%q,%.6f,%.6f,%.6f\n",
			s.Config, p.Load,
			p.WRThroughput.Min, p.WRThroughput.Mid, p.WRThroughput.Max,
			p.WRLatency.Min, p.WRLatency.Mid, p.WRLatency.Max,
			p.WROI, p.WRDeadlock, p.SRStage.String(), p.SRPeak, srThr, srLat); err != nil {
			return err
		}
	}
	return nil
}

func failTag(s schedule.Stage) string {
	switch s {
	case schedule.StageUtilization:
		return "U>1"
	case schedule.StageAllocation:
		return "alloc-fail"
	case schedule.StageIntervalSchedule:
		return "sched-fail"
	default:
		return strings.ReplaceAll(s.String(), " ", "-")
	}
}
