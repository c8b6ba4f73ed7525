package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"time"

	"schedroute/internal/alloc"
	"schedroute/internal/schedule"
	"schedroute/internal/service"
	"schedroute/internal/topology"
	api "schedroute/pkg/schedroute"
)

// outcome is what one op returned, reduced to what the checks need.
type outcome struct {
	err      error
	feasible bool
	// peak is the entry's quality figure (see Expected.Peak).
	peak   float64
	detail string
	// omegas are the schedules the op emitted (one for a solve, one per
	// front point for an exploration); nil for infeasible verdicts.
	omegas []*schedule.Omega
	// body is a post op's response body; it is all a post op fills in
	// beside err, and verdict decodes it once the clock has stopped.
	body []byte
}

// op is one runnable pool entry.
type op struct {
	entry *Entry
	// built is the entry's structure; tauIn its resolved period.
	built *api.Built
	tauIn float64
	// run executes the op once and returns what it produced with the
	// latency its caller saw: the call itself for a library op, request
	// sent to body fully read for a post op. ctx carries the per-op
	// deadline; library solves only honour it between stages.
	run func(ctx context.Context) (outcome, time.Duration)
}

// system is one workload brought up and ready to measure.
type system struct {
	w     *Workload
	ops   []op
	plan  []int
	opts  schedule.Options
	close func()
	// srv and url are set for service workloads.
	srv *service.Server
	url string
}

// explore is the fixed exploration shape of the ladders workload (the
// BenchmarkExploreSixCube shape).
func exploreSpec() schedule.ExploreSpec {
	return schedule.ExploreSpec{GridPoints: 2, AnnealSeeds: []int64{2}, AnnealSteps: 2000}
}

// setup builds every pool entry's inputs and brings the system under
// test up: the in-process srschedd on a loopback listener for service
// workloads, the standing base schedules for repair entries. It does
// not run any op.
func setup(w *Workload) (*system, error) {
	opts, err := w.Options.ToSchedule()
	if err != nil {
		return nil, err
	}
	sys := &system{w: w, plan: w.roundPlan(), opts: opts, close: func() {}}
	builtByKey := map[string]*api.Built{}
	baseByKey := map[string]*schedule.Result{}
	for i := range w.Entries {
		e := &w.Entries[i]
		// One build per structure; τin is supplied per entry.
		skey := e.Problem.StructureKey()
		b := builtByKey[skey]
		if b == nil {
			if b, err = api.NewProblem(e.Problem); err != nil {
				return nil, fmt.Errorf("entry %s: %w", e.ID, err)
			}
			builtByKey[skey] = b
		}
		tauIn := e.Problem.TauIn
		if tauIn == 0 {
			tauIn = b.Timing.TauC()
		}
		p := b.ScheduleProblemAt(tauIn)
		o := op{entry: e, built: b, tauIn: tauIn}
		switch e.Kind {
		case kindPost:
			// startService below gives the entry its client op.
		case kindCompute:
			o.run = func(context.Context) (outcome, time.Duration) {
				coldStart()
				t0 := time.Now()
				res, err := schedule.Compute(p, opts)
				d := time.Since(t0)
				return solveOutcome(res, err), d
			}
		case kindRepair:
			key := fmt.Sprintf("%s|%g", skey, tauIn)
			base := baseByKey[key]
			if base == nil {
				if base, err = schedule.Compute(p, opts); err != nil {
					return nil, fmt.Errorf("entry %s: base solve: %w", e.ID, err)
				}
				if !base.Feasible {
					return nil, fmt.Errorf("entry %s: base schedule infeasible at stage %s", e.ID, base.FailStage)
				}
				baseByKey[key] = base
			}
			fs, err := api.FaultSpec{Links: []string{e.FaultLink}}.Build(b.Topology)
			if err != nil {
				return nil, fmt.Errorf("entry %s: %w", e.ID, err)
			}
			o.run = func(ctx context.Context) (outcome, time.Duration) {
				t0 := time.Now()
				rep, err := schedule.Repair(ctx, p, opts, base, fs)
				d := time.Since(t0)
				return repairOutcome(rep, err), d
			}
		case kindAdmit:
			vic, bys := admitPair(b, p)
			top := b.Topology
			o.run = func(ctx context.Context) (outcome, time.Duration) {
				t0 := time.Now()
				rep, err := admitBoth(ctx, top, bys, vic, opts)
				d := time.Since(t0)
				return admitOutcome(rep, err), d
			}
		case kindExplore:
			o.run = func(ctx context.Context) (outcome, time.Duration) {
				t0 := time.Now()
				pf, err := schedule.Explore(ctx, p, opts, exploreSpec())
				d := time.Since(t0)
				return exploreOutcome(pf, err), d
			}
		default:
			return nil, fmt.Errorf("entry %s: unknown kind %q", e.ID, e.Kind)
		}
		sys.ops = append(sys.ops, o)
	}
	if w.Entries[0].Kind == kindPost {
		if err := sys.startService(); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// coldStart makes the next compile a cold one, as a designer's srsched
// run is: the solver's pooled scratch arenas, which an op would
// otherwise inherit from whatever input the seed put before it (and
// regrow or not, by its dimensions), are dropped. Two collections,
// because a sync.Pool keeps what one collection dropped for one more.
func coldStart() {
	runtime.GC()
	runtime.GC()
}

// admitPair derives the BenchmarkTenantAdmitSixCube shape from one
// built problem: the victim runs the entry's problem placed half a
// machine away (an automorphism of every topology in the pool, so the
// two tenants never collide on a direct link), the bystander the same
// application round-robin at the grid's lightest load 5τc.
func admitPair(b *api.Built, p schedule.Problem) (vic, bys schedule.Problem) {
	vic = p
	bys = b.ScheduleProblemAt(5 * b.Timing.TauC())
	n := b.Topology.Nodes()
	shifted := &alloc.Assignment{NodeOf: make([]topology.NodeID, len(b.Assignment.NodeOf))}
	for t, nd := range b.Assignment.NodeOf {
		shifted.NodeOf[t] = topology.NodeID((int(nd) + n/2) % n)
	}
	vic.Assignment = shifted
	return vic, bys
}

// admitBoth is one admit op: a fresh fabric, the bystander, then the
// victim against the shares the bystander reserved. The victim's report
// is the op's result.
func admitBoth(ctx context.Context, top *topology.Topology, bys, vic schedule.Problem, opts schedule.Options) (*schedule.AdmitReport, error) {
	set := schedule.NewTenantSet(top)
	rep, err := set.Admit(ctx, schedule.Tenant{ID: "bystander", Priority: 1, Problem: bys, Options: opts}, nil)
	if err != nil {
		return nil, err
	}
	if !rep.Admitted {
		return nil, fmt.Errorf("bystander rejected on an empty fabric: %s", rep.Reason)
	}
	return set.Admit(ctx, schedule.Tenant{ID: "victim", Priority: 1, Problem: vic, Options: opts}, nil)
}

func solveOutcome(res *schedule.Result, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{feasible: res.Feasible, peak: res.Peak}
	if res.Feasible {
		out.omegas = []*schedule.Omega{res.Omega}
	} else {
		out.detail = res.FailStage.String()
	}
	return out
}

func repairOutcome(rep *schedule.RepairReport, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{feasible: rep.Result != nil, peak: rep.NewPeak, detail: rep.Outcome.String()}
	if rep.Result != nil {
		out.omegas = []*schedule.Omega{rep.Result.Omega}
	}
	return out
}

func admitOutcome(rep *schedule.AdmitReport, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{feasible: rep.Admitted, peak: rep.Peak, detail: rep.Outcome.String()}
	if rep.Result != nil {
		out.omegas = []*schedule.Omega{rep.Result.Omega}
	}
	return out
}

func exploreOutcome(pf *schedule.ParetoFront, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{feasible: len(pf.Points) > 0, peak: pf.MinTauIn,
		detail: fmt.Sprintf("front=%d evaluated=%d", len(pf.Points), pf.Evaluated)}
	for i := range pf.Points {
		out.omegas = append(out.omegas, pf.Points[i].Result.Omega)
	}
	return out
}

// startService brings up srschedd in-process with its default
// configuration (only the request log is discarded) on a real loopback
// listener, and gives every post entry a keep-alive client op.
func (sys *system) startService() error {
	sys.srv = service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: sys.srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed on close below
	}()
	sys.url = "http://" + ln.Addr().String()
	// One connection per client, kept alive across the run.
	tr := &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	hc := &http.Client{Transport: tr}
	sys.close = func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = sys.srv.Shutdown(ctx)
		<-served
	}
	for i := range sys.ops {
		o := &sys.ops[i]
		body, err := json.Marshal(api.ScheduleRequest{Problem: o.entry.Problem, Options: sys.w.Options, IncludeOmega: o.entry.IncludeOmega})
		if err != nil {
			return err
		}
		o.run = func(ctx context.Context) (outcome, time.Duration) {
			t0 := time.Now()
			raw, err := post(ctx, hc, sys.url+"/v1/schedule", body)
			return outcome{err: err, body: raw}, time.Since(t0)
		}
	}
	return nil
}

// post is one client round trip: send the request and read the whole
// response body.
func post(ctx context.Context, hc *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}
