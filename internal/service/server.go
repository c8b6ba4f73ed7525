// Package service implements srschedd, the long-running scheduling
// service: an HTTP JSON API over the scheduled-routing pipeline with a
// solver cache (problem structures survive across requests, so repeated
// τin queries skip every τin-independent derivation), request
// coalescing (identical concurrent solves execute once), a bounded
// worker pool with an admission queue, per-request deadlines, and
// graceful draining shutdown.
//
// Endpoints:
//
//	POST /v1/schedule        schedroute.ScheduleRequest      → schedroute.ScheduleResult
//	POST /v1/schedule:batch  schedroute.BatchScheduleRequest → schedroute.BatchScheduleResult (per-item errors)
//	POST /v1/repair          schedroute.RepairRequest        → schedroute.RepairResult (422 on infeasible repair)
//	POST /v1/admit           schedroute.AdmitRequest         → schedroute.AdmitResult (422 admission_rejected, report attached)
//	POST /v1/explore         schedroute.ExploreRequest       → schedroute.ExploreResult (grid or Pareto mode)
//	POST /v1/watch     schedroute.WatchRequest    → SSE stream of schedroute.WatchFrame
//	GET  /v1/watch/{id}            resume a watch stream (Last-Event-ID)
//	POST /v1/watch/{id}/events     schedroute.WatchEvent → schedroute.WatchEventAck
//	DELETE /v1/watch/{id}          close a subscription (terminal closing frame)
//	GET  /v1/version   schedroute.VersionInfo (schema + module + Go versions)
//	GET  /healthz      liveness + drain state
//	GET  /metrics      Prometheus text metrics (incl. per-stage latency histograms)
//
// /v1/schedule, /v1/repair and /v1/explore accept ?debug=trace, which attaches the
// request's span tree (queue wait, structure-cache lookup, and the full
// solve/repair pipeline) to the response as a schema-versioned "trace"
// field without changing any other byte of the body.
//
// Error bodies are schedroute.ErrorResponse; the HTTP status comes from
// the errkind classification table, the same table the CLIs derive
// their exit codes from.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// Span names the service records under a ?debug=trace request root.
const (
	SpanRequest   = "request"
	SpanQueueWait = "queue_wait"
	SpanStructure = "structure"
	SpanFlight    = "flight"
)

// Config tunes a Server. Zero values select the defaults.
type Config struct {
	// MaxSolvers caps the solver-cache LRU (default 32 structures).
	MaxSolvers int
	// Workers bounds concurrent solves (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it
	// requests are rejected immediately with 503 (default 64).
	QueueDepth int
	// RequestTimeout is the per-request solve deadline (default 60s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body size (default 8 MiB), so an
	// oversized tfg_inline payload is cut off at the reader instead of
	// being buffered into memory.
	MaxBodyBytes int64
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger

	// Peers is the full fleet membership as base URLs, including this
	// replica's own SelfURL. Non-empty enables shard routing: every
	// StructureKey gets one owning replica by rendezvous hashing.
	Peers []string
	// SelfURL is this replica's own entry in Peers.
	SelfURL string
	// ShardPolicy says what to do with a request whose structure another
	// replica owns: "proxy" (default) forwards it to the owner; "serve"
	// handles it locally and records a shard-local miss.
	ShardPolicy string

	// MaxWatchSubs caps concurrent /v1/watch subscriptions (default 64).
	MaxWatchSubs int
	// WatchEventQueue bounds pending events per subscription; a full
	// queue rejects new events with 503 instead of ever blocking
	// (default 16).
	WatchEventQueue int
	// WatchRing bounds the per-subscription frame replay ring backing
	// Last-Event-ID resume; consumers that fall off its tail are
	// coalesced to the latest frame (default 64).
	WatchRing int
	// WatchHeartbeat is the idle-stream keepalive interval (default 15s).
	WatchHeartbeat time.Duration
	// WatchIdleTimeout reaps subscriptions with no attached consumer and
	// no event activity (default 2m).
	WatchIdleTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSolvers == 0 {
		c.MaxSolvers = 32
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.ShardPolicy == "" {
		c.ShardPolicy = shardPolicyProxy
	}
	if c.MaxWatchSubs == 0 {
		c.MaxWatchSubs = 64
	}
	if c.WatchEventQueue == 0 {
		c.WatchEventQueue = 16
	}
	if c.WatchRing == 0 {
		c.WatchRing = 64
	}
	if c.WatchHeartbeat == 0 {
		c.WatchHeartbeat = 15 * time.Second
	}
	if c.WatchIdleTimeout == 0 {
		c.WatchIdleTimeout = 2 * time.Minute
	}
	return c
}

// Server is the srschedd request processor. Create with New, expose
// via Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	log     *slog.Logger
	cache   *solverCache
	flights *flightGroup
	metrics *Metrics
	watches *watchRegistry
	tenants *tenantRegistry
	ring    *shardRing   // nil unless Peers set
	httpc   *http.Client // peer proxying

	sem      chan struct{} // worker slots
	stop     chan struct{} // closed when draining begins
	inflight chan struct{} // tokens held by admitted requests (capacity = workers+queue)

	// beforeSolve, when set, runs inside the flight leader right before
	// the solver executes — the hook deterministic concurrency tests use
	// to hold a solve open while duplicates pile up behind it.
	beforeSolve func(flightKey string)
	// beforeWatchEvent, when set, runs inside a watch subscription's
	// state machine at the top of each event — the hook panic-isolation
	// tests use to crash one subscription on demand.
	beforeWatchEvent func(subID string, ev schedroute.WatchEvent)
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		cache:    newSolverCache(cfg.MaxSolvers),
		flights:  newFlightGroup(),
		metrics:  newMetrics(),
		watches:  newWatchRegistry(),
		tenants:  newTenantRegistry(),
		httpc:    &http.Client{},
		sem:      make(chan struct{}, cfg.Workers),
		stop:     make(chan struct{}),
		inflight: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
	}
	if len(cfg.Peers) > 0 {
		s.ring = newShardRing(cfg.Peers, cfg.SelfURL)
	}
	return s
}

// Metrics exposes the server's counters (used by tests and /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

var errDraining = errkind.Mark(errors.New("service: shutting down"), errkind.ErrUnavailable)
var errQueueFull = errkind.Mark(errors.New("service: solve queue full"), errkind.ErrUnavailable)

// admit claims an in-flight token and a worker slot, queueing at most
// QueueDepth requests. Draining, queue overflow, and deadline all
// surface as ErrUnavailable (503); the caller must release() on nil
// error.
func (s *Server) admit(ctx context.Context) error {
	select {
	case <-s.stop:
		return errDraining
	default:
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		return errQueueFull
	}
	s.metrics.queued.Add(1)
	defer s.metrics.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-s.stop:
		<-s.inflight
		return errDraining
	case <-ctx.Done():
		<-s.inflight
		return errkind.Mark(fmt.Errorf("service: queued past deadline: %w", ctx.Err()), errkind.ErrUnavailable)
	}
}

func (s *Server) release() {
	<-s.sem
	<-s.inflight
}

// claimExtraWorkers grabs up to max additional worker slots without
// blocking, so a single admitted request that fans out internally (the
// sweep) stays inside the server-wide Workers bound: its own admission
// slot covers the first lane, and extra lanes exist only while the
// pool has idle capacity. The returned func releases every claimed
// slot.
func (s *Server) claimExtraWorkers(max int) (int, func()) {
	n := 0
	for n < max {
		select {
		case s.sem <- struct{}{}:
			n++
			continue
		default:
		}
		break
	}
	return n, func() {
		for i := 0; i < n; i++ {
			<-s.sem
		}
	}
}

// Shutdown begins draining: new and queued requests are refused with
// 503 while admitted solves run to completion, and every watch
// subscription delivers a terminal closing frame before its state
// machine exits. It returns when every in-flight request and watch
// state machine has finished or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	for _, done := range s.watches.closeAll("server draining") {
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("service: watch drain incomplete: %w", ctx.Err())
		}
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if len(s.inflight) == 0 && len(s.sem) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("service: drain incomplete: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// Handler returns the HTTP routing for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// The method filter lives in the mux patterns (a mismatch is the
	// mux's own 405 with an Allow header). Solve endpoints run under the
	// per-request deadline; watch streams are long-lived by design and
	// must outlive RequestTimeout.
	mux.Handle("POST /v1/schedule", s.instrument("schedule", true, s.handleSchedule))
	mux.Handle("POST /v1/schedule:batch", s.instrument("schedule_batch", true, s.handleBatch))
	mux.Handle("POST /v1/repair", s.instrument("repair", true, s.handleRepair))
	mux.Handle("POST /v1/admit", s.instrument("admit", true, s.handleAdmit))
	mux.Handle("POST /v1/explore", s.instrument("explore", true, s.handleExplore))
	mux.Handle("POST /v1/watch", s.instrument("watch", false, s.handleWatchCreate))
	mux.Handle("GET /v1/watch/{id}", s.instrument("watch_attach", false, s.handleWatchAttach))
	mux.Handle("POST /v1/watch/{id}/events", s.instrument("watch_event", false, s.handleWatchEvent))
	mux.Handle("DELETE /v1/watch/{id}", s.instrument("watch_delete", false, s.handleWatchDelete))
	mux.HandleFunc("/v1/version", s.handleVersion)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// statusWriter records the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the watch endpoints can
// stream SSE frames through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an endpoint with the request-body cap, request
// logging and latency/status metrics, and — when deadline is set — the
// per-request solve deadline.
func (s *Server) instrument(name string, deadline bool, fn func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		if deadline {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		fn(sw, r)
		dur := time.Since(start)
		s.metrics.observeRequest(name, sw.code, dur)
		s.log.Info("request",
			"endpoint", name,
			"method", r.Method,
			"status", sw.code,
			"dur_ms", float64(dur.Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	select {
	case <-s.stop:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
	default:
		fmt.Fprintln(w, `{"status":"ok"}`)
	}
}

// handleVersion reports which schema this daemon speaks, so clients can
// probe compatibility without sending a bad request.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, schedroute.Version())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteText(w, s.cache)
}

// decode parses a strict JSON request body. The body reader is already
// capped by MaxBytesReader, so an oversized payload surfaces here as a
// bad_input rejection instead of an unbounded buffer.
func decode(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errkind.Mark(fmt.Errorf("decode request: body exceeds %d bytes", mbe.Limit), errkind.ErrBadInput)
		}
		return errkind.Mark(fmt.Errorf("decode request: %w", err), errkind.ErrBadInput)
	}
	return nil
}

// writeJSON emits a 200 response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do but note it in the connection.
		return
	}
}

// writeError maps err through the errkind table into a status code and
// an ErrorResponse body. A non-nil rep rides along (the repair ladder's
// report on a 422).
func (s *Server) writeError(w http.ResponseWriter, err error, rep *schedroute.RepairResult) {
	s.writeErrorBody(w, err, rep, nil)
}

// writeErrorBody is the single exit for every non-2xx response: the
// {error, kind, detail} envelope is derived from the errkind table (so
// top-level errors, batch items and watch frames cannot drift), plus
// whichever structured report explains a 422.
func (s *Server) writeErrorBody(w http.ResponseWriter, err error, rep *schedroute.RepairResult, adm *schedroute.AdmitResult) {
	// A solve cut short by the per-request deadline or a dropped client
	// is a capacity condition, not a server bug: report 503, not 500.
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		err = errkind.Mark(err, errkind.ErrUnavailable)
	}
	status := errkind.HTTPStatus(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := schedroute.ErrorResponse{
		SchemaVersion: schedroute.SchemaVersion,
		ErrorEnvelope: schedroute.NewErrorEnvelope(err),
		Repair:        rep,
		Admit:         adm,
	}
	json.NewEncoder(w).Encode(body)
}

// solved is the shared outcome of one coalesced solve. tauIn is the
// effective invocation period of THIS request — the cached Built's
// TauIn belongs to whichever request first created the structure entry
// and must not leak into responses or repairs.
type solved struct {
	built *schedroute.Built
	tauIn float64
	res   *schedule.Result
}

// flightKey identifies a coalescible solve: structure key + period +
// the solve options with the stats flags cleared (the service always
// collects stage times internally; whether the client wants them on the
// wire doesn't change the computation — see TestSolverStats). Traced
// and untraced requests never share a flight: only a traced flight
// runs with a recording span, so coalescing across the boundary would
// either lose a requested trace or record one nobody asked for.
func flightKey(p schedroute.Problem, tauIn float64, o schedroute.Options, traced bool) string {
	o.CollectStats = false
	o.Stats = false
	ob, _ := json.Marshal(o)
	return fmt.Sprintf("%s|tauin=%g|traced=%t|opts=%s", p.StructureKey(), tauIn, traced, ob)
}

// solve resolves the problem through the solver cache and runs one
// pipeline solve, coalescing identical concurrent requests. The
// returned Result is shared between coalesced callers and must be
// treated as read-only. reqSpan, when non-nil, receives a structure
// span (with the solver-cache outcome) and adopts the flight's solve
// tree; coalesced joiners adopt the same tree the leader recorded.
func (s *Server) solve(ctx context.Context, p schedroute.Problem, o schedroute.Options, reqSpan *trace.Span) (*solved, error) {
	opts, err := o.ToSchedule()
	if err != nil {
		return nil, err
	}
	opts.CollectStats = true

	cs := reqSpan.Start(SpanStructure)
	ent, hit := s.cache.getOrCreate(p.StructureKey(), func() (*schedroute.Built, error) {
		return schedroute.NewProblem(p)
	})
	cs.SetAttrs(trace.Bool("cache_hit", hit))
	cs.End()
	if ent.err != nil {
		return nil, ent.err
	}
	tauIn := p.TauIn
	if tauIn == 0 {
		tauIn = ent.built.Timing.TauC()
	}

	traced := reqSpan.Enabled()
	key := flightKey(p, tauIn, o, traced)
	v, err, shared := s.flights.Do(ctx, key, func(fctx context.Context) (any, error) {
		// fctx is detached from every individual request, so the solve
		// gets its own deadline: joiners must not lose a shared result
		// because the flight leader's client vanished or timed out first.
		fctx, cancel := context.WithTimeout(fctx, s.cfg.RequestTimeout)
		defer cancel()
		if s.beforeSolve != nil {
			s.beforeSolve(key)
		}
		fopts := opts
		if traced {
			// The leader records into a throwaway root owned by the
			// flight, not into any single request's span: the solve tree
			// lands on res.Trace, shared read-only by every joiner and
			// adopted under each request's own root below.
			fopts.Trace = trace.Start(SpanFlight)
		}
		res, err := ent.solver.Solve(fctx, tauIn, fopts)
		if err != nil {
			return nil, err
		}
		s.metrics.observeSolve(res.Stats)
		return &solved{built: ent.built, tauIn: tauIn, res: res}, nil
	})
	if shared {
		s.metrics.observeCoalesced()
	}
	if err != nil {
		return nil, err
	}
	sv := v.(*solved)
	if traced {
		reqSpan.SetAttrs(trace.Bool("coalesced", shared))
		reqSpan.Adopt(sv.res.Trace)
	}
	return sv, nil
}

// requestSpan starts the per-request trace root when the client asked
// for ?debug=trace; every other request gets the nil no-op tracer, so
// the untraced path stays exactly the pre-trace code path.
func requestSpan(r *http.Request, endpoint string) *trace.Span {
	if r.URL.Query().Get("debug") != "trace" {
		return nil
	}
	return trace.Start(SpanRequest, trace.String("endpoint", endpoint))
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req schedroute.ScheduleRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err, nil)
		return
	}
	s.metrics.observeTenantRequest("schedule", schedroute.TenantOrDefault(req.Tenant).ID)
	// An admitted tenant is answered from its admitted standing — the
	// schedule it was granted at admission (repaired if the fabric has
	// degraded) — never a fresh solve.
	if ent, err := s.tenantFor(req.Tenant, req.Problem); err != nil {
		s.writeError(w, err, nil)
		return
	} else if ent != nil {
		out, err := s.tenantSchedule(ent, req.IncludeOmega, req.Options.WantStats())
		if err != nil {
			s.writeError(w, err, nil)
			return
		}
		writeJSON(w, out)
		return
	}
	if owner := s.shardOwner(r, req.Problem.StructureKey()); owner != "" {
		s.proxy(w, r, owner, req)
		return
	}
	root := requestSpan(r, "schedule")
	qs := root.Start(SpanQueueWait)
	if err := s.admit(r.Context()); err != nil {
		s.writeError(w, err, nil)
		return
	}
	qs.End()
	defer s.release()
	sv, err := s.solve(r.Context(), req.Problem, req.Options, root)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	out, err := schedroute.NewScheduleResult(sv.built, sv.res, sv.tauIn, req.IncludeOmega, req.Options.WantStats())
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	root.End()
	out.Trace = schedroute.NewTraceEnvelope(root.Tree())
	writeJSON(w, out)
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req schedroute.RepairRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err, nil)
		return
	}
	if req.Fault.Empty() {
		s.writeError(w, errkind.Mark(errors.New("repair: fault must name at least one failed link or node"), errkind.ErrBadInput), nil)
		return
	}
	s.metrics.observeTenantRequest("repair", schedroute.TenantOrDefault(req.Tenant).ID)
	// An admitted tenant repairs from its admitted base inside its
	// admission-time link shares, through its own memoized session — a
	// stateless query that never moves the fabric or the other tenants.
	if ent, err := s.tenantFor(req.Tenant, req.Problem); err != nil {
		s.writeError(w, err, nil)
		return
	} else if ent != nil {
		s.tenantRepair(w, r, ent, req)
		return
	}
	if owner := s.shardOwner(r, req.Problem.StructureKey()); owner != "" {
		s.proxy(w, r, owner, req)
		return
	}
	root := requestSpan(r, "repair")
	qs := root.Start(SpanQueueWait)
	if err := s.admit(r.Context()); err != nil {
		s.writeError(w, err, nil)
		return
	}
	qs.End()
	defer s.release()
	sv, err := s.solve(r.Context(), req.Problem, req.Options, root)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	if !sv.res.Feasible {
		s.writeError(w, errkind.Mark(
			fmt.Errorf("repair: base problem infeasible at stage %s; repair needs a feasible base schedule", sv.res.FailStage),
			errkind.ErrBadInput), nil)
		return
	}
	fs, err := req.Fault.Build(sv.built.Topology)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	opts, err := req.Options.ToSchedule()
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	// The repair ladder records directly under this request's root: a
	// repair is never coalesced, so there is no shared flight to adopt.
	opts.Trace = root
	rep, err := schedule.Repair(r.Context(), sv.built.ScheduleProblemAt(sv.tauIn), opts, sv.res, fs)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	if rerr := rep.Err(); rerr != nil {
		// The degradation ladder ran dry: an unprocessable problem, not a
		// malformed request — 422, with the full ladder report attached.
		wire, werr := schedroute.NewRepairResult(rep, false)
		if werr != nil {
			s.writeError(w, werr, nil)
			return
		}
		s.writeError(w, rerr, wire)
		return
	}
	out, err := schedroute.NewRepairResult(rep, req.IncludeOmega)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	root.End()
	out.Trace = schedroute.NewTraceEnvelope(root.Tree())
	writeJSON(w, out)
}
