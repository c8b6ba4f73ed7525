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
//	POST   /v1/schedule           schedroute.ScheduleRequest      → schedroute.ScheduleResult
//	POST   /v1/schedule:batch     schedroute.BatchScheduleRequest → schedroute.BatchScheduleResult (per-item errors)
//	POST   /v1/repair             schedroute.RepairRequest        → schedroute.RepairResult (422 infeasible_repair, report attached)
//	POST   /v1/admit              schedroute.AdmitRequest         → schedroute.AdmitResult (422 admission_rejected, report attached)
//	POST   /v1/explore            schedroute.ExploreRequest       → schedroute.ExploreResult (grid or Pareto mode)
//	POST   /v1/watch              schedroute.WatchRequest         → SSE stream of schedroute.WatchFrame
//	GET    /v1/watch/{id}         resume a watch stream (Last-Event-ID)
//	POST   /v1/watch/{id}/events  schedroute.WatchEvent           → schedroute.WatchEventAck
//	DELETE /v1/watch/{id}         close a subscription (terminal closing frame)
//	GET    /v1/version            schedroute.VersionInfo (schema + module + Go versions)
//	GET    /healthz               liveness + drain state
//	GET    /metrics               Prometheus text metrics; every series is a row of metricTable (metrics.go), listed in README "Metrics"
//
// Every route but the last three runs on the one request path of
// endpoint.go, which accepts or mints an X-Request-Id and echoes it.
// /v1/schedule, /v1/repair, /v1/admit and /v1/explore accept
// ?debug=trace, which attaches the request's span tree (queue wait,
// structure-cache lookup, and the full solve/repair pipeline) to the
// response as a schema-versioned "trace" field without changing any
// other byte of the body.
//
// Error bodies are schedroute.ErrorResponse; the HTTP status comes from
// the errkind classification table, the same table the CLIs derive
// their exit codes from.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
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

	// The registry bounds tests shrink, filled from the constants in
	// watch.go and tenant.go.
	maxWatchSubs, watchEventQueue, watchRing, maxTenants int

	// A minted request id is idPrefix — random per process, so replicas
	// cannot collide — plus a counter: no crypto/rand call per request.
	idPrefix string
	idSeq    atomic.Uint64

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
	m := newMetrics()
	return &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		cache:    newSolverCache(cfg.MaxSolvers, m),
		flights:  newFlightGroup(),
		metrics:  m,
		watches:  newWatchRegistry(),
		tenants:  newTenantRegistry(),
		idPrefix: randomHex(4) + "-",
		sem:      make(chan struct{}, cfg.Workers),
		stop:     make(chan struct{}),
		inflight: make(chan struct{}, cfg.Workers+cfg.QueueDepth),

		maxWatchSubs:    maxWatchSubs,
		watchEventQueue: watchEventQueue,
		watchRing:       watchRing,
		maxTenants:      maxTenants,
	}
}

var errDraining = unavailable("service: shutting down")
var errQueueFull = unavailable("service: solve queue full")

// unavailable builds the load-shedding error (503) the request path
// itself raises; the client's fault (400) is errkind.BadInput.
func unavailable(format string, args ...any) error {
	return errkind.Mark(fmt.Errorf(format, args...), errkind.ErrUnavailable)
}

// queue claims an in-flight token and a worker slot under a queue_wait
// span, queueing at most QueueDepth requests. Draining, queue overflow,
// and deadline all surface as ErrUnavailable (503); the caller must
// Server.release on nil error.
func (c *call) queue() error {
	s := c.s
	qs := c.root.Start(SpanQueueWait)
	defer qs.End()
	start := time.Now()
	defer func() { c.queueWait = time.Since(start) }()
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
	s.metrics.add(mQueueDepth, 1)
	defer s.metrics.add(mQueueDepth, -1)
	err := s.acquire(c.r.Context())
	if err != nil {
		<-s.inflight
	}
	return err
}

// acquire blocks for a worker slot until the drain begins or ctx is
// done. A request holds an in-flight token while it waits (queue); a
// watch event's repair waits on its subscription's context and holds
// none. The holder gives the slot back by receiving from s.sem.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-s.stop:
		return errDraining
	case <-ctx.Done():
		return unavailable("service: queued past deadline: %w", ctx.Err())
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
	for _, sub := range s.watches.closeAll("server draining") {
		select {
		case <-sub.done:
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
	mux.Handle("POST /v1/schedule", endpoint(s, "schedule", true, s.schedule))
	mux.Handle("POST /v1/schedule:batch", endpoint(s, "schedule_batch", true, s.batch))
	mux.Handle("POST /v1/repair", endpoint(s, "repair", true, s.repair))
	mux.Handle("POST /v1/admit", endpoint(s, "admit", true, s.admit))
	mux.Handle("POST /v1/explore", endpoint(s, "explore", true, s.explore))
	mux.Handle("POST /v1/watch", endpoint(s, "watch", false, s.watchCreate))
	mux.Handle("GET /v1/watch/{id}", endpoint(s, "watch_attach", false, s.watchAttach))
	mux.Handle("POST /v1/watch/{id}/events", endpoint(s, "watch_event", false, s.watchEvent))
	mux.Handle("DELETE /v1/watch/{id}", endpoint(s, "watch_delete", false, s.watchDelete))
	mux.HandleFunc("/v1/version", s.handleVersion)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
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
	s.metrics.WriteText(w)
}

// schedule is POST /v1/schedule: scheduleOne, queued when it solves.
func (s *Server) schedule(c *call, req schedroute.ScheduleRequest) (*schedroute.ScheduleResult, error) {
	ten, err := c.tenant(req.Tenant, req.Problem)
	if err != nil {
		return nil, err
	}
	if ten == nil {
		if err := c.queue(); err != nil {
			return nil, err
		}
		defer s.release()
	}
	return s.scheduleOne(c, ten, req)
}

// scheduleOne answers one schedule request — all of /v1/schedule, or
// one distinct batch item — whose tenant scope is resolved. An admitted
// tenant gets its standing — the schedule granted at admission — never a
// solve; anyone else one solve, on a worker slot the caller holds.
func (s *Server) scheduleOne(c *call, ten *tenantEntry, req schedroute.ScheduleRequest) (*schedroute.ScheduleResult, error) {
	if ten != nil {
		return schedroute.NewScheduleResult(ten.built, ten.report.Result, ten.report.TauOut, req.IncludeOmega, req.Options.WantStats())
	}
	sv, err := c.solve(req.Problem, req.Options)
	if err != nil {
		return nil, err
	}
	return schedroute.NewScheduleResult(sv.built, sv.res, sv.tauIn, req.IncludeOmega, req.Options.WantStats())
}

// repair is POST /v1/repair. An admitted tenant repairs from its
// admitted base inside its admission-time link shares, through its own
// memoized session — a stateless query that never moves the fabric or
// the other tenants; anyone else repairs from a base solve.
func (s *Server) repair(c *call, req schedroute.RepairRequest) (*schedroute.RepairResult, error) {
	if req.Fault.Empty() {
		return nil, errkind.BadInput("repair: fault must name at least one failed link or node")
	}
	ten, err := c.tenant(req.Tenant, req.Problem)
	if err != nil {
		return nil, err
	}
	if err := c.queue(); err != nil {
		return nil, err
	}
	defer s.release()
	if ten != nil {
		fs, err := req.Fault.Build(ten.built.Topology)
		if err != nil {
			return nil, err
		}
		tr, err := s.tenants.fab.Load().set.RepairTenant(c.r.Context(), ten.tenant.ID, fs, c.root)
		if err != nil {
			return nil, err
		}
		return repairResponse(tr.Report, req.IncludeOmega)
	}
	sv, err := c.solve(req.Problem, req.Options)
	if err != nil {
		return nil, err
	}
	if !sv.res.Feasible {
		return nil, errkind.BadInput("repair: base problem infeasible at stage %s; repair needs a feasible base schedule", sv.res.FailStage)
	}
	fs, err := req.Fault.Build(sv.built.Topology)
	if err != nil {
		return nil, err
	}
	opts, err := req.Options.ToSchedule()
	if err != nil {
		return nil, err
	}
	// The repair ladder records directly under this request's root: a
	// repair is never coalesced, so there is no shared flight to adopt.
	opts.Trace = c.root
	rep, err := schedule.Repair(c.r.Context(), sv.built.ScheduleProblemAt(sv.tauIn), opts, sv.res, fs)
	if err != nil {
		return nil, err
	}
	return repairResponse(rep, req.IncludeOmega)
}

// repairResponse turns a ladder report into the answer of /v1/repair
// and of a watch frame. A ladder that ran dry is an unprocessable
// problem, not a malformed request: 422, the full report on the error.
func repairResponse(rep *schedule.RepairReport, includeOmega bool) (*schedroute.RepairResult, error) {
	rerr := rep.Err()
	wire, err := schedroute.NewRepairResult(rep, includeOmega && rerr == nil)
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, &reportError{err: rerr, repair: wire}
	}
	return wire, nil
}
