package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"schedroute/internal/errkind"
	"schedroute/internal/schedule"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// requestIDHeader carries the request id: the client's when it has
// requestIDForm (safe to echo and log verbatim), else minted; echoed
// and logged — one id, end to end.
const requestIDHeader = "X-Request-Id"

var requestIDForm = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// unadmittedTenant is the tenant label of a request whose tenant.id the
// registry does not hold when the request ends.
const unadmittedTenant = "unadmitted"

// call is one request on the service's one path (DESIGN §6): created
// by the adapter, driven by the endpoint function through the shared
// steps — tenant, queue, structure, solve, in that order — then
// read by the access log and the metrics: one record, so no drift.
type call struct {
	s    *Server
	r    *http.Request
	id   string      // request id
	root *trace.Span // nil unless ?debug=trace

	key       string        // the problem's StructureKey, computed once (structureKey)
	tenantID  string        // empty on endpoints outside the tenant dimension
	queueWait time.Duration // time queue spent waiting for a worker slot
	kind      string        // errkind name of a non-2xx outcome (writeError)
	cacheHit  bool          // structure found in the solver cache
	coalesced bool          // solve joined an identical in-flight one
	procs     int           // Options.Procs of the solve a call starts: 0, or 1 in a batch's fan-out
}

// endpoint adapts one typed endpoint function to an http.Handler: body
// cap, optional deadline, request id, strict decode, the ?debug=trace
// root and its envelope, the response — JSON, SSE stream, or the one
// error exit — then metrics and the access log.
func endpoint[Req, Resp any](s *Server, name string, deadline bool, fn func(*call, Req) (Resp, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if deadline {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		c := &call{s: s, r: r, id: r.Header.Get(requestIDHeader)}
		if c.id == "" || !requestIDForm.MatchString(c.id) {
			c.id = s.idPrefix + strconv.FormatUint(s.idSeq.Add(1), 10)
		}
		w.Header().Set(requestIDHeader, c.id)
		if r.URL.Query().Get("debug") == "trace" {
			c.root = trace.Start(SpanRequest, trace.String("endpoint", name), trace.String("request_id", c.id))
		}

		var req Req
		var resp Resp
		var err error
		if r.Method == http.MethodPost { // the GET and DELETE routes carry no body
			err = Decode(r, &req)
		}
		if err == nil {
			resp, err = fn(c, req)
		}
		if c.tenantID != "" {
			// A client names any id it likes; only an id the registry holds
			// (or the default) may become a label, or /metrics grows a line
			// per id ever sent.
			label := c.tenantID
			if label != schedroute.DefaultTenantID && s.tenants.lookup(label) == nil {
				label = unadmittedTenant
			}
			s.metrics.add(mTenantRequests, 1, name, label)
		}
		code := http.StatusOK // the adapter is the only writer, so it knows
		if err != nil {
			code = s.writeError(w, c, err)
		} else if st, ok := any(resp).(watchStream); ok {
			st.sub.serveConn(w, r, st.seen)
		} else {
			c.root.End()
			attachTrace(resp, schedroute.NewTraceEnvelope(c.root.Tree()))
			writeJSON(w, resp)
		}

		dur := time.Since(start)
		s.metrics.add(mRequests, 1, name, strconv.Itoa(code))
		s.metrics.sample(mRequestSeconds, dur, name)
		attrs := []slog.Attr{
			slog.String("endpoint", name),
			slog.String("method", r.Method),
			slog.Int("status", code),
			slog.Float64("dur_ms", float64(dur.Microseconds())/1000),
			slog.String("remote", r.RemoteAddr),
			slog.String("request_id", c.id),
			slog.String("tenant", c.tenantID),
			slog.Bool("cache_hit", c.cacheHit),
			slog.Bool("coalesced", c.coalesced),
			slog.Float64("queue_wait_ms", float64(c.queueWait.Microseconds())/1000),
			slog.String("structure", c.key),
		}
		if c.kind != "" {
			attrs = append(attrs, slog.String("kind", c.kind))
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// Decode parses a strict JSON request body: one value, its unknown
// fields rejected, and nothing but whitespace after it; and — the
// adapter having capped the reader — an oversized payload is a
// bad_input rejection instead of an unbounded buffer.
// Exported for the wire package's decode fuzzer.
func Decode(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	decoded := err == nil
	if decoded {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return errkind.BadInput("decode request: body exceeds %d bytes", mbe.Limit)
	}
	if decoded {
		return errkind.BadInput("decode request: bytes after the JSON value")
	}
	return errkind.BadInput("decode request: %w", err)
}

// attachTrace sets the ?debug=trace envelope on the responses that
// carry one (env is nil on an untraced request).
func attachTrace(resp any, env *schedroute.TraceEnvelope) {
	switch v := resp.(type) {
	case *schedroute.ScheduleResult:
		v.Trace = env
	case *schedroute.RepairResult:
		v.Trace = env
	case *schedroute.AdmitResult:
		v.Trace = env
	case *schedroute.ExploreResult:
		v.Trace = env
	}
}

// writeJSON emits a 200 response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// reportError is a rejection that explains itself: the classified error
// that decides the status, plus the repair or admission report of a 422.
type reportError struct {
	err    error
	repair *schedroute.RepairResult
	admit  *schedroute.AdmitResult
}

func (e *reportError) Error() string { return e.err.Error() }
func (e *reportError) Unwrap() error { return e.err }

// writeError is the single exit for every response the endpoint
// function did not produce itself: the {error, kind, detail} envelope
// and status come from the errkind table (so top-level errors, batch
// items and watch frames cannot drift), any report from a reportError.
func (s *Server) writeError(w http.ResponseWriter, c *call, err error) int {
	// A solve cut short by the per-request deadline or a dropped client
	// is a capacity condition, not a server bug: report 503, not 500.
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		err = errkind.Mark(err, errkind.ErrUnavailable)
	}
	body := schedroute.ErrorResponse{
		SchemaVersion: schedroute.SchemaVersion,
		ErrorEnvelope: schedroute.NewErrorEnvelope(err),
	}
	var re *reportError
	if errors.As(err, &re) {
		body.Repair, body.Admit = re.repair, re.admit
	}
	status := errkind.HTTPStatus(err)
	c.kind = body.Kind
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
	return status
}

// structureKey validates the wire problem and computes its StructureKey
// on first use: the tenant check, the cache lookup and the flight key
// all read this one copy, so nothing is looked up under the key of a
// problem that was never checked (a cache hit and an admitted tenant
// never reach NewProblem's own check).
func (c *call) structureKey(p schedroute.Problem) (string, error) {
	if c.key == "" {
		if err := p.Validate(); err != nil {
			return "", err
		}
		c.key = p.StructureKey()
	}
	return c.key, nil
}

// tenant resolves the request's tenant scope: nil — the plain solve
// path — for the default tenant or an ID never admitted, the admitted
// standing otherwise. An admitted tenant asking about a different
// problem is a bad request: its standing is per-problem.
func (c *call) tenant(t *schedroute.Tenant, p schedroute.Problem) (*tenantEntry, error) {
	ten := schedroute.TenantOrDefault(t)
	c.tenantID = ten.ID
	if err := ten.Validate(); err != nil {
		return nil, err
	}
	ent := c.s.tenants.lookup(ten.ID)
	if ent == nil {
		return nil, nil
	}
	key, err := c.structureKey(p)
	if err != nil {
		return nil, err
	}
	if key != ent.structure {
		return nil, errkind.BadInput("tenant %q was admitted with a different problem (admitted %s, requested %s)",
			ten.ID, ent.structure, key)
	}
	return ent, nil
}

// structure resolves the problem through the solver cache — the one
// place a structure is looked up or built; τin 0 means τc.
func (c *call) structure(p schedroute.Problem) (*solverEntry, float64, error) {
	key, err := c.structureKey(p)
	if err != nil {
		return nil, 0, err
	}
	ent, hit, err := c.s.cache.Get(key, func() (*solverEntry, error) {
		return newSolverEntry(schedroute.NewProblem(p))
	})
	c.cacheHit = hit
	if err != nil {
		return nil, 0, err
	}
	tauIn := p.TauIn
	if tauIn == 0 {
		tauIn = ent.built.Timing.TauC()
	}
	return ent, tauIn, nil
}

// solved is the shared outcome of one coalesced solve. tauIn is the
// effective invocation period of THIS request — the cached Built's
// TauIn belongs to whichever request first created the structure entry
// and must not leak into responses or repairs.
type solved struct {
	*solverEntry
	tauIn float64
	res   *schedule.Result
}

// flightKey is the flight key of a solve: the structure key, the
// period, whether the solve is traced and the marshalled options, as
// "<structure>|tauin=<%g>|traced=<bool>|opts=<json>".
func flightKey(structure string, tauIn float64, traced bool, opts []byte) string {
	var buf [256]byte
	b := append(buf[:0], structure...)
	b = append(b, "|tauin="...)
	b = strconv.AppendFloat(b, tauIn, 'g', -1, 64)
	b = append(b, "|traced="...)
	b = strconv.AppendBool(b, traced)
	b = append(b, "|opts="...)
	b = append(b, opts...)
	return string(b)
}

// solve resolves the problem's structure and runs one pipeline solve,
// coalescing identical concurrent requests. The returned Result is
// shared between coalesced callers and must be treated as read-only. A
// traced call records a structure span (with the solver-cache outcome)
// and adopts the flight's solve tree; coalesced joiners adopt the same
// tree the leader recorded.
func (c *call) solve(p schedroute.Problem, o schedroute.Options) (*solved, error) {
	s := c.s
	opts, err := o.ToSchedule()
	if err != nil {
		return nil, err
	}
	opts.CollectStats, opts.Procs = true, c.procs

	cs := c.root.Start(SpanStructure)
	ent, tauIn, err := c.structure(p)
	cs.SetAttrs(trace.Bool("cache_hit", c.cacheHit))
	cs.End()
	if err != nil {
		return nil, err
	}

	// The flight key is the structure, the period and the solve options
	// with the stats flags cleared (the service always collects stage
	// times internally; whether the client wants them on the wire doesn't
	// change the computation — see TestSolverStats). Traced and untraced
	// requests never share a flight: only a traced flight runs with a
	// recording span, so coalescing across the boundary would either
	// lose a requested trace or record one nobody asked for.
	traced := c.root.Enabled()
	o.CollectStats, o.Stats = false, false
	ob, _ := json.Marshal(o)
	key := flightKey(c.key, tauIn, traced, ob)
	// The flight's context is detached from every individual request and
	// has its own deadline: joiners must not lose a shared result because
	// the flight leader's client vanished or timed out first.
	v, err, shared := s.flights.Do(c.r.Context(), key, s.cfg.RequestTimeout, func(fctx context.Context) (any, error) {
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
		s.metrics.countSolve(res.Stats)
		return &solved{ent, tauIn, res}, nil
	})
	if shared {
		c.coalesced = true
		s.metrics.add(mCoalesced, 1)
	}
	if err != nil {
		return nil, err
	}
	sv := v.(*solved)
	if traced {
		c.root.SetAttrs(trace.Bool("coalesced", shared))
		c.root.Adopt(sv.res.Trace)
	}
	return sv, nil
}
