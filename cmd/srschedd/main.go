// Command srschedd serves the scheduled-routing pipeline over HTTP:
// schedule computation, fault repair with the degradation ladder,
// multi-tenant admission and τin × placement exploration, with a solver
// cache that amortizes problem structure across requests and coalescing
// of identical concurrent solves.
//
// Usage:
//
//	srschedd -listen :8080
//	srschedd -listen :8080 -pprof-addr localhost:6060
//	srschedd -listen 127.0.0.1:0          # any free port: the "listening" log line names it
//	srschedd -listen :8080 -solvers 128   # structure cache sized to the working set (DESIGN §9)
//	srschedd -version
//	curl -s localhost:8080/v1/schedule -d '{"problem":{"tfg":"dvb:4","topology":"cube:6","tau_in":141}}'
//	curl -s 'localhost:8080/v1/schedule?debug=trace' -d '...' | traceview -text
//
// SIGINT/SIGTERM begin a graceful drain: keep-alives stop renewing,
// watch subscriptions receive a terminal closing frame, in-flight
// solves finish, queued and new requests get 503, and the listener
// closes once the drain completes (or the -drain-timeout deadline
// expires).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"schedroute/internal/service"
	"schedroute/pkg/schedroute"
)

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "requests allowed to wait for a worker before 503")
	solvers := flag.Int("solvers", 32, "problem structures kept in the solver-cache LRU")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request solve deadline")
	maxBody := flag.Int64("max-body", 8<<20, "request body size limit in bytes")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); never exposed on the serving port")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	if *version {
		v := schedroute.Version()
		fmt.Printf("srschedd %s (schema %d, %s)\n", v.ModuleVersion, v.SchemaVersion, v.GoVersion)
		return
	}
	if *pprofAddr != "" && *pprofAddr == *listen {
		fmt.Fprintln(os.Stderr, "srschedd: -pprof-addr must differ from -listen; the profiler is never served on the API port")
		os.Exit(2)
	}

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	srv := service.New(service.Config{
		MaxSolvers:     *solvers,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Logger:         log,
	})
	// Signals are caught before anything is announced: whoever reads the
	// "listening" line may send SIGTERM at once and is owed a drain.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	// Bind before logging, and log what was bound: with -listen
	// 127.0.0.1:0 the line is how a caller learns the port.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srschedd:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Info("listening", "addr", ln.Addr().String())

	// The profiler gets its own listener and its own mux: registering
	// pprof on the API mux (or on http.DefaultServeMux by side effect)
	// would expose heap dumps to every client that can reach the API.
	var ps *http.Server
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "srschedd: pprof:", err)
			os.Exit(1)
		}
		ps = &http.Server{Handler: pm}
		go func() {
			if err := ps.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof listener", "err", err.Error())
			}
		}()
		log.Info("pprof listening", "addr", pln.Addr().String())
	}

	select {
	case sig := <-sigc:
		log.Info("draining", "signal", sig.String(), "deadline", drain.String())
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "srschedd:", err)
		os.Exit(1)
	}

	// Stop renewing keep-alive connections immediately: idle clients
	// (and watch streams between frames) would otherwise hold their
	// connections open and stall the listener shutdown until the drain
	// deadline every time.
	hs.SetKeepAlivesEnabled(false)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the solve pool first so queued work is shed immediately —
	// including every open watch subscription, which receives a
	// terminal closing frame — then close the listener once the
	// in-flight requests are done.
	if err := srv.Shutdown(ctx); err != nil {
		log.Error("drain incomplete", "err", err.Error())
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("listener shutdown", "err", err.Error())
		os.Exit(1)
	}
	if ps != nil {
		ps.Shutdown(ctx)
	}
	log.Info("stopped")
}
