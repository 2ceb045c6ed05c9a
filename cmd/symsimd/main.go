// Command symsimd runs symsim as a long-lived analysis daemon: submitted
// jobs are queued (FIFO, bounded with backpressure), executed by
// a worker pool of symbolic co-analyses, with complete results kept in a
// content-addressed cache keyed by the canonical netlist hash (a
// positional digest, stable across restarts because elaboration is
// deterministic) — a submission identical to a finished analysis returns
// instantly; any other accepted job runs. A job that a shutdown or a crash interrupts runs
// again from the beginning on the next start.
//
// Usage:
//
//	symsimd -listen localhost:8466 -data /var/lib/symsimd
//	symsimd -jobs 4 -queue 128
//
// The daemon takes no analysis flags: a POST /jobs body is the whole
// analysis (internal/cliflags, the vocabulary of cmd/symsim's flags), and
// a field it leaves out gets the flag default, as on the command line, so
// the same request is the same analysis on every daemon. Every job runs
// one explorer on the compiled kernel; a body that names a worker count,
// an engine or a lane count is read without them. Jobs run in the order
// they were accepted: there is no priority, and a body that names one is
// read without it. A running job streams a progress
// heartbeat to its subscribers every 250 ms, and an event stream carries a
// ": ping" comment line every 15 s. The daemon
// serves jobs only: it has no fleet mode, and the distributed explorer
// (internal/cluster) is a library the benchmark drives.
// SIGINT/SIGTERM drain gracefully: the HTTP listener stops, running jobs
// are canceled and re-queued, losing the work they had done, and the queue
// is preserved on disk for the next start.
//
// GET /metrics on the main listener serves Prometheus text exposition
// (the JSON snapshot moved to /metrics.json); -debug starts a second,
// normally loopback-only listener with the net/http/pprof handlers:
//
//	symsimd -debug localhost:8467
//	go tool pprof http://localhost:8467/debug/pprof/profile
//
// The HTTP API is documented on service.Handler; cmd/symsim's
// submit/status/result/cancel/jobs subcommands are its client.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"symsim/internal/service"
)

func main() {
	var (
		listen   = flag.String("listen", "localhost:8466", "HTTP listen address")
		dataDir  = flag.String("data", "symsimd-data", "durable state directory (jobs, results, cache)")
		jobs     = flag.Int("jobs", 2, "concurrent analysis jobs (each runs one path explorer)")
		queueCap = flag.Int("queue", 64, "pending-job queue capacity; submissions beyond it get HTTP 429")
		debug    = flag.String("debug", "", "debug listen address for net/http/pprof (e.g. localhost:8467; empty = off)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "symsimd: ", log.LstdFlags)
	svc, err := service.New(service.Config{
		DataDir:  *dataDir,
		Workers:  *jobs,
		QueueCap: *queueCap,
		Logf:     func(format string, args ...any) { logger.Printf(format, args...) },
	})
	if err != nil {
		logger.Fatal(err)
	}

	server := &http.Server{Addr: *listen, Handler: service.Handler(svc)}

	if *debug != "" {
		// pprof lives on its own listener (normally loopback-only) so
		// profiling is never exposed on the job-submission address. The
		// handlers are registered explicitly: the daemon's API mux must
		// not depend on http.DefaultServeMux side effects.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{Addr: *debug, Handler: dmux}
		go func() {
			logger.Printf("pprof debug listener on %s", *debug)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug listener failed: %v", err)
			}
		}()
		defer dbg.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	logger.Printf("listening on %s (data %s, %d job workers, queue %d)", *listen, *dataDir, *jobs, *queueCap)

	select {
	case <-ctx.Done():
		logger.Printf("shutdown signal: draining")
	case err := <-errCh:
		logger.Printf("listener failed: %v", err)
		svc.Drain()
		os.Exit(1)
	}

	// Stop accepting HTTP first, then drain: running analyses are
	// canceled and re-queue; the next start runs them from the beginning.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	svc.Drain()
	logger.Printf("drained, bye")
}
