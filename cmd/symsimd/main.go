// Command symsimd runs symsim as a long-lived analysis daemon: submitted
// jobs are queued (priority FIFO, bounded with backpressure), executed by
// a worker pool of symbolic co-analyses, checkpointed on shutdown and
// resumed on restart, with complete results kept in a content-addressed
// cache keyed by the canonical netlist hash — identical submissions return
// instantly.
//
// Usage:
//
//	symsimd -listen localhost:8466 -data /var/lib/symsimd
//	symsimd -jobs 4 -queue 128 -policy clustered -k 4   # server-side defaults
//
// The analysis-tuning flags (policy, engine, memx, workers, budgets) are
// the same vocabulary as cmd/symsim's (internal/cliflags, which is also the
// JSON spec of both APIs). Here they are defaults for POST /jobs: a
// submission that leaves a field empty gets the daemon's value, then the
// flag default. POST /cluster/runs (-coordinator) fills from the flag
// defaults alone, so a run means the same analysis on every coordinator.
// SIGINT/SIGTERM drain gracefully: the HTTP listener
// stops, running jobs are canceled and checkpointed, and the queue is
// preserved on disk for the next start.
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

	"symsim/internal/cliflags"
	"symsim/internal/cluster"
	"symsim/internal/service"
)

func main() {
	var (
		listen     = flag.String("listen", "localhost:8466", "HTTP listen address")
		dataDir    = flag.String("data", "symsimd-data", "durable state directory (jobs, results, cache, checkpoints)")
		jobs       = flag.Int("jobs", 2, "concurrent analysis jobs (each job additionally uses its own -workers path workers)")
		queueCap   = flag.Int("queue", 64, "pending-job queue capacity; submissions beyond it get HTTP 429")
		ckptEvery  = flag.Duration("checkpoint-every", 15*time.Second, "periodic checkpoint interval for running jobs")
		progress   = flag.Duration("progress-every", 250*time.Millisecond, "progress heartbeat interval streamed to subscribers")
		keepAlive  = flag.Duration("sse-keepalive", 15*time.Second, "SSE comment-line keep-alive interval (defeats proxy idle timeouts)")
		leaseTTL   = flag.Duration("lease-ttl", 0, "job lease TTL: a running job making no observable progress this long is requeued under a new lease; the watchdog sweeps every quarter of it (0 = watchdog off)")
		debug      = flag.String("debug", "", "debug listen address for net/http/pprof (e.g. localhost:8467; empty = off)")
		defaults   = cliflags.Register(flag.CommandLine)
		clusterCfg = cliflags.RegisterCluster(flag.CommandLine)
	)
	flag.Parse()

	logger := log.New(os.Stderr, "symsimd: ", log.LstdFlags)
	if clusterCfg.Coordinator && clusterCfg.Worker != "" {
		logger.Fatalf("-coordinator and -worker are mutually exclusive: a daemon either hosts the runs' state or drives it")
	}
	svc, err := service.New(service.Config{
		DataDir:         *dataDir,
		Workers:         *jobs,
		QueueCap:        *queueCap,
		CheckpointEvery: *ckptEvery,
		ProgressEvery:   *progress,
		SSEKeepAlive:    *keepAlive,
		LeaseTTL:        *leaseTTL,
		Defaults:        &defaults.Spec,
		Logf:            func(format string, args ...any) { logger.Printf(format, args...) },
	})
	if err != nil {
		logger.Fatal(err)
	}

	handler := service.Handler(svc)
	var coord *cluster.Coordinator
	if clusterCfg.Coordinator {
		// Coordinator mode mounts the cluster API next to the job API.
		coord = cluster.NewCoordinator(cluster.Config{
			LeaseTTL: clusterCfg.LeaseTTL,
			Logf:     func(format string, args ...any) { logger.Printf(format, args...) },
		})
		mux := http.NewServeMux()
		mux.Handle("/cluster/", coord.Handler())
		mux.Handle("/", handler)
		handler = mux
		logger.Printf("cluster coordinator enabled (lease TTL %v)", clusterCfg.LeaseTTL)
	}

	server := &http.Server{Addr: *listen, Handler: handler}

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

	workerDone := make(chan struct{})
	if clusterCfg.Worker != "" {
		w := &cluster.Worker{
			Coordinator: clusterCfg.Worker,
			Slots:       clusterCfg.Slots,
			Name:        *listen,
			Logf:        func(format string, args ...any) { logger.Printf(format, args...) },
		}
		go func() {
			defer close(workerDone)
			_ = w.Run(ctx) // returns ctx.Err() once the drain signal fires
		}()
		logger.Printf("cluster worker enabled: pulling from %s (%d slots)", clusterCfg.Worker, clusterCfg.Slots)
	} else {
		close(workerDone)
	}

	select {
	case <-ctx.Done():
		logger.Printf("shutdown signal: draining")
	case err := <-errCh:
		logger.Printf("listener failed: %v", err)
		svc.Drain()
		os.Exit(1)
	}

	// Stop accepting HTTP first, then drain: running analyses are
	// canceled, write their final checkpoints and re-queue; the next start
	// resumes them.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	// The worker's lease loop stops with the signal context; wait for its
	// explorers to hand their segments back (settled as interrupted, partial
	// progress included) before draining. A segment that does not make it
	// simply lease-expires at the coordinator — by design, nothing is lost.
	select {
	case <-workerDone:
	case <-shutdownCtx.Done():
		logger.Printf("worker did not settle in time; its leases will expire at the coordinator")
	}
	if coord != nil {
		coord.Close()
	}
	svc.Drain()
	logger.Printf("drained, bye")
}
