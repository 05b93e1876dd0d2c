// Command gtlserved runs the tangled-logic detection service: a
// long-running HTTP server with a content-addressed netlist registry,
// a bounded job queue over a worker pool, streamed progress and a
// result cache. See the README's "Running as a service" section for
// the API walkthrough.
//
// Usage:
//
//	gtlserved -addr :8080 -workers 2 -queue 64 \
//	          -cache-pins 64000000 -cache-results 128 \
//	          -data-dir /var/lib/gtlserved
//
// With -data-dir set the registry is durable: uploads, deltas and
// finished results are journaled to disk and recovered on restart
// (see the README's "Durability" section). Without it the service
// serves fully in-memory, exactly as before.
//
// Observability: structured logs (request and job lifecycle records,
// correlated by X-Request-ID) go to stderr; GET /metrics serves the
// Prometheus exposition; -pprof-addr starts net/http/pprof on a
// separate listener so profiling stays off the public API port.
//
// Ctrl-C / SIGTERM triggers a graceful shutdown: in-flight HTTP
// requests and running jobs drain within -grace, then anything left
// is cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"tanglefind/internal/cliutil"
	"tanglefind/internal/jobs"
	"tanglefind/internal/server"
	"tanglefind/internal/store"
)

// config carries the parsed flags; main builds it from the command
// line and the tests build it directly.
type config struct {
	addr          string
	workers       int
	engineWorkers int
	queueDepth    int
	cachePins     int64
	cacheResults  int
	incrStates    int
	grace         time.Duration
	pprofAddr     string
	dataDir       string

	// ready, when set, receives the bound address once the listener is
	// up (tests bind :0 and need the real port).
	ready func(addr string)
	// logw overrides the structured-log destination (default stderr);
	// tests capture it.
	logw io.Writer
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 2, "concurrent jobs (each internally parallel)")
	flag.IntVar(&cfg.engineWorkers, "engine-workers", 0, "pool-wide budget of engine goroutines shared by running jobs; each job is granted min(its workers option, what's free), never below 1 (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.queueDepth, "queue", 64, "job queue depth; beyond it submissions get 429")
	flag.Int64Var(&cfg.cachePins, "cache-pins", 64_000_000, "netlist registry pin budget before LRU eviction, charging each resident netlist its pins plus the coarse-level pins its engine caches for multilevel runs (0 = unlimited)")
	flag.IntVar(&cfg.cacheResults, "cache-results", 128, "result cache entries")
	flag.IntVar(&cfg.incrStates, "incr-states", 8, "retained incremental seed states for find_incremental jobs (each O(seeds x ordering length) bytes)")
	flag.DurationVar(&cfg.grace, "grace", 30*time.Second, "shutdown drain deadline")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:6060); empty disables profiling")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "persist the registry and finished results under this directory and recover them on restart; empty serves in-memory only")
	flag.Parse()

	ctx, stop := cliutil.SignalContext()
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		cliutil.Fatal("gtlserved", err)
	}
}

// run serves until ctx is cancelled, then drains.
func run(ctx context.Context, cfg config, w io.Writer) error {
	logw := cfg.logw
	if logw == nil {
		logw = os.Stderr
	}
	logger := slog.New(slog.NewTextHandler(logw, nil))
	logger.Info("starting",
		"addr", cfg.addr, "workers", cfg.workers,
		"engine_workers", cfg.engineWorkers, "queue", cfg.queueDepth,
		"cache_pins", cfg.cachePins, "cache_results", cfg.cacheResults,
		"incr_states", cfg.incrStates, "grace", cfg.grace.String(),
		"pprof_addr", cfg.pprofAddr, "data_dir", cfg.dataDir)

	var st *store.Store
	if cfg.dataDir != "" {
		backend, err := store.OpenDisk(cfg.dataDir)
		if err != nil {
			return err
		}
		st, err = store.Open(cfg.cachePins, backend)
		if err != nil {
			backend.Close()
			return fmt.Errorf("recover data dir %s: %w", cfg.dataDir, err)
		}
		defer st.Close()
		sst := st.Stats()
		logger.Info("recovered data dir",
			"data_dir", cfg.dataDir,
			"netlists", sst.RecoveredNetlists,
			"results", sst.RecoveredResults,
			"journal_truncated_bytes", sst.JournalTruncatedBytes)
	} else {
		st = store.New(cfg.cachePins)
	}
	mgr := jobs.New(jobs.Config{
		Store:         st,
		Workers:       cfg.workers,
		EngineWorkers: cfg.engineWorkers,
		QueueDepth:    cfg.queueDepth,
		CacheResults:  cfg.cacheResults,
		IncrStates:    cfg.incrStates,
		Logger:        logger,
	})
	srv := server.New(st, mgr, server.WithLogger(logger))

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gtlserved: listening on %s (workers=%d queue=%d pin-budget=%d)\n",
		ln.Addr(), cfg.workers, cfg.queueDepth, cfg.cachePins)
	if cfg.ready != nil {
		cfg.ready(ln.Addr().String())
	}

	var pprofSrv *http.Server
	if cfg.pprofAddr != "" {
		// An explicit mux, not DefaultServeMux: only the profiling
		// endpoints, and only on this (ideally loopback) listener.
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: pmux}
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go pprofSrv.Serve(pln)
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting traffic, then let running jobs
	// finish; past the grace deadline everything left is cancelled.
	fmt.Fprintf(w, "gtlserved: shutting down (grace %s)\n", cfg.grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if pprofSrv != nil {
		pprofSrv.Close()
	}
	httpErr := hs.Shutdown(drainCtx)
	jobErr := mgr.Shutdown(drainCtx)
	<-errc // Serve has returned http.ErrServerClosed
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		return httpErr
	}
	if jobErr != nil {
		fmt.Fprintf(w, "gtlserved: drain deadline hit, remaining jobs cancelled\n")
	}
	fmt.Fprintln(w, "gtlserved: bye")
	return nil
}
