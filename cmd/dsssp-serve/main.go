// Command dsssp-serve is the long-running serving daemon over the dsssp
// stack: an HTTP API answering SSSP/APSP/path queries — on inline graphs,
// generator specs, or registered graphs updated by PATCH — from a bounded
// worker pool (-workers queries at a time; each simulation runs on one
// goroutine, and APSP fans its sources out over the pool's size) behind a
// content-addressed result cache. It only answers queries: scenario sweeps
// are the offline tool cmd/dsssp-bench (-json), gated by cmd/dsssp-diff.
//
// Usage:
//
//	dsssp-serve                                      # serve on :8080
//	dsssp-serve -addr :9000 -cache-bytes 268435456 -registry-dir /var/lib/dsssp
//	dsssp-serve -rev $(git rev-parse --short HEAD)   # label the listening log line
//	dsssp-serve -debug-addr 127.0.0.1:6060           # pprof + metrics debug listener
//
// Endpoints:
//
//	POST   /v1/sssp        exact SSSP (graph inline, by generator spec, or by handle)
//	POST   /v1/apsp        all-pairs via the Section 1.1 composition
//	POST   /v1/path        distance + one shortest path source→target
//	POST   /v1/graphs      register a graph → handle; GET lists, GET/DELETE /v1/graphs/{id}
//	PATCH  /v1/graphs/{id}/edges  apply an edge-delta batch → new revision
//	GET    /metrics        Prometheus text exposition (every serving counter)
//	GET    /healthz        liveness
//
// With -debug-addr set, a second listener (keep it private) serves
// net/http/pprof under /debug/pprof/, a second /metrics mount, and the
// trace flight recorder under /debug/traces (list with filters, single
// trace by ID, JSONL export). A sampled query's trace carries its
// per-phase breakdown as phase:* spans under its engine span.
//
// Every request gets an X-Dsssp-Request-Id (the request's trace ID unless
// the client supplied its own), echoed in error JSON bodies and in the
// per-request completion log line (structured slog JSON on stderr), and a
// W3C traceparent is echoed/minted so client traces link to server spans.
//
// The process shuts down cleanly on SIGINT/SIGTERM: the listener drains,
// the registry flushes to -registry-dir, and the exit status is 0 — which
// is what the CI smoke job asserts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dsssp/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheBytes  = flag.Int64("cache-bytes", 64<<20, "result cache byte budget")
		graphBytes  = flag.Int64("graph-bytes", 256<<20, "dynamic-graph registry byte budget (registered graphs + per-source traces)")
		registryDir = flag.String("registry-dir", "", "spill registered graphs and their traces to this directory and warm-start from it on boot (empty = in-memory only)")
		repairMax   = flag.Float64("repair-max-affected", 0.5, "repair a dirty source only while the affected region stays under this fraction of the graph (1 = no cutoff, negative = disable repair)")
		workers     = flag.Int("workers", 0, "query worker pool size (0 = NumCPU)")
		rev         = flag.String("rev", "", "git revision label on the startup log line (default: git rev-parse --short HEAD, else \"unknown\")")
		maxN        = flag.Int("max-n", 4096, "largest accepted graph size")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof, /metrics, and /debug/traces on this private address (empty = disabled)")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of requests recorded into the trace flight recorder (1 = all, 0 = none; unsampled requests pay no tracing cost)")
		traceRecent = flag.Int("trace-recent", 256, "flight recorder: recent traces kept")
		traceKept   = flag.Int("trace-retained", 64, "flight recorder: slow/errored traces kept beyond the recent window")
		slowQuery   = flag.Duration("slow-query", time.Second, "log requests slower than this at Warn")
		logLevel    = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
	)
	// Deprecated: -history is parsed and ignored, since the daemon no longer
	// stores sweep reports. It goes once the benchmark stops passing it.
	flag.String("history", "", "ignored (the daemon no longer stores sweep reports)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *rev == "" {
		*rev = gitRev()
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		die(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	srv, err := service.New(service.Config{
		CacheBytes:         *cacheBytes,
		GraphBytes:         *graphBytes,
		RegistryDir:        *registryDir,
		RepairMaxAffected:  *repairMax,
		Workers:            *workers,
		MaxN:               *maxN,
		Logger:             logger,
		SlowQueryThreshold: *slowQuery,
		TraceSampleRate:    resolveSampleRate(*traceSample),
		TraceRecent:        *traceRecent,
		TraceRetained:      *traceKept,
	})
	if err != nil {
		die(err)
	}

	if *debugAddr != "" {
		// The debug listener is intentionally separate from the API
		// listener: pprof exposes heap contents and must never ride on the
		// public address. DefaultServeMux is avoided on both.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", srv.Metrics().Handler())
		dmux.Handle("/debug/traces", srv.TraceHandler())
		dmux.Handle("/debug/traces/", srv.TraceHandler())
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "rev", *rev)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		die(err) // the listener failed outright (port taken, …)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests (bounded),
	// then flush the registry.
	logger.Info("signal received, shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("draining listener", "error", err.Error())
	}
	srv.Close()
	logger.Info("clean shutdown")
}

// resolveSampleRate maps the flag's "0 = none" convention onto the
// Config's "0 = default, negative = none" one.
func resolveSampleRate(rate float64) float64 {
	if rate <= 0 {
		return -1
	}
	return rate
}

// gitRev best-effort resolves the working tree's short revision for
// labeling the startup log line; services deployed from tarballs pass -rev.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "dsssp-serve:", err)
	os.Exit(1)
}
