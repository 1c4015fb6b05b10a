// Command vrpd serves value range propagation over HTTP with
// production-style observability: Prometheus-format metrics, structured
// request logs, health/readiness endpoints, pprof, bounded in-flight
// load shedding, a fingerprint-keyed result cache, and graceful drain on
// SIGINT/SIGTERM.
//
// Usage:
//
//	vrpd [flags]
//
// Flags:
//
//	-addr :8344            listen address
//	-max-inflight 16       concurrent analyses before shedding with 429
//	-max-source-bytes N    request body cap (default 1 MiB)
//	-cache N               result-cache entries (0 disables)
//	-funcstore N           per-function result-store buckets (0 disables)
//	-timeout D             per-analysis timeout (0 = none)
//	-slo-latency D         latency target for vrpd_slo_* burn gauges
//	                       (default 250ms, 0 disables)
//	-recorder N            flight-recorder entries (default 256, 0 disables)
//	-drain D               shutdown drain budget (default 10s)
//	-log text|json         request log format (default json)
//
// Endpoints: POST /v1/analyze (Mini source → predictions JSON;
// ?explain=func:line, ?telemetry=1), POST /v1/analyze-batch
// ({"programs": [...]} → per-program results, pipelined over one warm
// store), GET /metrics, /healthz, /readyz, /debug/vrpd/requests (flight
// recorder index), /debug/vrpd/trace/{id} (Chrome trace of one retained
// request), /debug/pprof. See README "Running the server" and "Debugging
// a slow request".
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vrp/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8344", "listen address")
		inflight  = flag.Int("max-inflight", server.DefaultMaxInFlight, "concurrent analyses before 429 shedding")
		maxSource = flag.Int64("max-source-bytes", server.DefaultMaxSourceBytes, "request body size cap in bytes")
		cacheSize = flag.Int("cache", server.DefaultCacheEntries, "result cache entries (0 disables caching)")
		storeSize = flag.Int("funcstore", server.DefaultFuncStoreEntries, "per-function result store buckets (0 disables incremental reuse)")
		timeout   = flag.Duration("timeout", 0, "per-analysis timeout (0 = none)")
		sloTarget = flag.Duration("slo-latency", server.DefaultSLOLatency, "latency target behind the vrpd_slo_* burn gauges (0 disables)")
		recEnts   = flag.Int("recorder", server.DefaultRecorderEntries, "flight-recorder retained requests (0 disables /debug/vrpd)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		logFormat = flag.String("log", "json", "request log format: json or text")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "vrpd: unknown -log format %q (want json or text)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	cacheEntries := *cacheSize
	if cacheEntries == 0 {
		cacheEntries = -1 // Config: 0 means default, negative disables
	}
	storeEntries := *storeSize
	if storeEntries == 0 {
		storeEntries = -1
	}
	recorderEntries := *recEnts
	if recorderEntries == 0 {
		recorderEntries = -1
	}
	slo := *sloTarget
	if slo == 0 {
		slo = -1
	}
	srv := server.New(server.Config{
		MaxInFlight:      *inflight,
		MaxSourceBytes:   *maxSource,
		CacheEntries:     cacheEntries,
		FuncStoreEntries: storeEntries,
		AnalyzeTimeout:   *timeout,
		SLOLatency:       slo,
		RecorderEntries:  recorderEntries,
		Logger:           logger,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, *addr, *drain); err != nil {
		logger.Error("vrpd exiting", "err", err)
		os.Exit(1)
	}
	logger.Info("vrpd stopped cleanly")
}
