// Command leqad serves LEQA latency estimation over HTTP — the paper's
// ~10^5× speedup over detailed mapping makes estimation cheap enough to run
// as an interactive network service rather than a batch CLI.
//
// Usage:
//
//	leqad [flags]
//
// Endpoints (see internal/server and leqa/client for the wire schema):
//
//	POST /v1/estimate    one circuit: JSON spec ({"generate": "shor-32"}) or a
//	                     raw .qc body, streamed gate-by-gate past -max-body
//	POST /v1/sweep       many circuits, one parameter set; streams rows
//	POST /v1/grid        circuits × paramSets; streams rows (NDJSON, or SSE
//	                     when the request accepts text/event-stream)
//	PUT  /v1/circuits    upload a netlist (.qc or binary .qcb, either gzipped)
//	                     into the content-addressed analysis store; returns
//	                     its sha256 digest for {"ref": "sha256:..."} specs
//	GET  /v1/circuits/{digest}  stored-circuit metadata (HEAD: existence)
//	GET  /v1/benchmarks  generator catalog
//	GET  /healthz        build info + store and zone-model cache statistics
//	GET  /metrics        Prometheus-style per-endpoint request/row/latency
//
// Every request funnels through one shared leqa.Runner, so all estimates
// reuse the process-wide memoized zone model. On SIGINT/SIGTERM the server
// stops accepting work, drains in-flight streams for -drain, then cancels
// whatever is left.
//
// Flags:
//
//	-addr            listen address (default :8347)
//	-workers         estimation worker-pool size (0 = GOMAXPROCS)
//	-grid WxH        base fabric geometry (or -width/-height separately)
//	-nc/-v/-tmove    base physical parameters requests overlay
//	-truncation      E[S_q] term limit (0 = paper's 20, -1 = exact)
//	-no-congestion   disable the M/M/1 congestion model
//	-max-body        JSON request body cap in bytes
//	-max-spool       disk-spool cap for one streamed raw upload, estimate
//	                 or PUT, of any container (the 413 limit for raw
//	                 uploads, 422 for an inflated gzip body; they never
//	                 buffer in RAM)
//	-spool-dir       directory receiving upload spools (default TMPDIR)
//	-max-gates       per-circuit operation cap (post-decomposition)
//	-max-cells       circuits × paramSets cap per batch
//	-max-concurrent  simultaneous estimation requests before 429
//	-max-queue       excess requests held in a bounded wait for a slot
//	                 before 429 (default 0 = reject immediately); 429s carry
//	                 a Retry-After priced from the windowed queue-wait p50
//	-queue-timeout   max wait of one queued request (default 5s)
//	-window          sliding-window span behind windowed percentiles, error
//	                 rates and per-client counts (default 60s)
//	-slo             latency/error objectives scored against the windows,
//	                 e.g. "estimate:p99<250ms,error_rate<1%" (env LEQA_SLO);
//	                 sustained breach flips /healthz to "degraded"
//	-slo-interval    SLO evaluation cadence (default 5s)
//	-degrade-after   consecutive breaching evaluations before degraded (3)
//	-max-clients     tracked per-client series cardinality (default 64)
//	-drain           graceful-shutdown drain window
//	-store-dir       analysis store disk directory — each analysis persists
//	                 as the .qcb netlist of its gates, rebuilt on load and
//	                 checked against its digest, and survives restarts
//	                 (env LEQA_STORE_DIR; empty = memory-only)
//	-store-mem       analysis store memory-tier entry cap (env LEQA_STORE_MEM)
//	-store-disk      analysis store disk byte cap, 0 = unbounded
//	                 (env LEQA_STORE_DISK_BYTES)
//	-result-memo     (digest, params) result-memo entry cap: warm identical
//	                 estimate/sweep/grid cells skip analyze and estimate
//	                 entirely; 0 = default or $LEQA_RESULT_MEMO_ENTRIES,
//	                 negative disables
//	-log-format      structured log format (access, batch and lifecycle
//	                 records alike): text (default) or json
//	-log-level       minimum log level: debug, info, warn, error
//	-slow-request    warn-log any request at or over this duration with its
//	                 full span breakdown (0 disables)
//	-trace-ring      GET /debug/requests retained-trace count
//	-enable-debug    mount net/http/pprof under /debug/pprof/ on the main mux
//	-debug-addr      serve pprof + /debug/requests on a separate private
//	                 address instead
//
// Every response carries an X-Request-Id header (echoing the request's
// X-Request-Id or W3C traceparent when present); access logs, Server-Timing
// headers/trailers, error rows and GET /debug/requests all use the same ID,
// so a slow or failed request is attributable end to end.
//
// Raw .qc uploads on /v1/estimate stream through internal/ingest: the
// netlist is parsed once, gate by gate, and spooled to disk (under
// -max-spool) only for the decompose fallback's rewind, so
// Transfer-Encoding: chunked uploads far beyond -max-body estimate in
// O(analysis) memory. GET /metrics exposes Prometheus-style
// per-endpoint request/row/latency series; /healthz keeps its JSON schema.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/leqa"
)

// version is the build identifier /healthz reports; override with
// -ldflags "-X main.version=...".
var version = "dev"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leqad:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr          = flag.String("addr", ":8347", "listen address")
		workers       = flag.Int("workers", 0, "estimation worker-pool size (0 = GOMAXPROCS)")
		gridSpec      = flag.String("grid", "", "base fabric WxH, e.g. 60x60 (overrides -width/-height)")
		width         = flag.Int("width", 60, "base fabric width (ULB columns)")
		height        = flag.Int("height", 60, "base fabric height (ULB rows)")
		nc            = flag.Int("nc", 5, "base routing channel capacity Nc")
		speed         = flag.Float64("v", 0.001, "base qubit speed 𝓋 (ULB sides per µs)")
		tmove         = flag.Float64("tmove", 100, "base per-hop move time T_move (µs)")
		truncation    = flag.Int("truncation", 0, "E[S_q] term limit (0 = paper's 20, -1 = exact)")
		noCongestion  = flag.Bool("no-congestion", false, "disable the M/M/1 congestion model")
		maxBody       = flag.Int64("max-body", server.DefaultMaxBodyBytes, "JSON request body cap in bytes")
		maxSpool      = flag.Int64("max-spool", server.DefaultMaxSpoolBytes, "disk-spool cap in bytes for one streamed raw upload, estimate or PUT, of any container (.qc or .qcb, gzipped or not)")
		spoolDir      = flag.String("spool-dir", "", "directory for upload spools (default TMPDIR)")
		maxGates      = flag.Int("max-gates", server.DefaultMaxGates, "per-circuit operation cap")
		maxCells      = flag.Int("max-cells", server.DefaultMaxCells, "circuits × paramSets cap per batch")
		maxConcurrent = flag.Int("max-concurrent", server.DefaultMaxConcurrent, "simultaneous estimation requests")
		maxQueue      = flag.Int("max-queue", 0, "excess estimation requests held in a bounded wait for a slot before 429 (0 = reject immediately)")
		queueTimeout  = flag.Duration("queue-timeout", 0, "max wait of one queued request (0 = 5s; needs -max-queue)")
		window        = flag.Duration("window", 0, "sliding-window span for windowed percentiles, error rates and per-client counts (0 = 60s)")
		sloSpec       = flag.String("slo", "", `latency/error objectives, e.g. "estimate:p99<250ms,error_rate<1%" (default $LEQA_SLO; empty disables)`)
		sloInterval   = flag.Duration("slo-interval", 0, "SLO evaluation cadence (0 = 5s)")
		degradeAfter  = flag.Int("degrade-after", 0, "consecutive breaching evaluations before /healthz reports degraded (0 = 3)")
		maxClients    = flag.Int("max-clients", 0, "tracked per-client accounting cardinality; excess folds into \"other\" (0 = 64)")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		storeDir      = flag.String("store-dir", "", "analysis store disk directory; each analysis persists as a .qcb netlist of its gates, rebuilt on load and checked against its digest, and survives restarts (default $LEQA_STORE_DIR or memory-only)")
		storeMem      = flag.Int("store-mem", -1, "analysis store memory-tier entry cap (-1 = default or $LEQA_STORE_MEM)")
		storeDisk     = flag.Int64("store-disk", -1, "analysis store disk-tier byte cap, 0 = unbounded (-1 = default or $LEQA_STORE_DISK_BYTES)")
		resultMemo    = flag.Int("result-memo", 0, "result-memo entry cap: 0 = default or $LEQA_RESULT_MEMO_ENTRIES, negative disables the memo")
		logFormat     = flag.String("log-format", "text", "structured log format: text or json")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		slowReq       = flag.Duration("slow-request", 0, "log requests at or over this duration at warn level with their span breakdown (0 disables)")
		traceRing     = flag.Int("trace-ring", 0, "GET /debug/requests ring size (0 = default)")
		enableDebug   = flag.Bool("enable-debug", false, "mount net/http/pprof under /debug/pprof/ on the main listener")
		debugAddr     = flag.String("debug-addr", "", "serve pprof + /debug/requests on a separate private address (e.g. localhost:8348)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level %q: %w", *logLevel, err)
	}
	hopt := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, hopt)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, hopt)
	default:
		return fmt.Errorf("-log-format %q: want text or json", *logFormat)
	}
	logger := slog.New(handler)

	// Analysis store: environment first, explicit flags override.
	storeOpt, err := leqa.StoreOptionsFromEnv(leqa.AnalysisStoreOptions{})
	if err != nil {
		return err
	}
	if *storeDir != "" {
		storeOpt.Dir = *storeDir
	}
	if *storeMem >= 0 {
		storeOpt.MemEntries = *storeMem
	}
	if *storeDisk >= 0 {
		storeOpt.MaxDiskBytes = *storeDisk
	}

	// Result memo: environment first, explicit flag overrides.
	memoEntries, err := leqa.ResultMemoEntriesFromEnv()
	if err != nil {
		return err
	}
	if *resultMemo != 0 {
		memoEntries = *resultMemo
	}

	params := leqa.DefaultParams()
	params.Grid = leqa.Grid{Width: *width, Height: *height}
	if *gridSpec != "" {
		g, err := leqa.ParseGrid(*gridSpec)
		if err != nil {
			return err
		}
		params.Grid = g
	}
	params.ChannelCapacity = *nc
	params.QubitSpeed = *speed
	params.TMove = *tmove

	// SLO: environment first, explicit flag overrides — matching the other
	// tuning knobs.
	slo := os.Getenv("LEQA_SLO")
	if *sloSpec != "" {
		slo = *sloSpec
	}

	srv, err := server.New(server.Config{
		Params:            params,
		Options:           leqa.EstimateOptions{Truncation: *truncation, DisableCongestion: *noCongestion},
		Workers:           *workers,
		MaxBodyBytes:      *maxBody,
		MaxSpoolBytes:     *maxSpool,
		SpoolDir:          *spoolDir,
		MaxGates:          *maxGates,
		MaxCells:          *maxCells,
		MaxConcurrent:     *maxConcurrent,
		MaxQueue:          *maxQueue,
		QueueTimeout:      *queueTimeout,
		Window:            *window,
		SLO:               slo,
		SLOInterval:       *sloInterval,
		DegradeAfter:      *degradeAfter,
		MaxClients:        *maxClients,
		StoreDir:          storeOpt.Dir,
		StoreMemEntries:   storeOpt.MemEntries,
		StoreMaxDiskBytes: storeOpt.MaxDiskBytes,
		ResultMemoEntries: memoEntries,
		Version:           version,
		Logger:            logger,
		SlowRequest:       *slowReq,
		TraceRing:         *traceRing,
		EnableDebug:       *enableDebug,
	})
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("debug surfaces (pprof, /debug/requests)", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", "err", err)
			}
		}()
		defer dbg.Close()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background SLO evaluation: objectives keep being scored (and breach
	// runs keep aging) while the server idles between requests and scrapes.
	if slo != "" {
		go srv.RunSLO(ctx.Done())
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "version", version, "addr", *addr, "workers", srv.Workers())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("signal received; draining", "drain", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		// Drain window expired: cancel in-flight batches and cut the
		// remaining connections.
		logger.Warn("drain incomplete; aborting in-flight batches", "err", err)
		srv.Abort()
		return httpSrv.Close()
	}
	logger.Info("drained cleanly")
	return nil
}
