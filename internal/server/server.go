// Package server implements the leqad estimation service: an HTTP layer
// over the public leqa API that estimates uploaded .qc netlists or
// generated benchmarks and streams batch results back as they complete.
//
// Endpoints:
//
//	POST /v1/estimate    one circuit (JSON spec or raw .qc body) → one JSON record
//	POST /v1/sweep       circuits under one parameter set → streamed rows
//	POST /v1/grid        circuits × paramSets cross product → streamed rows
//	GET  /v1/benchmarks  generator catalog
//	GET  /healthz        build info + zone-model cache statistics
//	GET  /metrics        Prometheus-style per-endpoint request/row/latency
//
// Raw netlist uploads (.qc or .qcb, either gzipped) stream through
// internal/ingest: an upload is read once, gates parsed and analyzed as
// the body flows, so chunked uploads far past MaxBodyBytes estimate in
// O(analysis) memory, and PUT /v1/circuits keys the stored analysis by the
// digest of its records. The body passes through one on-disk spool (never
// RAM) under the MaxSpoolBytes cap — the 413 limit for raw uploads, 422
// for a gzip body whose inflated netlist outgrows it — which backs only
// the rewind of the materialized decompose fallback for non-FT uploads.
//
// The batch endpoints stream one leqa.ResultRecord per row — NDJSON by
// default, server-sent events when the client asks for text/event-stream —
// in input order as each row's prefix completes, with per-row errors
// instead of batch aborts. All requests share one leqa.Runner, so every
// estimate in the process funnels through the same memoized zone model;
// request-context cancellation propagates into the sweep engine and stops
// feeding unstarted work.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/leqa"
	"repro/leqa/client"
	"repro/leqa/trace"
)

// Default limits; every Config field of the same name overrides one.
const (
	DefaultMaxBodyBytes  = 8 << 20 // 8 MiB of request body
	DefaultMaxGates      = 2_000_000
	DefaultMaxCells      = 4096
	DefaultMaxConcurrent = 16
	// DefaultMaxSpoolBytes caps the on-disk spool a streamed raw upload
	// may occupy — the streaming successor of MaxBodyBytes, which bounds
	// RAM. 256 MiB of .qc netlist is ~10M operations.
	DefaultMaxSpoolBytes = 256 << 20
)

// Config assembles a Server. The zero value serves Table 1 defaults with
// sane limits.
type Config struct {
	// Params is the base physical parameter set requests overlay; zero
	// means leqa.DefaultParams().
	Params leqa.Params
	// Options is the base estimator tuning requests overlay.
	Options leqa.EstimateOptions
	// Workers sizes the shared Runner's pool; ≤ 0 selects GOMAXPROCS.
	Workers int
	// MaxBodyBytes caps every JSON request body (and the materialized
	// decompose fallback of raw uploads); exceeding it is a 413.
	MaxBodyBytes int64
	// MaxSpoolBytes caps the disk spool of one streamed raw upload, of any
	// container and to either endpoint; exceeding it is a 413 (a 422 for
	// the inflated netlist of a gzip body). Raw uploads stream past
	// MaxBodyBytes up to this cap without ever occupying RAM.
	MaxSpoolBytes int64
	// SpoolDir receives upload spools; empty means os.TempDir().
	SpoolDir string
	// MaxGates caps one circuit's post-decomposition operation count.
	MaxGates int
	// MaxCells caps circuits × paramSets per batch request.
	MaxCells int
	// MaxConcurrent caps simultaneous estimation requests; excess
	// requests get 429 rather than queueing without bound.
	MaxConcurrent int
	// MaxQueue admits up to this many excess requests to a bounded wait for
	// a slot (at most QueueTimeout each) before 429. 0 — the default —
	// keeps the historical immediate-429 behavior.
	MaxQueue int
	// QueueTimeout bounds one queued request's wait for a slot; ≤ 0
	// selects 5s. Only meaningful with MaxQueue > 0.
	QueueTimeout time.Duration
	// Window spans the sliding-window telemetry (windowed percentiles,
	// error rates, queue-wait estimate, per-client counts); ≤ 0 selects 60s.
	Window time.Duration
	// SLO is a comma-separated objective list, e.g.
	// "estimate:p99<250ms,error_rate<1%" — see telemetry.ParseSLO. Empty
	// disables the evaluator (no slo block on /healthz, no slo series on
	// /metrics). Clause scopes must name an estimation endpoint (estimate,
	// sweep, grid) or be empty (merged estimation traffic).
	SLO string
	// SLOInterval paces SLO evaluation; ≤ 0 selects 5s.
	SLOInterval time.Duration
	// DegradeAfter is the consecutive breaching evaluations before /healthz
	// reports "degraded"; ≤ 0 selects 3.
	DegradeAfter int
	// MaxClients bounds the per-client accounting cardinality (the
	// leqad_client_* label budget); ≤ 0 selects 64. Excess clients fold
	// into the "other" row.
	MaxClients int
	// Clock injects time into the sliding-window telemetry — a test seam;
	// nil selects time.Now. Request and span timing and queue timeouts keep
	// using the real clock.
	Clock func() time.Time
	// StoreDir, when non-empty, enables the analysis store's disk tier:
	// analyses of uploaded circuits persist there as content-addressed
	// images, the .qcb netlist of their gates, and survive restarts; a
	// restarted server rebuilds an analysis from its image and checks it
	// against its digest. The memory tier is always on.
	StoreDir string
	// StoreMemEntries bounds the store's in-memory LRU; ≤ 0 selects the
	// leqa default.
	StoreMemEntries int
	// StoreMaxDiskBytes caps the store's disk tier; ≤ 0 means unbounded.
	StoreMaxDiskBytes int64
	// ResultMemoEntries sizes the (digest, params) result memo that lets
	// warm identical estimate/sweep/grid cells skip analyze and estimate
	// entirely: 0 selects leqa.DefaultResultMemoEntries, negative disables
	// the memo. Hits are exact-key only, so every setting is
	// result-preserving.
	ResultMemoEntries int
	// Version is the build identifier reported by /healthz.
	Version string
	// Logger receives structured access logs, slow-request breakdowns,
	// early batch ends and panic reports, each carrying the request ID; nil
	// discards them.
	Logger *slog.Logger
	// SlowRequest, when positive, logs any request at or over this duration
	// at warn level with its full span breakdown.
	SlowRequest time.Duration
	// TraceRing sizes the GET /debug/requests ring of recent request
	// traces; ≤ 0 selects trace.DefaultRingSize.
	TraceRing int
	// EnableDebug mounts the net/http/pprof surfaces on the main mux under
	// /debug/pprof/. Off by default: profiles expose internals, so they are
	// opt-in (or bound privately via DebugHandler and cmd/leqad
	// -debug-addr). GET /debug/requests is always on.
	EnableDebug bool
	// FlushHook, when set, runs after each streamed row reaches the
	// client (with the 1-based row count). It is a test seam: a blocking
	// hook holds the stream — and through backpressure the whole batch —
	// exactly where it is.
	FlushHook func(rows int)
}

// Server is the leqad request layer. Create with New; it implements
// http.Handler.
type Server struct {
	cfg     Config
	runner  *leqa.Runner
	store   *leqa.AnalysisStore
	memo    *leqa.ResultMemo // nil when disabled
	mux     *http.ServeMux
	handler http.Handler // mux behind the observability middleware
	sem     chan struct{}
	start   time.Time
	logger  *slog.Logger
	ring    *trace.Ring
	panics  atomic.Uint64

	// baseCtx is cancelled by Abort to stop every in-flight batch during
	// forced shutdown.
	baseCtx   context.Context
	abortBase context.CancelFunc

	requests        atomic.Uint64
	batchesCanceled atomic.Uint64
	spooledUploads  atomic.Uint64
	spooledBytes    atomic.Uint64

	// Request accounting behind /metrics and /healthz (metrics.go): one
	// endpointMetrics per exposition endpoint, reached through routes from
	// the ServeMux pattern that served the request and written once per
	// request by finishRequest.
	endpoints map[string]*endpointMetrics
	routes    map[string]*endpointMetrics // ServeMux pattern → endpoint

	// Span-fed series: sink is the trace.Sink every request trace reports
	// into (bound once here, so a request allocates nothing extra). It
	// routes queue spans to queueWait, the window that prices Retry-After,
	// and pipeline phases to phaseLat, in metricsPhases order.
	sink      trace.Sink
	phaseLat  [len(metricsPhases)]*latencySeries
	queueWait *telemetry.Window

	// Saturation telemetry (saturation.go): the window span, admission
	// gauges, throttle counters by reason, bounded per-client accounting,
	// and the optional SLO evaluator.
	winLen    time.Duration
	queued    atomic.Int64
	inflight  atomic.Int64
	throttled map[string]*atomic.Uint64
	clients   *telemetry.Clients
	evaluator *telemetry.Evaluator // nil without Config.SLO
}

// New validates the configuration and builds the service around one shared
// Runner.
func New(cfg Config) (*Server, error) {
	if reflect.DeepEqual(cfg.Params, leqa.Params{}) {
		cfg.Params = leqa.DefaultParams()
	} else if len(cfg.Params.GateDelay) == 0 {
		// Params.Validate tolerates an empty delay map (every one-qubit op
		// would silently cost 0µs); a partially built config is a mistake,
		// not a request for defaults.
		return nil, fmt.Errorf("server: Config.Params has no gate delays; start from leqa.DefaultParams()")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxGates <= 0 {
		cfg.MaxGates = DefaultMaxGates
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = DefaultMaxCells
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.MaxSpoolBytes <= 0 {
		cfg.MaxSpoolBytes = DefaultMaxSpoolBytes
	}
	if cfg.MaxQueue > 0 && cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 5 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	runner, err := leqa.NewRunner(cfg.Params, cfg.Options, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("server: base parameters: %w", err)
	}
	store, err := leqa.NewAnalysisStore(leqa.AnalysisStoreOptions{
		MemEntries:   cfg.StoreMemEntries,
		Dir:          cfg.StoreDir,
		MaxDiskBytes: cfg.StoreMaxDiskBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("server: analysis store: %w", err)
	}
	var memo *leqa.ResultMemo
	if cfg.ResultMemoEntries >= 0 {
		memo = leqa.NewResultMemo(cfg.ResultMemoEntries)
		runner.SetResultMemo(memo)
	}
	baseCtx, abort := context.WithCancel(context.Background())
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:       cfg,
		runner:    runner,
		store:     store,
		memo:      memo,
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		start:     time.Now(),
		logger:    logger,
		ring:      trace.NewRing(cfg.TraceRing),
		baseCtx:   baseCtx,
		abortBase: abort,
		endpoints: make(map[string]*endpointMetrics, len(metricsEndpoints)),
	}

	// Latency series and sliding windows: every endpoint counts requests,
	// the estimation endpoints add rows, a latency series and windowed
	// completion/error counters; each pipeline phase gets a latency series
	// and admission a queue-wait window — all fed by request traces.
	wopt := telemetry.WindowOptions{Length: cfg.Window, Clock: cfg.Clock}
	for _, name := range metricsEndpoints {
		s.endpoints[name] = &endpointMetrics{}
	}
	for _, name := range estimationEndpoints() {
		em := s.endpoints[name]
		em.latency = newLatencySeries(wopt)
		em.windowRequests = telemetry.NewCounter(wopt)
		em.windowErrors = telemetry.NewCounter(wopt)
	}
	for i := range s.phaseLat {
		s.phaseLat[i] = newLatencySeries(wopt)
	}
	s.queueWait = telemetry.NewWindow(wopt)
	s.winLen = s.queueWait.Length()
	s.sink = s.observeSpan
	s.throttled = make(map[string]*atomic.Uint64, len(throttleReasons))
	for _, reason := range throttleReasons {
		s.throttled[reason] = &atomic.Uint64{}
	}
	s.clients = telemetry.NewClients(telemetry.ClientsOptions{Max: cfg.MaxClients, Window: wopt})
	if cfg.SLO != "" {
		clauses, err := telemetry.ParseSLO(cfg.SLO)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		for _, c := range clauses {
			if em := s.endpoints[c.Scope]; c.Scope != "" && (em == nil || em.latency == nil) {
				return nil, fmt.Errorf("server: slo clause %q: unknown scope %q (want one of %v, or none)",
					c.String(), c.Scope, estimationEndpoints())
			}
		}
		s.evaluator = telemetry.NewEvaluator(clauses, s.sloSource, telemetry.EvaluatorOptions{
			Interval:     cfg.SLOInterval,
			DegradeAfter: cfg.DegradeAfter,
			Clock:        telemetry.Clock(cfg.Clock),
		})
	}

	mux := http.NewServeMux()
	s.routes = make(map[string]*endpointMetrics)
	for _, rt := range []struct {
		pattern, endpoint string // endpoint "" is not accounted per endpoint
		h                 http.HandlerFunc
	}{
		{"POST /v1/estimate", "estimate", s.withSlot(s.handleEstimate)},
		{"POST /v1/sweep", "sweep", s.withSlot(s.handleSweep)},
		{"POST /v1/grid", "grid", s.withSlot(s.handleGrid)},
		{"PUT /v1/circuits", "circuits", s.withSlot(s.handleCircuitPut)},
		{"GET /v1/circuits/{digest}", "circuits", s.handleCircuitGet},
		{"HEAD /v1/circuits/{digest}", "circuits", s.handleCircuitGet},
		{"GET /v1/benchmarks", "benchmarks", s.handleBenchmarks},
		{"GET /healthz", "healthz", s.handleHealthz},
		{"GET /metrics", "", s.handleMetrics},
		{"GET /debug/requests", "", s.handleDebugRequests},
		{"GET /debug/clients", "", s.handleDebugClients},
	} {
		mux.HandleFunc(rt.pattern, rt.h)
		if em := s.endpoints[rt.endpoint]; em != nil {
			s.routes[rt.pattern] = em
		}
	}
	if cfg.EnableDebug {
		registerPprof(mux)
	}
	s.mux = mux
	s.handler = s.observe(mux)
	return s, nil
}

// ServeHTTP dispatches to the service's routes through the observability
// middleware (request trace, access log, panic recovery, debug ring).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.handler.ServeHTTP(w, r)
}

// Abort cancels every in-flight batch. cmd/leqad calls it when graceful
// drain exceeds its deadline, so hung streams cannot block shutdown.
func (s *Server) Abort() { s.abortBase() }

// Workers reports the shared pool size.
func (s *Server) Workers() int { return s.runner.Workers() }

// requestContext derives the batch context: cancelled when the client goes
// away (request context) or when the server aborts.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// withSlot gates a handler behind the concurrency semaphore: a full server
// answers 429 (with a Retry-After priced from the windowed queue-wait
// estimate) instead of queueing unbounded work — admit() optionally holds
// up to MaxQueue excess requests in a bounded, timed wait first and records
// the wait as the request's queue span. Timing and counting the request is
// finishRequest's job, like every other request's.
func (s *Server) withSlot(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		h(w, r)
	}
}

// handleHealthz reports build info, the shared zone-model memo counters,
// the service's request totals, the saturation block (admission gauges,
// windowed per-endpoint percentiles, throttle counts) and — when an SLO is
// configured — the per-clause compliance block. A server in sustained SLO
// breach reports "degraded" but stays 200: the process is alive and
// serving; objective state is the payload's job, not the status code's.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := leqa.ZoneModelCacheStats()
	as := s.store.Stats()
	var ms leqa.ResultMemoStats
	if s.memo != nil {
		ms = s.memo.Stats()
	}
	status := "ok"
	var slo *client.SLOStatus
	if s.evaluator != nil {
		s.evaluator.MaybeTick()
		slo = s.sloStatus()
		if slo.Degraded {
			status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, client.Health{
		Status:          status,
		Version:         s.cfg.Version,
		GoVersion:       runtime.Version(),
		UptimeSec:       time.Since(s.start).Seconds(),
		Workers:         s.runner.Workers(),
		Requests:        s.requests.Load(),
		RowsStreamed:    s.endpoints["sweep"].rows.Load() + s.endpoints["grid"].rows.Load(),
		BatchesCanceled: s.batchesCanceled.Load(),
		EstimateLatency: s.estimateLatency(),
		ZoneModelCache:  client.CacheStats(st),
		AnalysisStore:   client.StoreStats(as),
		ResultMemo:      client.CacheStats(ms),
		Saturation:      s.saturationStats(),
		SLO:             slo,
	})
}

// writeJSON renders v as the whole reply.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJSONError renders the service's error envelope.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, client.APIError{Message: msg})
}
