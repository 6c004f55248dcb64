// Package client defines the wire schema of the leqad estimation service
// (cmd/leqad, internal/server) and a small HTTP client for it. The row
// format streamed by the batch endpoints is leqa.ResultRecord — the same
// flat schema the JSON/CSV emitters use for baseline diffing — one compact
// JSON object per NDJSON line (or SSE data frame).
package client

// CircuitSpec selects one circuit for estimation: an inline .qc netlist, a
// generator spec, or a by-reference digest of a previously uploaded
// circuit — exactly one of the three.
type CircuitSpec struct {
	// Name labels the circuit in result rows; defaults to the generator
	// spec or the .qc-declared name.
	Name string `json:"name,omitempty"`
	// QC is an inline .qc netlist (the paper's input format).
	QC string `json:"qc,omitempty"`
	// Generate names a built-in benchmark generator: gf2^<n>mult,
	// hwb<n>ps, ham<n>, <n>bitadder, mod<2^n>adder, shor-<n>[x<rounds>].
	// Generated circuits are lowered to the FT gate set automatically.
	Generate string `json:"generate,omitempty"`
	// Ref addresses a circuit by content digest ("sha256:<64 hex>", as
	// returned by PUT /v1/circuits). The server estimates straight from its
	// stored analysis — no netlist bytes travel, no parsing or graph build
	// runs. An unknown digest is a 404 (single estimate) or an error row
	// (batch).
	Ref string `json:"ref,omitempty"`
}

// ParamSpec overlays the server's base physical parameters (Table 1
// defaults unless leqad was started with overrides), mirroring cmd/leqa's
// flags. Nil pointer fields keep the base value.
type ParamSpec struct {
	// Grid is the fabric geometry as "WxH", e.g. "60x60".
	Grid string `json:"grid,omitempty"`
	// ChannelCapacity is Nc, the routing-channel capacity in qubits.
	ChannelCapacity *int `json:"channelCapacity,omitempty"`
	// QubitSpeed is 𝓋 in ULB sides per µs.
	QubitSpeed *float64 `json:"qubitSpeed,omitempty"`
	// TMove is the per-hop move time in µs.
	TMove *float64 `json:"tMove,omitempty"`
}

// OptionsSpec tunes the estimator per request. Nil pointer fields keep the
// server's configured defaults.
type OptionsSpec struct {
	// Truncation overrides the E[S_q] term limit (0 = paper's 20,
	// negative = exact).
	Truncation *int `json:"truncation,omitempty"`
	// DisableCongestion switches the M/M/1 congestion model off (true) or
	// back on (false) regardless of the server's default.
	DisableCongestion *bool `json:"disableCongestion,omitempty"`
	// Decompose lowers non-FT uploaded netlists to the FT gate set before
	// estimating (default true); set false to reject them instead.
	Decompose *bool `json:"decompose,omitempty"`
}

// EstimateRequest is the POST /v1/estimate JSON body: one circuit spec
// inlined at the top level ({"generate": "shor-32"}), plus optional
// parameter and option overlays.
type EstimateRequest struct {
	CircuitSpec
	Params  *ParamSpec   `json:"params,omitempty"`
	Options *OptionsSpec `json:"options,omitempty"`
}

// SweepRequest is the POST /v1/sweep JSON body: many circuits under one
// parameter set, streamed back as one row per circuit.
type SweepRequest struct {
	Circuits []CircuitSpec `json:"circuits"`
	Params   *ParamSpec    `json:"params,omitempty"`
	Options  *OptionsSpec  `json:"options,omitempty"`
}

// GridRequest is the POST /v1/grid JSON body: circuits × paramSets cross
// product, streamed back as one row per cell in circuit-major input order.
// An empty ParamSets means one column of server defaults.
type GridRequest struct {
	Circuits  []CircuitSpec `json:"circuits"`
	ParamSets []ParamSpec   `json:"paramSets,omitempty"`
	Options   *OptionsSpec  `json:"options,omitempty"`
}

// BenchmarkInfo is one GET /v1/benchmarks catalog entry, with the paper's
// Table 2/3 reference workload sizes.
type BenchmarkInfo struct {
	Name       string `json:"name"`
	Qubits     int    `json:"qubits"`
	Operations int    `json:"operations"`
}

// BenchmarksResponse is the GET /v1/benchmarks reply.
type BenchmarksResponse struct {
	// Benchmarks lists the paper's 18 Table 3 circuits.
	Benchmarks []BenchmarkInfo `json:"benchmarks"`
	// Families lists the recognized generator spec shapes.
	Families []string `json:"families"`
}

// CircuitInfo is the PUT/GET /v1/circuits reply: the content digest a
// stored circuit is addressed by, plus the analysis metadata.
type CircuitInfo struct {
	// Digest is the "sha256:<64 hex>" reference usable as CircuitSpec.Ref.
	Digest string `json:"digest"`
	// Name is the stored circuit's label.
	Name string `json:"name"`
	// Qubits and Operations are the register size and gate count.
	Qubits     int `json:"qubits"`
	Operations int `json:"operations"`
	// FT reports whether every gate belongs to the fault-tolerant set;
	// non-FT circuits can be stored but not estimated by reference.
	FT bool `json:"ft"`
}

// StoreStats mirrors leqa.AnalysisStoreStats on the wire: the two-tier
// content-addressed analysis store's cumulative counters. Its fields match
// those of leqa.AnalysisStoreStats one for one, so the server converts a
// snapshot to it directly.
type StoreStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	DiskHits      uint64 `json:"diskHits"`
	Puts          uint64 `json:"puts"`
	Evictions     uint64 `json:"evictions"`
	DiskEvictions uint64 `json:"diskEvictions"`
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	DiskEntries   int    `json:"diskEntries"`
	DiskBytes     int64  `json:"diskBytes"`
}

// CacheStats mirrors leqa.ZoneCacheStats and leqa.ResultMemoStats on the
// wire. Its fields match theirs one for one, so the server converts a
// cache's snapshot to it directly.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// MemoStats is the (digest, params) result memo's cumulative counters on
// the wire, the same shape as the zone-model memo's. All zero when the
// memo is disabled.
type MemoStats = CacheStats

// LatencyStats summarizes per-request estimate latency: every estimation
// request (estimate/sweep/grid) that began a successful reply, timed from
// arrival to the last byte, so a queued request's slot wait is included.
// Requests rejected up front (4xx/5xx/429 — malformed bodies, bad
// parameters, over-cap batches) and other endpoints (circuit uploads) are
// not counted.
type LatencyStats struct {
	// Count is the number of timed requests.
	Count uint64 `json:"count"`
	// SumMs and MaxMs aggregate request durations in milliseconds;
	// AvgMs = SumMs / Count.
	SumMs float64 `json:"sumMs"`
	MaxMs float64 `json:"maxMs"`
	AvgMs float64 `json:"avgMs"`
	// Buckets is a coarse non-cumulative histogram: Buckets[i] counts
	// requests with BucketBoundsMs[i-1] ≤ duration < BucketBoundsMs[i]
	// (Buckets[0] has no lower bound); the final bucket is unbounded
	// above. The bucket counts sum to Count for a quiescent server; a
	// snapshot taken while requests are completing may momentarily be off
	// by the in-flight updates (counters are lock-free, not a consistent
	// cut).
	BucketBoundsMs []float64 `json:"bucketBoundsMs"`
	Buckets        []uint64  `json:"buckets"`
}

// WindowQuantiles summarizes one sliding-window latency sketch: sample
// count plus interpolated percentiles in milliseconds (0 when the window is
// empty — check Count).
type WindowQuantiles struct {
	Count  uint64  `json:"count"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
}

// WindowEndpointStats is one endpoint's sliding-window view: completions,
// errors (5xx plus 429) and the latency quantiles of successful replies.
type WindowEndpointStats struct {
	Requests uint64          `json:"requests"`
	Errors   uint64          `json:"errors"`
	Latency  WindowQuantiles `json:"latency"`
}

// SaturationStats is the /healthz saturation block: how full the admission
// path is right now and over the sliding window.
type SaturationStats struct {
	// InFlight and QueueDepth are live gauges of admitted and queued
	// estimation requests; MaxConcurrent and MaxQueue are their configured
	// ceilings (MaxQueue 0 = reject immediately when full).
	InFlight      int64 `json:"inFlight"`
	QueueDepth    int64 `json:"queueDepth"`
	MaxConcurrent int   `json:"maxConcurrent"`
	MaxQueue      int   `json:"maxQueue"`
	// WindowSec is the sliding-window span every windowed figure covers.
	WindowSec float64 `json:"windowSec"`
	// QueueWait is the windowed slot-wait distribution (0 samples are
	// immediate admissions); its p50 prices 429 Retry-After hints.
	QueueWait WindowQuantiles `json:"queueWait"`
	// Throttled counts rejections by reason since startup: concurrency,
	// queue_timeout, body_cap, gate_cap.
	Throttled map[string]uint64 `json:"throttled"`
	// Endpoints holds the windowed per-endpoint series (estimate, sweep,
	// grid).
	Endpoints map[string]WindowEndpointStats `json:"endpoints"`
}

// SLOClauseStatus is one objective's state in the /healthz slo block.
type SLOClauseStatus struct {
	// Clause is the canonical clause string, e.g. "estimate:p99<250ms" —
	// also the clause label on the /metrics slo series.
	Clause string `json:"clause"`
	// Current and Limit are in seconds for latency clauses and a 0..1
	// ratio for error_rate. Current is 0 with HasData false when the
	// window held no traffic at the last evaluation (vacuously compliant).
	Current float64 `json:"current"`
	Limit   float64 `json:"limit"`
	HasData bool    `json:"hasData"`
	// Compliant is the last evaluation's verdict; ComplianceRatio the
	// fraction of recent evaluations compliant.
	Compliant       bool    `json:"compliant"`
	ComplianceRatio float64 `json:"complianceRatio"`
	// Breaches counts violating evaluations since startup (monotone);
	// Consecutive is the current breach run — the server degrades when it
	// reaches the configured threshold.
	Breaches    uint64 `json:"breaches"`
	Consecutive int    `json:"consecutive"`
}

// SLOStatus is the /healthz slo block, present only when the server was
// started with objectives.
type SLOStatus struct {
	// Degraded mirrors the top-level "degraded" status: some clause has
	// breached for the configured consecutive evaluations.
	Degraded    bool              `json:"degraded"`
	Ticks       uint64            `json:"ticks"`
	IntervalSec float64           `json:"intervalSec"`
	Clauses     []SLOClauseStatus `json:"clauses"`
}

// Health is the GET /healthz reply: build info plus the shared zone-model
// memo counters and the server's request/stream totals. Status is "ok", or
// "degraded" while a configured SLO clause is in sustained breach — still
// HTTP 200 (the process serves; objective state lives in the payload).
type Health struct {
	Status          string           `json:"status"`
	Version         string           `json:"version"`
	GoVersion       string           `json:"goVersion"`
	UptimeSec       float64          `json:"uptimeSec"`
	Workers         int              `json:"workers"`
	Requests        uint64           `json:"requests"`
	RowsStreamed    uint64           `json:"rowsStreamed"`
	BatchesCanceled uint64           `json:"batchesCanceled"`
	EstimateLatency LatencyStats     `json:"estimateLatency"`
	ZoneModelCache  CacheStats       `json:"zoneModelCache"`
	AnalysisStore   StoreStats       `json:"analysisStore"`
	ResultMemo      MemoStats        `json:"resultMemo"`
	Saturation      *SaturationStats `json:"saturation,omitempty"`
	SLO             *SLOStatus       `json:"slo,omitempty"`
}

// APIError is the JSON error envelope every non-2xx reply carries.
type APIError struct {
	StatusCode int    `json:"-"`
	Message    string `json:"error"`
	// RequestID is the server's correlation ID for the failed request
	// (from the X-Request-Id response header) — quote it when reporting a
	// failure so the operator can find the matching access-log line and
	// /debug/requests trace.
	RequestID string `json:"-"`
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return e.Message + " (request " + e.RequestID + ")"
	}
	return e.Message
}
