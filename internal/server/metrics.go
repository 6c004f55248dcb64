package server

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/leqa"
	"repro/leqa/client"
	"repro/leqa/trace"
)

// metricsEndpoints fixes the exposition order of the per-endpoint series;
// the first three are the estimation endpoints.
var metricsEndpoints = [...]string{"estimate", "sweep", "grid", "circuits", "benchmarks", "healthz"}

// metricsPhases fixes the exposition order of the per-phase series.
var metricsPhases = [...]string{trace.SpanIngest, trace.SpanAnalyze, trace.SpanEstimate}

// estimationEndpoints returns the endpoints that carry rows and latency.
func estimationEndpoints() []string { return metricsEndpoints[:3] }

// latencyBucketBounds are the upper edges of the coarse lifetime latency
// histogram; the final bucket is unbounded.
var latencyBucketBounds = [...]time.Duration{
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second,
}

// latencySeries is one latency series behind a single observe: a lifetime
// histogram (count/sum/max plus coarse buckets, lock-free counters) for
// /metrics and /healthz, and the sliding window behind the *_window_*
// summaries and SLO clauses. Both halves see every observation, so their
// counts and sums agree.
type latencySeries struct {
	count    atomic.Uint64
	sumNanos atomic.Uint64
	maxNanos atomic.Uint64
	buckets  [len(latencyBucketBounds) + 1]atomic.Uint64
	win      *telemetry.Window
}

func newLatencySeries(wopt telemetry.WindowOptions) *latencySeries {
	return &latencySeries{win: telemetry.NewWindow(wopt)}
}

func (l *latencySeries) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d.Nanoseconds())
	l.count.Add(1)
	l.sumNanos.Add(ns)
	for {
		cur := l.maxNanos.Load()
		if ns <= cur || l.maxNanos.CompareAndSwap(cur, ns) {
			break
		}
	}
	idx := len(latencyBucketBounds)
	for i, bound := range latencyBucketBounds {
		if d < bound {
			idx = i
			break
		}
	}
	l.buckets[idx].Add(1)
	l.win.Observe(d)
}

// endpointMetrics is one endpoint's request accounting, written once per
// request by finishRequest. Every endpoint counts requests; the estimation
// endpoints also carry rows, a latency series and windowed completion and
// error counters (nil elsewhere — nothing reads them).
type endpointMetrics struct {
	requests       atomic.Uint64
	rows           atomic.Uint64
	latency        *latencySeries
	windowRequests *telemetry.Counter
	windowErrors   *telemetry.Counter
}

// record accounts one finished request: its status, the rows it emitted
// and its arrival → last byte duration. Only replies that began
// successfully are timed, so requests rejected before estimation
// (malformed bodies, bad parameters, 429s) cannot drag the latency toward
// zero; 5xx and 429 count as windowed errors.
func (e *endpointMetrics) record(status, rows int, d time.Duration) {
	e.requests.Add(1)
	if e.latency == nil {
		return
	}
	e.rows.Add(uint64(rows))
	e.windowRequests.Add(1)
	if status >= http.StatusInternalServerError || status == http.StatusTooManyRequests {
		e.windowErrors.Add(1)
	}
	if status >= http.StatusOK && status < http.StatusBadRequest {
		e.latency.observe(d)
	}
}

// observeSpan is the Server's trace.Sink: queue spans feed the queue-wait
// window that prices Retry-After, pipeline phases their latency series.
// Emit spans need no sink — finishRequest counts them per request.
func (s *Server) observeSpan(name string, d time.Duration) {
	if name == trace.SpanQueue {
		s.queueWait.Observe(d)
		return
	}
	for i, phase := range metricsPhases {
		if phase == name {
			s.phaseLat[i].observe(d)
			return
		}
	}
}

// estimateLatency merges the estimation endpoints' lifetime histograms into
// the /healthz estimateLatency block.
func (s *Server) estimateLatency() client.LatencyStats {
	const msPerNano = 1e-6
	st := client.LatencyStats{
		BucketBoundsMs: make([]float64, len(latencyBucketBounds)),
		Buckets:        make([]uint64, len(latencyBucketBounds)+1),
	}
	var sum, maxNs uint64
	for _, name := range estimationEndpoints() {
		l := s.endpoints[name].latency
		st.Count += l.count.Load()
		sum += l.sumNanos.Load()
		maxNs = max(maxNs, l.maxNanos.Load())
		for i := range l.buckets {
			st.Buckets[i] += l.buckets[i].Load()
		}
	}
	st.SumMs = float64(sum) * msPerNano
	st.MaxMs = float64(maxNs) * msPerNano
	if st.Count > 0 {
		st.AvgMs = st.SumMs / float64(st.Count)
	}
	for i, bound := range latencyBucketBounds {
		st.BucketBoundsMs[i] = float64(bound) * msPerNano
	}
	return st
}

// handleMetrics serves the Prometheus text exposition format (hand-rolled —
// the service carries no client library): per-endpoint request, streamed-row
// and request-duration series, plus the process-wide batch, spool and
// zone-model-cache counters /healthz also reports. /healthz keeps its JSON
// schema untouched; /metrics is the scrape surface.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.evaluator != nil {
		// Scrapes are an evaluation opportunity: an idle server's objectives
		// keep being scored at scrape cadence even without RunSLO.
		s.evaluator.MaybeTick()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	fmt.Fprintf(bw, "# HELP leqad_requests_total Requests received, by endpoint.\n")
	fmt.Fprintf(bw, "# TYPE leqad_requests_total counter\n")
	for _, name := range metricsEndpoints {
		fmt.Fprintf(bw, "leqad_requests_total{endpoint=%q} %d\n", name, s.endpoints[name].requests.Load())
	}

	fmt.Fprintf(bw, "# HELP leqad_rows_streamed_total Result rows delivered, by endpoint.\n")
	fmt.Fprintf(bw, "# TYPE leqad_rows_streamed_total counter\n")
	for _, name := range estimationEndpoints() {
		fmt.Fprintf(bw, "leqad_rows_streamed_total{endpoint=%q} %d\n", name, s.endpoints[name].rows.Load())
	}

	fmt.Fprintf(bw, "# HELP leqad_request_duration_seconds Duration of successfully answered estimation requests, by endpoint.\n")
	fmt.Fprintf(bw, "# TYPE leqad_request_duration_seconds histogram\n")
	for _, name := range estimationEndpoints() {
		writeHistogram(bw, "leqad_request_duration_seconds", "endpoint", name, s.endpoints[name].latency)
	}

	fmt.Fprintf(bw, "# HELP leqad_phase_duration_seconds Duration of estimation pipeline phases (ingest: source acquisition; analyze: fused graph build, including parsing for streamed netlists; estimate: Algorithm 1).\n")
	fmt.Fprintf(bw, "# TYPE leqad_phase_duration_seconds histogram\n")
	for i, name := range metricsPhases {
		writeHistogram(bw, "leqad_phase_duration_seconds", "phase", name, s.phaseLat[i])
	}

	s.writeWindowMetrics(bw)

	fmt.Fprintf(bw, "# HELP leqad_batches_canceled_total Batches ended early by cancellation or disconnect.\n")
	fmt.Fprintf(bw, "# TYPE leqad_batches_canceled_total counter\n")
	fmt.Fprintf(bw, "leqad_batches_canceled_total %d\n", s.batchesCanceled.Load())

	fmt.Fprintf(bw, "# HELP leqad_spooled_uploads_total Raw netlist uploads that went through the disk spool.\n")
	fmt.Fprintf(bw, "# TYPE leqad_spooled_uploads_total counter\n")
	fmt.Fprintf(bw, "leqad_spooled_uploads_total %d\n", s.spooledUploads.Load())
	fmt.Fprintf(bw, "# HELP leqad_spooled_bytes_total Netlist bytes written to upload spools.\n")
	fmt.Fprintf(bw, "# TYPE leqad_spooled_bytes_total counter\n")
	fmt.Fprintf(bw, "leqad_spooled_bytes_total %d\n", s.spooledBytes.Load())

	as := s.store.Stats()
	writeFamilies(bw, "counter",
		family{"leqad_analysis_store_hits_total", "Analysis store memory-tier hits.", as.Hits},
		family{"leqad_analysis_store_misses_total", "Analysis store misses (full analyses run).", as.Misses},
		family{"leqad_analysis_store_disk_hits_total", "Analysis store hits served from persisted images.", as.DiskHits},
		family{"leqad_analysis_store_puts_total", "Analysis images written to the disk tier.", as.Puts},
		family{"leqad_analysis_store_evictions_total", "Analysis store memory-tier LRU evictions.", as.Evictions},
		family{"leqad_analysis_store_disk_evictions_total", "Analysis images evicted to respect the disk cap.", as.DiskEvictions})
	writeFamilies(bw, "gauge",
		family{"leqad_analysis_store_entries", "Analysis store resident memory-tier entries.", as.Entries},
		family{"leqad_analysis_store_disk_bytes", "Analysis store disk-tier occupancy in bytes.", as.DiskBytes})

	st := leqa.ZoneModelCacheStats()
	writeFamilies(bw, "counter",
		family{"leqad_zone_model_cache_hits_total", "Zone-model memo hits.", st.Hits},
		family{"leqad_zone_model_cache_misses_total", "Zone-model memo misses.", st.Misses},
		family{"leqad_zone_model_cache_evictions_total", "Zone-model memo evictions.", st.Evictions})
	writeFamilies(bw, "gauge",
		family{"leqad_zone_model_cache_entries", "Zone-model memo resident entries.", st.Entries})

	var rm leqa.ResultMemoStats
	if s.memo != nil {
		rm = s.memo.Stats()
	}
	writeFamilies(bw, "counter",
		family{"leqad_result_memo_hits_total", "Result memo hits: (digest, params) cells served without analyze or estimate.", rm.Hits},
		family{"leqad_result_memo_misses_total", "Result memo misses (cells computed and published).", rm.Misses},
		family{"leqad_result_memo_evictions_total", "Result memo LRU evictions.", rm.Evictions})
	writeFamilies(bw, "gauge",
		family{"leqad_result_memo_entries", "Result memo resident entries.", rm.Entries})

	fmt.Fprintf(bw, "# HELP leqad_workers Estimation worker-pool size.\n")
	fmt.Fprintf(bw, "# TYPE leqad_workers gauge\n")
	fmt.Fprintf(bw, "leqad_workers %d\n", s.runner.Workers())
	fmt.Fprintf(bw, "# HELP leqad_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(bw, "# TYPE leqad_uptime_seconds gauge\n")
	fmt.Fprintf(bw, "leqad_uptime_seconds %g\n", time.Since(s.start).Seconds())

	fmt.Fprintf(bw, "# HELP leqad_panics_total Handler panics recovered by the request middleware.\n")
	fmt.Fprintf(bw, "# TYPE leqad_panics_total counter\n")
	fmt.Fprintf(bw, "leqad_panics_total %d\n", s.panics.Load())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(bw, "# HELP leqad_goroutines Live goroutines.\n")
	fmt.Fprintf(bw, "# TYPE leqad_goroutines gauge\n")
	fmt.Fprintf(bw, "leqad_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(bw, "# HELP leqad_heap_inuse_bytes Heap bytes in in-use spans.\n")
	fmt.Fprintf(bw, "# TYPE leqad_heap_inuse_bytes gauge\n")
	fmt.Fprintf(bw, "leqad_heap_inuse_bytes %d\n", ms.HeapInuse)
	fmt.Fprintf(bw, "# HELP leqad_heap_sys_bytes Heap bytes obtained from the OS.\n")
	fmt.Fprintf(bw, "# TYPE leqad_heap_sys_bytes gauge\n")
	fmt.Fprintf(bw, "leqad_heap_sys_bytes %d\n", ms.HeapSys)
	fmt.Fprintf(bw, "# HELP leqad_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n")
	fmt.Fprintf(bw, "# TYPE leqad_gc_pause_seconds_total counter\n")
	fmt.Fprintf(bw, "leqad_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(bw, "# HELP leqad_gomaxprocs GOMAXPROCS at scrape time.\n")
	fmt.Fprintf(bw, "# TYPE leqad_gomaxprocs gauge\n")
	fmt.Fprintf(bw, "leqad_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
}

// family is one single-series metric family: a cache counter or gauge.
type family struct {
	name, help string
	value      any // an integer
}

// writeFamilies renders single-series families of one metric type — the
// one path the analysis store, the zone-model memo and the result memo
// expose their counters through.
func writeFamilies(bw *bufio.Writer, typ string, fs ...family) {
	for _, f := range fs {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", f.name, f.help, f.name, typ, f.name, f.value)
	}
}

// windowQuantileLabels fixes the quantile label values of the windowed
// latency series.
var windowQuantileLabels = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999},
}

// writeWindowSummary renders one latency window as a Prometheus summary:
// quantile-labeled series plus _sum and _count. Unlike a client-library
// summary the figures cover the sliding window, not the process lifetime —
// the HELP text says so.
func writeWindowSummary(bw *bufio.Writer, metric, label, value string, h telemetry.Hist) {
	for _, ql := range windowQuantileLabels {
		v, _ := h.Quantile(ql.q) // 0 when empty; the _count series disambiguates
		fmt.Fprintf(bw, "%s{%s=%q,quantile=%q} %g\n", metric, label, value, ql.label, v.Seconds())
	}
	fmt.Fprintf(bw, "%s_sum{%s=%q} %g\n", metric, label, value, h.Sum().Seconds())
	fmt.Fprintf(bw, "%s_count{%s=%q} %d\n", metric, label, value, h.Count())
}

// writeWindowMetrics renders the sliding-window and saturation families:
// throttle counters, admission gauges, the queue-wait sketch, per-endpoint
// windowed latency/completions/errors, per-phase windows, the SLO series
// (when configured) and the bounded per-client accounting.
func (s *Server) writeWindowMetrics(bw *bufio.Writer) {
	fmt.Fprintf(bw, "# HELP leqad_throttled_total Requests rejected by capacity controls, by reason (concurrency: semaphore full; queue_timeout: no slot within the queued wait; body_cap: request body or spool over its byte cap; gate_cap: circuit or batch over the gate/cell caps).\n")
	fmt.Fprintf(bw, "# TYPE leqad_throttled_total counter\n")
	for _, reason := range throttleReasons {
		fmt.Fprintf(bw, "leqad_throttled_total{reason=%q} %d\n", reason, s.throttled[reason].Load())
	}

	fmt.Fprintf(bw, "# HELP leqad_inflight_requests Estimation requests holding a concurrency slot right now.\n")
	fmt.Fprintf(bw, "# TYPE leqad_inflight_requests gauge\n")
	fmt.Fprintf(bw, "leqad_inflight_requests %d\n", s.inflight.Load())
	fmt.Fprintf(bw, "# HELP leqad_queue_depth Estimation requests waiting for a slot right now.\n")
	fmt.Fprintf(bw, "# TYPE leqad_queue_depth gauge\n")
	fmt.Fprintf(bw, "leqad_queue_depth %d\n", s.queued.Load())

	fmt.Fprintf(bw, "# HELP leqad_window_seconds Span of the sliding window behind every *_window_* series.\n")
	fmt.Fprintf(bw, "# TYPE leqad_window_seconds gauge\n")
	fmt.Fprintf(bw, "leqad_window_seconds %g\n", s.winLen.Seconds())

	fmt.Fprintf(bw, "# HELP leqad_queue_wait_window_seconds Windowed slot-wait quantiles (0 = admitted immediately); the p50 prices 429 Retry-After.\n")
	fmt.Fprintf(bw, "# TYPE leqad_queue_wait_window_seconds summary\n")
	qw := s.queueWait.Snapshot()
	for _, ql := range windowQuantileLabels {
		v, _ := qw.Quantile(ql.q)
		fmt.Fprintf(bw, "leqad_queue_wait_window_seconds{quantile=%q} %g\n", ql.label, v.Seconds())
	}
	fmt.Fprintf(bw, "leqad_queue_wait_window_seconds_sum %g\n", qw.Sum().Seconds())
	fmt.Fprintf(bw, "leqad_queue_wait_window_seconds_count %d\n", qw.Count())

	fmt.Fprintf(bw, "# HELP leqad_request_latency_window_seconds Windowed latency quantiles of successfully answered requests, by endpoint.\n")
	fmt.Fprintf(bw, "# TYPE leqad_request_latency_window_seconds summary\n")
	for _, name := range estimationEndpoints() {
		writeWindowSummary(bw, "leqad_request_latency_window_seconds", "endpoint", name, s.endpoints[name].latency.win.Snapshot())
	}

	fmt.Fprintf(bw, "# HELP leqad_window_requests Requests completed inside the sliding window, by endpoint.\n")
	fmt.Fprintf(bw, "# TYPE leqad_window_requests gauge\n")
	for _, name := range estimationEndpoints() {
		fmt.Fprintf(bw, "leqad_window_requests{endpoint=%q} %d\n", name, s.endpoints[name].windowRequests.Total())
	}
	fmt.Fprintf(bw, "# HELP leqad_window_errors Requests failed (5xx or 429) inside the sliding window, by endpoint.\n")
	fmt.Fprintf(bw, "# TYPE leqad_window_errors gauge\n")
	for _, name := range estimationEndpoints() {
		fmt.Fprintf(bw, "leqad_window_errors{endpoint=%q} %d\n", name, s.endpoints[name].windowErrors.Total())
	}

	fmt.Fprintf(bw, "# HELP leqad_phase_latency_window_seconds Windowed latency quantiles of estimation pipeline phases.\n")
	fmt.Fprintf(bw, "# TYPE leqad_phase_latency_window_seconds summary\n")
	for i, name := range metricsPhases {
		writeWindowSummary(bw, "leqad_phase_latency_window_seconds", "phase", name, s.phaseLat[i].win.Snapshot())
	}

	if s.evaluator != nil {
		st := s.evaluator.Status()
		fmt.Fprintf(bw, "# HELP leqad_slo_compliance_ratio Fraction of recent SLO evaluations compliant, by clause.\n")
		fmt.Fprintf(bw, "# TYPE leqad_slo_compliance_ratio gauge\n")
		for _, c := range st.Clauses {
			fmt.Fprintf(bw, "leqad_slo_compliance_ratio{clause=%q} %g\n", c.Clause, c.ComplianceRatio)
		}
		fmt.Fprintf(bw, "# HELP leqad_slo_breaches_total SLO evaluations in violation since startup, by clause.\n")
		fmt.Fprintf(bw, "# TYPE leqad_slo_breaches_total counter\n")
		for _, c := range st.Clauses {
			fmt.Fprintf(bw, "leqad_slo_breaches_total{clause=%q} %d\n", c.Clause, c.Breaches)
		}
		fmt.Fprintf(bw, "# HELP leqad_slo_current SLO clause's last evaluated value (seconds for latency clauses, ratio for error_rate).\n")
		fmt.Fprintf(bw, "# TYPE leqad_slo_current gauge\n")
		for _, c := range st.Clauses {
			fmt.Fprintf(bw, "leqad_slo_current{clause=%q} %g\n", c.Clause, c.Current)
		}
		degraded := 0
		if st.Degraded {
			degraded = 1
		}
		fmt.Fprintf(bw, "# HELP leqad_slo_degraded 1 while any clause is in sustained breach (healthz reports \"degraded\").\n")
		fmt.Fprintf(bw, "# TYPE leqad_slo_degraded gauge\n")
		fmt.Fprintf(bw, "leqad_slo_degraded %d\n", degraded)
	}

	clients := s.clients.Snapshot()
	fmt.Fprintf(bw, "# HELP leqad_client_requests_total Completed API requests by client (auth-token digest or peer host; bounded cardinality, evicted clients fold into \"other\").\n")
	fmt.Fprintf(bw, "# TYPE leqad_client_requests_total counter\n")
	for _, c := range clients {
		fmt.Fprintf(bw, "leqad_client_requests_total{client=%q} %d\n", c.Key, c.Requests)
	}
	fmt.Fprintf(bw, "# HELP leqad_client_rows_total Result rows streamed by client.\n")
	fmt.Fprintf(bw, "# TYPE leqad_client_rows_total counter\n")
	for _, c := range clients {
		fmt.Fprintf(bw, "leqad_client_rows_total{client=%q} %d\n", c.Key, c.Rows)
	}
	fmt.Fprintf(bw, "# HELP leqad_client_window_requests Requests completed inside the sliding window, by client.\n")
	fmt.Fprintf(bw, "# TYPE leqad_client_window_requests gauge\n")
	for _, c := range clients {
		fmt.Fprintf(bw, "leqad_client_window_requests{client=%q} %d\n", c.Key, c.WindowRequests)
	}
}

// writeHistogram renders one latency series' lifetime histogram as a
// cumulative Prometheus histogram under a single label (endpoint=... or
// phase=...). The buckets are non-cumulative and lock-free, so a scrape
// racing live updates can be off by in-flight observations — the standard
// tolerance for atomically maintained histograms. _sum renders exactly like
// the window summary's, so a quiescent series prints equal sums in both.
func writeHistogram(bw *bufio.Writer, metric, label, value string, l *latencySeries) {
	cum := uint64(0)
	for i, bound := range latencyBucketBounds {
		cum += l.buckets[i].Load()
		fmt.Fprintf(bw, "%s_bucket{%s=%q,le=%q} %d\n", metric, label, value, formatSeconds(bound), cum)
	}
	cum += l.buckets[len(latencyBucketBounds)].Load()
	fmt.Fprintf(bw, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", metric, label, value, cum)
	fmt.Fprintf(bw, "%s_sum{%s=%q} %g\n", metric, label, value, time.Duration(l.sumNanos.Load()).Seconds())
	fmt.Fprintf(bw, "%s_count{%s=%q} %d\n", metric, label, value, l.count.Load())
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}
