package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/leqa/client"
	"repro/leqa/trace"
)

// This file is the saturation-telemetry layer: bounded admission with a
// windowed queue-wait estimate feeding Retry-After, throttle accounting by
// reason, bounded-cardinality per-client accounting, and the SLO evaluator
// that scores the configured objectives against the per-endpoint windows
// and flips /healthz to "degraded" on sustained breach.

// throttleReasons fixes the exposition order of leqad_throttled_total.
var throttleReasons = []string{
	throttleConcurrency, throttleQueueTimeout, throttleBodyCap, throttleGateCap,
}

const (
	// throttleConcurrency: 429, the semaphore (and any queue room) was full.
	throttleConcurrency = "concurrency"
	// throttleQueueTimeout: 429, admitted to the queue but no slot freed
	// within QueueTimeout.
	throttleQueueTimeout = "queue_timeout"
	// throttleBodyCap: 413, a request body (or upload spool) over its cap.
	throttleBodyCap = "body_cap"
	// throttleGateCap: a circuit or batch over the gate/cell caps.
	throttleGateCap = "gate_cap"
)

// throttle counts one rejected request by reason.
func (s *Server) throttle(reason string) {
	if c := s.throttled[reason]; c != nil {
		c.Add(1)
	}
}

// admit acquires an estimation slot, queueing up to MaxQueue waiters for at
// most QueueTimeout when the semaphore is full (MaxQueue 0 keeps the
// historical immediate-429 behavior). An admitted request records its slot
// wait (0 when immediate) as its trace's queue span, which the server's
// sink feeds to the sliding window that prices Retry-After. The returned
// release must run when ok; on !ok the 429 (with Retry-After) is already
// written unless the client vanished first.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release = func() {
		s.inflight.Add(-1)
		<-s.sem
	}
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		trace.FromContext(r.Context()).Observe(trace.SpanQueue, "", time.Now(), 0)
		return release, true
	default:
	}
	if s.cfg.MaxQueue > 0 {
		if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
		} else {
			start := time.Now()
			t := time.NewTimer(s.cfg.QueueTimeout)
			defer t.Stop()
			defer s.queued.Add(-1)
			select {
			case s.sem <- struct{}{}:
				s.inflight.Add(1)
				trace.FromContext(r.Context()).Observe(trace.SpanQueue, "", start, time.Since(start))
				return release, true
			case <-t.C:
				s.reject(w, throttleQueueTimeout)
				return nil, false
			case <-r.Context().Done():
				// The client gave up while queued; nothing to write.
				return nil, false
			}
		}
	}
	s.reject(w, throttleConcurrency)
	return nil, false
}

// reject writes the 429 with a live Retry-After estimate.
func (s *Server) reject(w http.ResponseWriter, reason string) {
	s.throttle(reason)
	w.Header().Set("Retry-After", s.retryAfter())
	writeJSONError(w, http.StatusTooManyRequests, "server at capacity; retry shortly")
}

// retryAfter prices the 429 backoff hint from the windowed queue-wait p50 —
// how long a recently admitted request actually waited for a slot — clamped
// to [1s, 60s] whole seconds. No queue-wait data (cold server, or every
// admission was immediate) falls back to 1.
func (s *Server) retryAfter() string {
	q, ok := s.queueWait.Snapshot().Quantile(0.5)
	if !ok || q <= 0 {
		return "1"
	}
	secs := int64(math.Ceil(q.Seconds()))
	if secs < 1 {
		secs = 1
	} else if secs > 60 {
		secs = 60
	}
	return fmt.Sprintf("%d", secs)
}

// clientKey derives the bounded-cardinality accounting key of a request: a
// short digest of the Authorization credential when one is sent (stable per
// token, never the secret itself), else the peer host.
func clientKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		sum := sha256.Sum256([]byte(auth))
		return "tok:" + hex.EncodeToString(sum[:4])
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

// record accounts one finished request exactly once: its endpoint's
// counters and latency series (found from the ServeMux pattern that routed
// it; unrouted requests have none), per-client accounting for the API
// surface, and an SLO evaluation opportunity.
func (s *Server) record(r *http.Request, status, rows int, bytes int64, d time.Duration) {
	if em := s.routes[r.Pattern]; em != nil {
		em.record(status, rows, d)
	}
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		s.clients.Record(clientKey(r), rows, bytes)
	}
	if s.evaluator != nil {
		s.evaluator.MaybeTick()
	}
}

// sloSource resolves an SLO clause scope to its windowed stats: a named
// endpoint's series, or the merged estimation traffic for the empty scope.
func (s *Server) sloSource(scope string) telemetry.ScopeStats {
	scopes := []string{scope}
	if scope == "" {
		scopes = estimationEndpoints()
	}
	var st telemetry.ScopeStats
	for _, ep := range scopes {
		if em := s.endpoints[ep]; em != nil && em.latency != nil {
			st.Latency.Merge(em.latency.win.Snapshot())
			st.Requests += em.windowRequests.Total()
			st.Errors += em.windowErrors.Total()
		}
	}
	return st
}

// RunSLO evaluates the configured SLO on its interval until done closes, so
// objectives keep being scored (and breaches keep aging out) while the
// server idles. No-op without an SLO. cmd/leqad runs it as a goroutine;
// request traffic and scrapes also self-pace evaluations, so tests need not
// run it at all.
func (s *Server) RunSLO(done <-chan struct{}) {
	if s.evaluator != nil {
		s.evaluator.Run(done)
	}
}

// windowQuantiles renders one latency window for /healthz.
func windowQuantiles(h telemetry.Hist) client.WindowQuantiles {
	const msPerSec = 1e3
	q := client.WindowQuantiles{Count: h.Count()}
	if p, ok := h.Quantile(0.50); ok {
		q.P50Ms = p.Seconds() * msPerSec
	}
	if p, ok := h.Quantile(0.90); ok {
		q.P90Ms = p.Seconds() * msPerSec
	}
	if p, ok := h.Quantile(0.99); ok {
		q.P99Ms = p.Seconds() * msPerSec
	}
	if p, ok := h.Quantile(0.999); ok {
		q.P999Ms = p.Seconds() * msPerSec
	}
	return q
}

// saturationStats assembles the /healthz saturation block.
func (s *Server) saturationStats() *client.SaturationStats {
	st := &client.SaturationStats{
		InFlight:      s.inflight.Load(),
		QueueDepth:    s.queued.Load(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		MaxQueue:      s.cfg.MaxQueue,
		WindowSec:     s.winLen.Seconds(),
		QueueWait:     windowQuantiles(s.queueWait.Snapshot()),
		Throttled:     make(map[string]uint64, len(throttleReasons)),
		Endpoints:     make(map[string]client.WindowEndpointStats, len(estimationEndpoints())),
	}
	for _, reason := range throttleReasons {
		st.Throttled[reason] = s.throttled[reason].Load()
	}
	for _, ep := range estimationEndpoints() {
		em := s.endpoints[ep]
		st.Endpoints[ep] = client.WindowEndpointStats{
			Requests: em.windowRequests.Total(),
			Errors:   em.windowErrors.Total(),
			Latency:  windowQuantiles(em.latency.win.Snapshot()),
		}
	}
	return st
}

// sloStatus assembles the /healthz slo block; nil without an SLO.
func (s *Server) sloStatus() *client.SLOStatus {
	if s.evaluator == nil {
		return nil
	}
	st := s.evaluator.Status()
	out := &client.SLOStatus{
		Degraded:    st.Degraded,
		Ticks:       st.Ticks,
		IntervalSec: st.Interval.Seconds(),
		Clauses:     make([]client.SLOClauseStatus, len(st.Clauses)),
	}
	for i, c := range st.Clauses {
		out.Clauses[i] = client.SLOClauseStatus{
			Clause:          c.Clause,
			Current:         c.Current,
			Limit:           c.Limit,
			HasData:         c.HasData,
			Compliant:       c.Compliant,
			ComplianceRatio: c.ComplianceRatio,
			Breaches:        c.Breaches,
			Consecutive:     c.Consecutive,
		}
	}
	return out
}

// handleDebugClients serves the bounded per-client accounting table — who
// is sending the traffic right now — sorted by windowed request count.
func (s *Server) handleDebugClients(w http.ResponseWriter, r *http.Request) {
	snap := s.clients.Snapshot()
	type row struct {
		Client         string    `json:"client"`
		Requests       uint64    `json:"requests"`
		Rows           uint64    `json:"rows"`
		Bytes          uint64    `json:"bytes"`
		WindowRequests uint64    `json:"windowRequests"`
		WindowRows     uint64    `json:"windowRows"`
		WindowBytes    uint64    `json:"windowBytes"`
		LastSeen       time.Time `json:"lastSeen"`
	}
	rows := make([]row, len(snap))
	for i, c := range snap {
		rows[i] = row{
			Client:         c.Key,
			Requests:       c.Requests,
			Rows:           c.Rows,
			Bytes:          c.Bytes,
			WindowRequests: c.WindowRequests,
			WindowRows:     c.WindowRows,
			WindowBytes:    c.WindowBytes,
			LastSeen:       c.LastSeen,
		}
	}
	writeJSON(w, http.StatusOK, struct {
		WindowSec float64 `json:"windowSec"`
		Clients   []row   `json:"clients"`
	}{s.winLen.Seconds(), rows})
}
