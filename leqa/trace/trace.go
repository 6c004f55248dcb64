// Package trace is the request-scoped observability layer of this
// repository: a Trace carried in a context.Context collects timed span
// records (queue-wait, ingest, analyze, estimate, per-row emit) as one
// request moves through the estimation pipeline, so a slow request is
// attributable phase by phase — which circuit, which store outcome, how
// many shards.
//
// A Trace is also the one recording path for latency metrics: New takes an
// optional Sink that sees every span's name and duration, so the leqad
// server feeds its per-server histograms and sliding windows from the same
// spans its Server-Timing headers and /debug/requests records sum.
//
// The package is deliberately small and dependency-free: the leqa engine
// records spans through it, the leqad server threads one Trace per HTTP
// request (accepting X-Request-Id / W3C traceparent correlation IDs),
// renders Server-Timing headers from it, and keeps a Ring of the last N
// finished traces behind GET /debug/requests. A nil *Trace is a valid
// no-op receiver, and contexts without a trace cost one Value lookup on
// the hot path — the estimate benchmarks run with no trace attached and
// must stay allocation-free.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical span names — the one vocabulary of /metrics phase series,
// Server-Timing entries and /debug/requests records. One estimation passes
// through up to three pipeline phases:
//
//   - SpanIngest — acquiring the gate source: generating a named benchmark,
//     opening a lazy stream source, or resolving a leqad circuit spec.
//     In-memory circuit sources have no ingest phase.
//   - SpanAnalyze — the fused graph build (QODG + IIG). For streamed
//     sources this includes gate parsing: streaming fuses parse and build
//     by design, so the parse cost is billed to the analysis that consumes
//     it. By-reference sources record a zero-duration analyze span that
//     carries the store outcome.
//   - SpanEstimate — Algorithm 1 itself (weights, critical path, zone
//     model).
//
// Queue and emit exist only per request.
const (
	SpanQueue    = "queue"    // admission: wait for a worker slot (0 when immediate)
	SpanIngest   = "ingest"   // source acquisition (generate, open, spool)
	SpanAnalyze  = "analyze"  // fused QODG+IIG graph build (incl. parse)
	SpanEstimate = "estimate" // Algorithm 1 itself
	SpanEmit     = "emit"     // encoding + flushing result rows
)

// spanOrder fixes the rendering order of aggregated phases in
// Server-Timing headers and breakdown strings.
var spanOrder = []string{SpanQueue, SpanIngest, SpanAnalyze, SpanEstimate, SpanEmit}

// MaxSpans bounds the individual span records one Trace retains. Aggregate
// per-name totals keep counting past the cap — a 4096-cell grid keeps its
// full per-phase time accounting while only the first MaxSpans rows appear
// span-by-span in /debug/requests.
const MaxSpans = 96

// Span is one timed pipeline step inside a request.
type Span struct {
	// Name is the step's canonical label (SpanQueue ... SpanEmit).
	Name string `json:"name"`
	// Detail carries step attributes: "store=hit", "shards=4", "row=17".
	Detail string `json:"detail,omitempty"`
	// OffsetMs is the span's start relative to the trace start.
	OffsetMs float64 `json:"offsetMs"`
	// DurMs is the span's wall-clock duration.
	DurMs float64 `json:"durMs"`
}

// PhaseTotal aggregates every span sharing one name — the per-phase
// breakdown Server-Timing and slow-request logs report.
type PhaseTotal struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	SumMs float64 `json:"sumMs"`
	// Detail is the first non-empty span detail seen under this name; for
	// single-circuit requests that is the analyze outcome itself.
	Detail string `json:"detail,omitempty"`
}

// Sink receives every span a Trace observes — name and clamped duration,
// including spans past the MaxSpans retention cap — so aggregates built
// from it match Totals. It runs on the recording goroutine, outside the
// trace's lock, and must be safe for concurrent use and cheap: it sits on
// the estimate path of every traced request.
type Sink func(name string, d time.Duration)

// Trace accumulates one request's span records. Safe for concurrent use —
// sweep workers on several goroutines report into the same request's
// trace. The zero value is unusable; construct with New.
type Trace struct {
	id    string
	start time.Time
	sink  Sink

	mu      sync.Mutex
	spans   []Span
	dropped int
	totals  []phaseAgg
}

type phaseAgg struct {
	name   string
	count  int
	sum    time.Duration
	detail string
}

// New builds a trace identified by id (Generate one when the caller has no
// inbound correlation ID) starting now. sink, when non-nil, sees every
// span Observe records.
func New(id string, sink Sink) *Trace {
	return &Trace{id: id, start: time.Now(), sink: sink}
}

// ID reports the trace's correlation ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start reports when the trace began.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Observe records one finished span that began at start and took d, and
// hands it to the trace's sink. A nil trace ignores the call, so engine
// code can record unconditionally.
func (t *Trace) Observe(name, detail string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.record(name, detail, start, d)
	if t.sink != nil {
		t.sink(name, d)
	}
}

// record adds one span to the retained list and the per-name totals.
func (t *Trace) record(name, detail string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < MaxSpans {
		t.spans = append(t.spans, Span{
			Name:     name,
			Detail:   detail,
			OffsetMs: durMs(start.Sub(t.start)),
			DurMs:    durMs(d),
		})
	} else {
		t.dropped++
	}
	for i := range t.totals {
		if t.totals[i].name == name {
			t.totals[i].count++
			t.totals[i].sum += d
			if t.totals[i].detail == "" {
				t.totals[i].detail = detail
			}
			return
		}
	}
	t.totals = append(t.totals, phaseAgg{name: name, count: 1, sum: d, detail: detail})
}

// Spans returns a copy of the retained span records in arrival order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Totals returns the per-phase aggregates in canonical phase order (names
// outside the canonical set follow, in first-seen order).
func (t *Trace) Totals() []PhaseTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PhaseTotal, 0, len(t.totals))
	for _, agg := range t.totals {
		out = append(out, PhaseTotal{
			Name:   agg.name,
			Count:  agg.count,
			SumMs:  durMs(agg.sum),
			Detail: agg.detail,
		})
	}
	rank := func(name string) int {
		for i, n := range spanOrder {
			if n == name {
				return i
			}
		}
		return len(spanOrder)
	}
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i].Name) < rank(out[j].Name) })
	return out
}

// Dropped reports how many spans exceeded the retention cap (their time is
// still counted in Totals).
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// ServerTiming renders the per-phase totals as a Server-Timing header
// value (durations in milliseconds, details as desc), e.g.
//
//	queue;dur=0.02, analyze;dur=31.40;desc="store=miss shards=2", estimate;dur=12.11
//
// Empty when nothing was observed.
func (t *Trace) ServerTiming() string {
	totals := t.Totals()
	if len(totals) == 0 {
		return ""
	}
	var b strings.Builder
	for i, pt := range totals {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.2f", pt.Name, pt.SumMs)
		if pt.Detail != "" {
			fmt.Fprintf(&b, ";desc=%q", pt.Detail)
		}
	}
	return b.String()
}

// Breakdown renders a human-readable multi-line span summary — the
// cmd/leqa -trace footer and the slow-request log payload.
func (t *Trace) Breakdown() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %.2fms total\n", t.ID(), durMs(time.Since(t.start)))
	for _, pt := range t.Totals() {
		fmt.Fprintf(&b, "  %-9s %10.2fms", pt.Name, pt.SumMs)
		if pt.Count > 1 {
			fmt.Fprintf(&b, "  (%d spans)", pt.Count)
		}
		if pt.Detail != "" {
			fmt.Fprintf(&b, "  [%s]", pt.Detail)
		}
		b.WriteByte('\n')
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "  (+%d spans beyond the %d-span retention cap)\n", d, MaxSpans)
	}
	return b.String()
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

type ctxKey struct{}

// NewContext returns a context carrying t; engine code below it records
// spans on the request's trace.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext extracts the context's trace; nil when none is attached
// (every method tolerates a nil receiver, so the result can be used
// unconditionally).
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Generate mints a fresh 16-hex-character request ID from crypto/rand.
func Generate() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand never fails on supported platforms; a degraded ID
		// beats a dead request path.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(buf[:])
}

// ParseTraceparent extracts the 32-hex trace-id field of a W3C
// traceparent header ("00-<32 hex>-<16 hex>-<2 hex>"); false when the
// value does not parse.
func ParseTraceparent(s string) (string, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || len(parts[1]) != 32 || !isHex(parts[1]) || parts[1] == strings.Repeat("0", 32) {
		return "", false
	}
	return parts[1], true
}

// RequestID resolves one request's correlation ID from inbound headers:
// X-Request-Id wins, then a W3C traceparent's trace-id, then a freshly
// generated ID. generated reports whether the ID was minted here. IDs are
// sanitized to at most 64 header-safe characters so hostile values cannot
// smuggle header or log structure.
func RequestID(xRequestID, traceparent string) (id string, generated bool) {
	if id := sanitizeID(xRequestID); id != "" {
		return id, false
	}
	if id, ok := ParseTraceparent(traceparent); ok {
		return id, false
	}
	return Generate(), true
}

// sanitizeID keeps printable non-space ASCII (minus '"' and '\\'), capped
// at 64 characters; anything else empties the ID so a fresh one is minted.
func sanitizeID(s string) string {
	if len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return s
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}
