package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/leqa"
	"repro/leqa/client"
	"repro/leqa/trace"
)

// syncBuffer lets concurrent slog handlers share one capture buffer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes every JSON access-log line captured so far.
func logLines(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// debugRequests fetches and decodes GET /debug/requests.
func debugRequests(t *testing.T, baseURL string) []trace.Snapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests: %d", resp.StatusCode)
	}
	var out struct {
		Requests []trace.Snapshot `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Requests
}

func findSnapshot(snaps []trace.Snapshot, id string) *trace.Snapshot {
	for i := range snaps {
		if snaps[i].ID == id {
			return &snaps[i]
		}
	}
	return nil
}

// TestRequestTraceEndToEnd drives one estimate with a caller-chosen
// X-Request-Id and follows it through every observability surface: the
// echoed response header, the Server-Timing phase breakdown, the JSON
// access log, and the /debug/requests ring — the slow-request
// attribution path, end to end.
func TestRequestTraceEndToEnd(t *testing.T) {
	logBuf := &syncBuffer{}
	ts, _ := newTestServer(t, server.Config{
		Logger: slog.New(slog.NewJSONHandler(logBuf, nil)),
	})

	body := gridBody(t, client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "ham7"},
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "test-req-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)

	// 1. The response echoes the caller's correlation ID.
	if got := resp.Header.Get("X-Request-Id"); got != "test-req-1" {
		t.Fatalf("X-Request-Id = %q, want test-req-1", got)
	}

	// 2. Server-Timing breaks the request down by pipeline phase, with the
	// analyze attributes (the gate count) as desc.
	// emit is absent here by construction: the header goes out before the
	// reply is encoded, so the emit span only appears in the ring snapshot
	// (and, for streamed batches, the Server-Timing trailer).
	st := resp.Header.Get("Server-Timing")
	for _, phase := range []string{"queue;dur=", "ingest;dur=", "analyze;dur=", "estimate;dur="} {
		if !strings.Contains(st, phase) {
			t.Errorf("Server-Timing %q missing %q", st, phase)
		}
	}
	if !strings.Contains(st, "gates=") {
		t.Errorf("Server-Timing %q missing analyze gates= detail", st)
	}

	// 3. The ring holds the full span record under the same ID.
	snap := findSnapshot(debugRequests(t, ts.URL), "test-req-1")
	if snap == nil {
		t.Fatal("request test-req-1 not in /debug/requests")
	}
	if snap.Method != "POST" || snap.Path != "/v1/estimate" || snap.Status != http.StatusOK {
		t.Errorf("snapshot envelope = %s %s %d", snap.Method, snap.Path, snap.Status)
	}
	phases := map[string]bool{}
	for _, sp := range snap.Spans {
		phases[sp.Name] = true
	}
	for _, want := range []string{trace.SpanQueue, trace.SpanIngest, trace.SpanAnalyze, trace.SpanEstimate, trace.SpanEmit} {
		if !phases[want] {
			t.Errorf("snapshot missing %s span (have %v)", want, snap.Spans)
		}
	}
	if snap.DurMs <= 0 {
		t.Errorf("snapshot DurMs = %v", snap.DurMs)
	}

	// 4. The access log carries the same ID with status and duration.
	var reqLine map[string]any
	for _, m := range logLines(t, logBuf) {
		if m["msg"] == "request" && m["id"] == "test-req-1" {
			reqLine = m
		}
	}
	if reqLine == nil {
		t.Fatalf("no access-log line for test-req-1 in:\n%s", logBuf.String())
	}
	if reqLine["method"] != "POST" || reqLine["path"] != "/v1/estimate" || reqLine["status"] != float64(200) {
		t.Errorf("access log line = %v", reqLine)
	}
	if _, ok := reqLine["dur_ms"].(float64); !ok {
		t.Errorf("access log line missing dur_ms: %v", reqLine)
	}
}

// TestTraceStoreOutcome pins the analyze span's store attribution for
// by-reference estimates: the first request misses (full analysis), the
// second is a memory-tier hit — and each request's /debug/requests record
// says which.
func TestTraceStoreOutcome(t *testing.T) {
	ts, c := newTestServer(t, server.Config{})
	qc := ".v a b c d\n.i a b c\nBEGIN\nH a\nCNOT a b\nT c\nCNOT b d\nT* d\nCNOT a d\nEND\n"
	info, err := c.PutCircuit(context.Background(), "tiny", strings.NewReader(qc))
	if err != nil {
		t.Fatal(err)
	}

	estimateByRef := func(id string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate",
			gridBody(t, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Ref: info.Digest}}))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", id)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("by-ref estimate: %d", resp.StatusCode)
		}
	}
	// PutCircuit already analyzed the upload, so the first by-ref request
	// is served from the memory tier.
	estimateByRef("ref-hit-1")

	snaps := debugRequests(t, ts.URL)
	snap := findSnapshot(snaps, "ref-hit-1")
	if snap == nil {
		t.Fatal("ref-hit-1 not in /debug/requests")
	}
	detail := ""
	for _, sp := range snap.Spans {
		if sp.Name == trace.SpanAnalyze {
			detail = sp.Detail
		}
	}
	if !strings.Contains(detail, "store=hit") {
		t.Fatalf("by-ref analyze span detail = %q, want store=hit", detail)
	}
}

// TestTraceparentCorrelation accepts a W3C traceparent when no
// X-Request-Id is present.
func TestTraceparentCorrelation(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/benchmarks", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("X-Request-Id = %q, want the traceparent trace-id", got)
	}
}

// TestGeneratedRequestID mints an ID when the caller sends none, and every
// response carries one.
func TestGeneratedRequestID(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("generated X-Request-Id = %q, want 16 hex chars", got)
	}
}

// TestSweepServerTimingTrailer verifies streamed batches deliver their
// phase breakdown as an HTTP trailer — the header is long gone when the
// last row's timing is known.
func TestSweepServerTimingTrailer(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", gridBody(t, client.SweepRequest{
		Circuits: []client.CircuitSpec{{Generate: "ham7"}, {Generate: "ham7"}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "sweep-trailer-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body) // trailers land after the last byte
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bytes.Split(bytes.TrimSpace(raw), []byte("\n"))); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
	st := resp.Trailer.Get("Server-Timing")
	if st == "" {
		t.Fatalf("no Server-Timing trailer; trailers = %v", resp.Trailer)
	}
	for _, phase := range []string{"estimate;dur=", "emit;dur="} {
		if !strings.Contains(st, phase) {
			t.Errorf("Server-Timing trailer %q missing %q", st, phase)
		}
	}

	// The ring's sweep snapshot counts its streamed rows.
	snap := findSnapshot(debugRequests(t, ts.URL), "sweep-trailer-1")
	if snap == nil {
		t.Fatal("sweep-trailer-1 not in /debug/requests")
	}
	if snap.Rows != 2 {
		t.Errorf("snapshot Rows = %d, want 2", snap.Rows)
	}
}

// TestErrorRowCarriesTraceID pins a failed cell's row to the request ID so
// a batch error in a log pipeline is attributable without the transport
// envelope.
func TestErrorRowCarriesTraceID(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", gridBody(t, client.SweepRequest{
		Circuits: []client.CircuitSpec{{Generate: "no-such-generator"}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "err-row-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rec leqa.ResultRecord
	if err := json.Unmarshal(bytes.TrimSpace(raw), &rec); err != nil {
		t.Fatalf("bad row %q: %v", raw, err)
	}
	if rec.Error == "" {
		t.Fatalf("expected an error row, got %+v", rec)
	}
	if rec.TraceID != "err-row-1" {
		t.Fatalf("error row traceId = %q, want err-row-1", rec.TraceID)
	}
}

// TestSuccessRowOmitsTraceID keeps successful rows byte-compatible with the
// baseline schema: traceId appears on error rows only.
func TestSuccessRowOmitsTraceID(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", gridBody(t, client.SweepRequest{
		Circuits: []client.CircuitSpec{{Generate: "ham7"}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("traceId")) {
		t.Fatalf("success row leaked traceId: %s", raw)
	}
}

// TestSlowRequestLog asserts the slow-request warn line carries the span
// breakdown that makes the request attributable.
func TestSlowRequestLog(t *testing.T) {
	logBuf := &syncBuffer{}
	ts, c := newTestServer(t, server.Config{
		Logger:      slog.New(slog.NewJSONHandler(logBuf, nil)),
		SlowRequest: time.Nanosecond, // every request qualifies
	})
	if _, err := c.Estimate(context.Background(), client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "ham7"},
	}); err != nil {
		t.Fatal(err)
	}
	_ = ts
	var slow map[string]any
	for _, m := range logLines(t, logBuf) {
		if m["msg"] == "slow request" {
			slow = m
		}
	}
	if slow == nil {
		t.Fatalf("no slow-request line in:\n%s", logBuf.String())
	}
	breakdown, _ := slow["breakdown"].(string)
	for _, phase := range []string{"analyze", "estimate"} {
		if !strings.Contains(breakdown, phase) {
			t.Errorf("slow-request breakdown %q missing %s", breakdown, phase)
		}
	}
}

// TestDebugRingEviction bounds the ring: with TraceRing=2, only the two
// newest requests remain, newest first.
func TestDebugRingEviction(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{TraceRing: 2})
	for _, id := range []string{"ring-a", "ring-b", "ring-c"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/benchmarks", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	snaps := debugRequests(t, ts.URL)
	if len(snaps) != 2 || snaps[0].ID != "ring-c" || snaps[1].ID != "ring-b" {
		ids := make([]string, len(snaps))
		for i, s := range snaps {
			ids[i] = s.ID
		}
		t.Fatalf("ring = %v, want [ring-c ring-b]", ids)
	}
}

// TestPprofGating keeps profiles off the main mux unless opted in.
func TestPprofGating(t *testing.T) {
	off, _ := newTestServer(t, server.Config{})
	resp, err := off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ungated pprof: %d, want 404", resp.StatusCode)
	}

	on, _ := newTestServer(t, server.Config{EnableDebug: true})
	resp, err = on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("EnableDebug pprof index: %d, want 200", resp.StatusCode)
	}
}

// TestClientSurfacesRequestID checks both client-side correlation paths:
// API errors quote the server's request ID, and single-estimate records
// pick it up from the response header.
func TestClientSurfacesRequestID(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	_, err := c.Estimate(context.Background(), client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "no-such-generator"},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *client.APIError", err)
	}
	if apiErr.RequestID == "" || !strings.Contains(apiErr.Error(), apiErr.RequestID) {
		t.Fatalf("APIError %q does not surface request ID %q", apiErr.Error(), apiErr.RequestID)
	}

	rec, err := c.Estimate(context.Background(), client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "ham7"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TraceID == "" {
		t.Fatal("estimate record has no TraceID from X-Request-Id")
	}
}
