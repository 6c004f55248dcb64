package server_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/leqa"
	"repro/leqa/client"
	"repro/leqa/trace"
)

// tinyQC is a small FT netlist for upload and by-reference traffic.
const tinyQC = ".v a b c d\n.i a b c\nBEGIN\nH a\nCNOT a b\nT c\nCNOT b d\nT* d\nCNOT a d\nEND\n"

// metricValue reads one sample of a scraped exposition, failing when the
// series is absent.
func metricValue(t *testing.T, m telemetry.PromMetrics, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := m.Value(name, labels)
	if !ok {
		t.Fatalf("/metrics has no %s%v", name, labels)
	}
	return v
}

// TestHealthzLatencyIgnoresCircuitUploads pins /healthz estimateLatency to
// the estimation endpoints: a circuit upload takes a slot but estimates
// nothing, so it must not be timed there.
func TestHealthzLatencyIgnoresCircuitUploads(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	if _, err := c.PutCircuit(ctx, "tiny", strings.NewReader(tinyQC)); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.EstimateLatency.Count != 0 {
		t.Fatalf("estimateLatency.count = %d after one upload and no estimates, want 0", h.EstimateLatency.Count)
	}
}

// TestPhaseSeriesPerServer runs two Servers in one process: each /metrics
// must count only the phases of its own requests.
func TestPhaseSeriesPerServer(t *testing.T) {
	busyTS, busy := newTestServer(t, server.Config{})
	idleTS, _ := newTestServer(t, server.Config{})
	for i := 0; i < 3; i++ {
		if _, err := busy.Estimate(context.Background(), client.EstimateRequest{
			CircuitSpec: client.CircuitSpec{Generate: "ham7"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	busyM := scrapeTestMetrics(t, busyTS, busyTS.URL)
	idleM := scrapeTestMetrics(t, idleTS, idleTS.URL)
	// Three resolutions; the first estimate analyzes and computes, the
	// other two are result-memo hits that skip analysis.
	for phase, want := range map[string]float64{"ingest": 3, "analyze": 1, "estimate": 3} {
		lbl := map[string]string{"phase": phase}
		if got := metricValue(t, busyM, "leqad_phase_duration_seconds_count", lbl); got != want {
			t.Errorf("busy server: %s count = %v, want %v", phase, got, want)
		}
		if got := metricValue(t, idleM, "leqad_phase_duration_seconds_count", lbl); got != 0 {
			t.Errorf("idle server: %s count = %v, want 0", phase, got)
		}
	}
}

// TestRecordingSurfacesAgree drives a mixed run — JSON estimate, raw
// upload, a sweep with a failing row, a by-reference grid, and an estimate
// queued behind a blocked batch — on an injected clock that never rotates
// the windows, then checks that every surface reads one set of numbers:
// per phase, the span counts summed over /debug/requests equal both the
// lifetime histogram and the window; per estimation endpoint, the lifetime
// histogram and the window agree on count and sum, and rows match the
// emit spans.
func TestRecordingSurfacesAgree(t *testing.T) {
	clk := newE2EClock()
	release, releaseBatch := makeRelease(t)
	blocked := make(chan struct{})
	var armed atomic.Bool
	ts, c := newTestServer(t, server.Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  time.Minute,
		Clock:         clk.Now,
		TraceRing:     4096,
		FlushHook: func(int) {
			if armed.CompareAndSwap(true, false) {
				close(blocked)
				<-release
			}
		},
	})
	ctx := context.Background()
	discard := func(leqa.ResultRecord) error { return nil }

	if _, err := c.Estimate(ctx, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: "ham7"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EstimateQC(ctx, "raw", strings.NewReader(tinyQC), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Sweep(ctx, client.SweepRequest{
		Circuits: []client.CircuitSpec{{Generate: "4bitadder"}, {Generate: "no-such-generator"}},
	}, discard); err != nil {
		t.Fatal(err)
	}
	info, err := c.PutCircuit(ctx, "tiny", strings.NewReader(tinyQC))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Grid(ctx, client.GridRequest{
		Circuits:  []client.CircuitSpec{{Ref: info.Digest}},
		ParamSets: []client.ParamSpec{{Grid: "20x20"}, {Grid: "30x30"}},
	}, discard); err != nil {
		t.Fatal(err)
	}

	// A batch holds the only slot at its first row while an estimate
	// queues behind it.
	armed.Store(true)
	batchDone := make(chan error, 1)
	go func() {
		batchDone <- c.Sweep(ctx, client.SweepRequest{
			Circuits: []client.CircuitSpec{{Generate: "ham3"}, {Generate: "2bitadder"}},
		}, discard)
	}()
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("batch never reached its first row")
	}
	queuedDone := make(chan error, 1)
	go func() {
		_, err := c.Estimate(ctx, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: "3bitadder"}})
		queuedDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Saturation.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("estimate never queued behind the blocked batch")
		}
		time.Sleep(time.Millisecond)
	}
	const held = 20 * time.Millisecond
	time.Sleep(held)
	releaseBatch()
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
	if err := <-queuedDone; err != nil {
		t.Fatal(err)
	}

	totals := map[string]int{}
	reqs := map[string]int{}
	rows := map[string]int{}
	var maxQueue float64
	for _, snap := range debugRequests(t, ts.URL) {
		ep := strings.TrimPrefix(snap.Path, "/v1/")
		if snap.Status == 200 {
			reqs[ep]++
		}
		rows[ep] += snap.Rows
		for _, pt := range snap.Totals {
			totals[pt.Name] += pt.Count
			if pt.Name == trace.SpanQueue {
				maxQueue = max(maxQueue, pt.SumMs)
			}
		}
	}
	if maxQueue < float64(held.Milliseconds()) {
		t.Errorf("longest queue span %vms, want at least the %v the estimate was held", maxQueue, held)
	}

	m := scrapeTestMetrics(t, ts, ts.URL)
	for _, phase := range []string{trace.SpanIngest, trace.SpanAnalyze, trace.SpanEstimate} {
		lbl := map[string]string{"phase": phase}
		want := float64(totals[phase])
		if want == 0 {
			t.Errorf("no %s spans recorded", phase)
		}
		if got := metricValue(t, m, "leqad_phase_duration_seconds_count", lbl); got != want {
			t.Errorf("phase %s: histogram count %v, /debug/requests spans %v", phase, got, want)
		}
		if got := metricValue(t, m, "leqad_phase_latency_window_seconds_count", lbl); got != want {
			t.Errorf("phase %s: window count %v, /debug/requests spans %v", phase, got, want)
		}
	}
	if got, want := metricValue(t, m, "leqad_queue_wait_window_seconds_count", nil), float64(totals[trace.SpanQueue]); got != want {
		t.Errorf("queue-wait window count %v, /debug/requests queue spans %v", got, want)
	}

	for _, ep := range []string{"estimate", "sweep", "grid"} {
		lbl := map[string]string{"endpoint": ep}
		hCount := metricValue(t, m, "leqad_request_duration_seconds_count", lbl)
		wCount := metricValue(t, m, "leqad_request_latency_window_seconds_count", lbl)
		hSum := metricValue(t, m, "leqad_request_duration_seconds_sum", lbl)
		wSum := metricValue(t, m, "leqad_request_latency_window_seconds_sum", lbl)
		if hCount != wCount || hSum != wSum {
			t.Errorf("%s: histogram count/sum %v/%vs, window %v/%vs", ep, hCount, hSum, wCount, wSum)
		}
		if want := float64(reqs[ep]); hCount != want {
			t.Errorf("%s: %v timed requests, /debug/requests has %v answered", ep, hCount, want)
		}
		if got, want := metricValue(t, m, "leqad_rows_streamed_total", lbl), float64(rows[ep]); got != want {
			t.Errorf("%s: rows_streamed_total %v, /debug/requests rows %v", ep, got, want)
		}
	}
	if est := metricValue(t, m, "leqad_request_duration_seconds_sum", map[string]string{"endpoint": "estimate"}); est < held.Seconds() {
		t.Errorf("estimate duration sum %vs excludes the %v slot wait", est, held)
	}
}
