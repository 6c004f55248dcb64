package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestObserveAggregatesAndRetains(t *testing.T) {
	tr := New("abc123", nil)
	start := tr.Start()
	tr.Observe(SpanAnalyze, "store=miss shards=2", start, 30*time.Millisecond)
	tr.Observe(SpanEstimate, "", start.Add(30*time.Millisecond), 10*time.Millisecond)
	tr.Observe(SpanEstimate, "", start.Add(40*time.Millisecond), 20*time.Millisecond)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	if spans[0].Name != SpanAnalyze || spans[0].Detail != "store=miss shards=2" {
		t.Fatalf("first span = %+v", spans[0])
	}
	if spans[1].OffsetMs != 30 || spans[2].DurMs != 20 {
		t.Fatalf("span timing wrong: %+v", spans[1:])
	}

	totals := tr.Totals()
	if len(totals) != 2 {
		t.Fatalf("totals = %+v, want 2 phases", totals)
	}
	// Canonical order: analyze before estimate.
	if totals[0].Name != SpanAnalyze || totals[1].Name != SpanEstimate {
		t.Fatalf("totals order = %q, %q", totals[0].Name, totals[1].Name)
	}
	if totals[1].Count != 2 || totals[1].SumMs != 30 {
		t.Fatalf("estimate total = %+v, want count=2 sum=30ms", totals[1])
	}
}

func TestSpanRetentionCap(t *testing.T) {
	tr := New("cap", nil)
	for i := 0; i < MaxSpans+50; i++ {
		tr.Observe(SpanEmit, "", tr.Start(), time.Millisecond)
	}
	if got := len(tr.Spans()); got != MaxSpans {
		t.Fatalf("retained %d spans, want cap %d", got, MaxSpans)
	}
	if tr.Dropped() != 50 {
		t.Fatalf("dropped = %d, want 50", tr.Dropped())
	}
	// The aggregate still counts everything.
	if tot := tr.Totals(); tot[0].Count != MaxSpans+50 {
		t.Fatalf("aggregate count = %d, want %d", tot[0].Count, MaxSpans+50)
	}
}

// TestSinkSeesEverySpan pins the sink contract the leqad phase series rely
// on: every Observe reaches the sink — past the MaxSpans retention cap too —
// with the clamped duration, so per-name sink counts and sums equal Totals
// rather than the retained span list. A nil sink records spans as before.
func TestSinkSeesEverySpan(t *testing.T) {
	type agg struct {
		count int
		sum   time.Duration
	}
	var mu sync.Mutex
	seen := map[string]*agg{}
	tr := New("sink", func(name string, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		a := seen[name]
		if a == nil {
			a = &agg{}
			seen[name] = a
		}
		a.count++
		a.sum += d
	})
	tr.Observe(SpanQueue, "", tr.Start(), 0)
	tr.Observe(SpanAnalyze, "store=hit", tr.Start(), 0)
	tr.Observe(SpanEstimate, "", tr.Start(), -time.Millisecond) // clamped to 0
	for i := 0; i < MaxSpans+10; i++ {
		tr.Observe(SpanEmit, "", tr.Start(), time.Microsecond)
	}
	if len(tr.Spans()) != MaxSpans || tr.Dropped() == 0 {
		t.Fatalf("retained %d spans, dropped %d; want the cap exceeded", len(tr.Spans()), tr.Dropped())
	}
	totals := tr.Totals()
	if len(seen) != len(totals) {
		t.Fatalf("sink saw %d names, Totals has %d", len(seen), len(totals))
	}
	for _, pt := range totals {
		a := seen[pt.Name]
		if a == nil || a.count != pt.Count || durMs(a.sum) != pt.SumMs {
			t.Errorf("%s: sink saw %+v, Totals has count=%d sum=%vms", pt.Name, a, pt.Count, pt.SumMs)
		}
	}
	if a := seen[SpanEstimate]; a.sum != 0 {
		t.Errorf("negative duration reached the sink unclamped: %v", a.sum)
	}

	plain := New("nil-sink", nil)
	plain.Observe(SpanIngest, "", plain.Start(), time.Millisecond)
	if tot := plain.Totals(); len(tot) != 1 || tot[0].Count != 1 {
		t.Fatalf("nil-sink trace totals = %+v", tot)
	}
}

func TestServerTimingFormat(t *testing.T) {
	tr := New("st", nil)
	tr.Observe(SpanQueue, "", tr.Start(), 100*time.Microsecond)
	tr.Observe(SpanAnalyze, "store=hit", tr.Start(), 12*time.Millisecond)
	got := tr.ServerTiming()
	want := `queue;dur=0.10, analyze;dur=12.00;desc="store=hit"`
	if got != want {
		t.Fatalf("ServerTiming = %q, want %q", got, want)
	}
	if (*Trace)(nil).ServerTiming() != "" {
		t.Fatal("nil trace must render an empty Server-Timing")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New("ctx", nil)
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost the trace")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield a nil trace")
	}
	// Nil receivers are safe to use unconditionally.
	var nilTr *Trace
	nilTr.Observe(SpanIngest, "", time.Now(), time.Second)
	if nilTr.ID() != "" || nilTr.Spans() != nil || nilTr.Totals() != nil {
		t.Fatal("nil trace methods must be no-ops")
	}
}

func TestRequestID(t *testing.T) {
	if id, gen := RequestID("client-supplied-7", ""); id != "client-supplied-7" || gen {
		t.Fatalf("X-Request-Id not honored: %q gen=%v", id, gen)
	}
	tp := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if id, gen := RequestID("", tp); id != "4bf92f3577b34da6a3ce929d0e0e4736" || gen {
		t.Fatalf("traceparent not honored: %q gen=%v", id, gen)
	}
	// Hostile or malformed IDs are replaced, not echoed.
	for _, bad := range []string{"has space", "quote\"", "back\\slash", strings.Repeat("x", 65), "ctl\x01"} {
		id, gen := RequestID(bad, "")
		if !gen || id == bad {
			t.Fatalf("hostile id %q must be regenerated (got %q gen=%v)", bad, id, gen)
		}
	}
	// All-zero traceparent trace-ids are invalid per the W3C spec.
	if _, ok := ParseTraceparent("00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01"); ok {
		t.Fatal("all-zero traceparent accepted")
	}
	id, gen := RequestID("", "")
	if !gen || len(id) != 16 {
		t.Fatalf("generated id = %q gen=%v", id, gen)
	}
	if id2, _ := RequestID("", ""); id2 == id {
		t.Fatalf("generated ids must not repeat: %q", id)
	}
}

func TestRingEvictsOldestFirst(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Add(Snapshot{ID: fmt.Sprintf("req-%d", i)})
	}
	got := r.Snapshots()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	for i, want := range []string{"req-6", "req-5", "req-4", "req-3"} {
		if got[i].ID != want {
			t.Fatalf("snapshot[%d] = %q, want %q (newest first)", i, got[i].ID, want)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	var sunk atomic.Int64
	tr := New("race", func(string, time.Duration) { sunk.Add(1) })
	ring := NewRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Observe(SpanEstimate, "", tr.Start(), time.Microsecond)
				ring.Add(tr.Capture())
			}
		}()
	}
	wg.Wait()
	if tot := tr.Totals(); tot[0].Count != 1600 || sunk.Load() != 1600 {
		t.Fatalf("aggregate count = %d, sink saw %d, want 1600", tot[0].Count, sunk.Load())
	}
}

func TestBreakdownMentionsEveryPhase(t *testing.T) {
	tr := New("bd", nil)
	tr.Observe(SpanIngest, "", tr.Start(), time.Millisecond)
	tr.Observe(SpanAnalyze, "shards=3", tr.Start(), 2*time.Millisecond)
	out := tr.Breakdown()
	for _, want := range []string{"trace bd", SpanIngest, SpanAnalyze, "shards=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, out)
		}
	}
}
