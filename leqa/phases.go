package leqa

import (
	"context"
	"strconv"
	"time"

	"repro/leqa/trace"
)

// observePhase records one finished pipeline phase (trace.SpanIngest,
// SpanAnalyze or SpanEstimate) that began at start as a span on ctx's
// request trace — the one recording path every latency sink reads. Phases
// that fail mid-way are still recorded: the duration is the time spent
// until the error. Without an attached trace it is a no-op.
func observePhase(ctx context.Context, phase string, start time.Time) {
	observePhaseDetail(ctx, phase, start, nil)
}

// observePhaseDetail is observePhase with a lazily built span detail
// ("store=hit shards=4"). detail runs only when a trace is attached, so the
// untraced hot path never constructs detail strings; benchmarks hold the
// traced path to that budget too because the closure never escapes.
func observePhaseDetail(ctx context.Context, phase string, start time.Time, detail func() string) {
	tr := trace.FromContext(ctx)
	if tr == nil {
		return
	}
	var ds string
	if detail != nil {
		ds = detail()
	}
	tr.Observe(phase, ds, start, time.Since(start))
}

// itoa keeps span-detail builders terse (they already live behind the
// trace-attached check).
func itoa(n int) string { return strconv.Itoa(n) }

// analyzeDetail renders an analyze span's attributes, e.g.
// "store=hit gates=16921 shards=4". Only built under an attached trace.
func analyzeDetail(store string, gates, shards int) string {
	s := "gates=" + strconv.Itoa(gates) + " shards=" + strconv.Itoa(shards)
	if store != "" {
		s = "store=" + store + " " + s
	}
	return s
}
