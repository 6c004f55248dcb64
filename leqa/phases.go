package leqa

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"repro/leqa/trace"
)

// Phase labels reported to the PhaseObserver. One estimation passes through
// up to three phases:
//
//   - PhaseIngest — acquiring the gate source: generating a named
//     benchmark, opening a lazy stream source, or (server-side) spooling an
//     upload. In-memory circuit sources have no ingest phase.
//   - PhaseAnalyze — the fused graph build (QODG + IIG). For streamed
//     sources this includes gate parsing: streaming fuses parse and build
//     by design, so the parse cost is billed to the analysis that consumes
//     it.
//   - PhaseEstimate — Algorithm 1 itself (weights, critical path, zone
//     model).
const (
	PhaseIngest   = "ingest"
	PhaseAnalyze  = "analyze"
	PhaseEstimate = "estimate"
)

// PhaseObserver receives the wall-clock duration of each completed pipeline
// phase. Implementations must be safe for concurrent use — sweep workers
// report in parallel — and fast: the observer sits on the estimate hot
// path.
type PhaseObserver func(phase string, d time.Duration)

var phaseObserver atomic.Pointer[PhaseObserver]

// SetPhaseObserver registers the process-wide phase observer (nil
// unregisters). One observer exists at a time; leqad registers its metrics
// recorder at startup. Phases that fail mid-way are still reported — the
// duration is the time spent until the error.
func SetPhaseObserver(fn PhaseObserver) {
	if fn == nil {
		phaseObserver.Store(nil)
		return
	}
	phaseObserver.Store(&fn)
}

// TeePhaseObservers fans each phase report out to every non-nil observer in
// order — the composition hook for callers that feed one phase stream into
// several sinks (leqad tees cumulative histograms and sliding windows).
func TeePhaseObservers(obs ...PhaseObserver) PhaseObserver {
	live := make([]PhaseObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return func(phase string, d time.Duration) {
		for _, o := range live {
			o(phase, d)
		}
	}
}

// ObservePhase feeds one finished phase to the registered observer — the
// hook for callers that run a pipeline phase outside the Runner, such as
// leqad resolving a circuit spec (its ingest phase) before estimation.
// No-op when no observer is registered.
func ObservePhase(phase string, d time.Duration) {
	if p := phaseObserver.Load(); p != nil {
		(*p)(phase, d)
	}
}

// observePhase reports one finished phase that began at start — to the
// process-global observer (feeding /metrics) and, when ctx carries a
// request trace, as a span on that trace.
func observePhase(ctx context.Context, phase string, start time.Time) {
	observePhaseDetail(ctx, phase, start, nil)
}

// observePhaseDetail is observePhase with a lazily built span detail
// ("store=hit shards=4"). detail runs only when a trace is attached, so the
// untraced hot path never constructs detail strings; benchmarks hold the
// traced path to that budget too because the closure never escapes.
func observePhaseDetail(ctx context.Context, phase string, start time.Time, detail func() string) {
	d := time.Since(start)
	ObservePhase(phase, d)
	if tr := trace.FromContext(ctx); tr != nil {
		var ds string
		if detail != nil {
			ds = detail()
		}
		tr.Observe(phase, ds, start, d)
	}
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
