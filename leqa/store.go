package leqa

import (
	"context"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/qcbin"
	"repro/internal/store"
	"repro/leqa/trace"
)

// Content-addressed analysis store, re-exported from internal/store. An
// AnalysisStore attached to a Runner (SetAnalysisStore) turns the source
// sweeps into "parse once, estimate forever" paths: every estimate first
// digests the gate stream (SHA-256 of the canonical gate records) and a
// resident analysis — memory LRU or persisted .qca image — skips the fused
// graph build entirely. Store hits are bitwise identical to fresh analyses.
type (
	// AnalysisStore is the two-tier (memory LRU over optional disk
	// directory) content-addressed analysis store.
	AnalysisStore = store.Store
	// AnalysisStoreOptions configures an AnalysisStore: memory entries,
	// disk directory, disk size cap.
	AnalysisStoreOptions = store.Options
	// AnalysisStoreStats is a snapshot of a store's cumulative counters.
	AnalysisStoreStats = store.Stats
)

// ErrAnalysisNotFound reports a by-digest lookup whose analysis is in
// neither store tier — the 404 of by-reference estimation.
var ErrAnalysisNotFound = store.ErrNotFound

// NewAnalysisStore builds a content-addressed analysis store. With a disk
// directory the directory is created and scanned, so restarted processes
// resume serving persisted images.
func NewAnalysisStore(opt AnalysisStoreOptions) (*AnalysisStore, error) {
	return store.New(opt)
}

// SetAnalysisStore attaches a content-addressed analysis store to the
// runner's streamed sources (SweepGridSources and the stream beneath it):
// each is digested on open, and a store hit skips analysis. nil detaches.
// Set before concurrent runs start; the field is read unsynchronized on the
// estimate path. Attaching a store never changes results — a hit returns
// the same CSR content a fresh analysis builds.
func (r *Runner) SetAnalysisStore(s *AnalysisStore) { r.store = s }

// AnalysisStore reports the attached store (nil when none).
func (r *Runner) AnalysisStore() *AnalysisStore { return r.store }

// CircuitDigest computes a circuit's content digest — the bare-hex SHA-256
// of its canonical gate records — the key the analysis store and the leqad
// circuit endpoints address by. The digest covers gate structure, qubit
// count and name; it is independent of the container the circuit arrived
// in (.qc, .qcb, gzipped or not) and of qubit display names.
func CircuitDigest(c *Circuit) (string, error) { return qcbin.DigestCircuit(c) }

// StreamDigest computes the content digest of a gate stream, rewinding it
// first. The stream is left at end-of-stream; Rewind before reusing it.
func StreamDigest(src GateStream) (string, error) { return qcbin.Digest(src) }

// ParseDigestRef validates a "sha256:<64 hex>" circuit reference and
// returns the bare hex digest — the spelling leqad's by-reference circuit
// specs use.
func ParseDigestRef(ref string) (string, error) { return qcbin.ParseRef(ref) }

// FormatDigestRef renders a bare hex digest as a "sha256:..." reference.
func FormatDigestRef(digest string) string { return qcbin.FormatRef(digest) }

// WriteQCB encodes a circuit into the compact binary netlist container
// (.qcb). The encoding round-trips bitwise: decoding yields a circuit with
// the same register and gate list, and the same content digest.
func WriteQCB(w io.Writer, c *Circuit) error { return qcbin.EncodeCircuit(w, c) }

// analyzeSource produces one source's analysis: directly from an
// Analysis-backed source; in ar for an in-memory circuit; through the
// attached store for a streamed source when one is set (a hit skips the
// graph build; a miss analyzes and persists); otherwise by streaming the
// source into ar through the FT-only counting pass. Every pass over the
// stream polls ctx. An arena analysis is borrowed until ar's next use.
func (r *Runner) analyzeSource(ctx context.Context, s Source, ar *analysis.Arena) (*analysis.Analysis, error) {
	if s.Analysis != nil {
		// By-reference resolution: no ingest or graph build happened, but a
		// zero-duration analyze span keeps the request's store attribution
		// visible — which tier answered when the resolver said, "ref" when
		// the analysis arrived pre-built with no provenance.
		if tr := trace.FromContext(ctx); tr != nil {
			outcome := s.StoreOutcome
			if outcome == "" {
				outcome = "ref"
			}
			tr.Observe(trace.SpanAnalyze, "store="+outcome+" gates="+itoa(s.Analysis.Operations), time.Now(), 0)
		}
		return s.Analysis, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c := s.circuit; c != nil {
		t := time.Now()
		a, err := analyzeFT(c, ar)
		observePhaseDetail(ctx, trace.SpanAnalyze, t, func() string { return "gates=" + itoa(c.NumGates()) })
		return a, err
	}
	t := time.Now()
	src, err := s.Open()
	observePhaseDetail(ctx, trace.SpanIngest, t, func() string { return "open=" + s.Name })
	if err != nil {
		return nil, err
	}
	defer closeStream(src)
	t = time.Now()
	var a *analysis.Analysis
	if r.store != nil {
		var outcome store.Outcome
		a, _, outcome, err = r.store.GetOrAnalyzeOutcome(ctx, src)
		observePhaseDetail(ctx, trace.SpanAnalyze, t, func() string {
			if a == nil {
				return "store=" + outcome.String()
			}
			return "store=" + outcome.String() + " gates=" + itoa(a.Operations)
		})
	} else {
		a, err = analysis.AnalyzeStreamContext(ctx, src, ar, true)
		observePhaseDetail(ctx, trace.SpanAnalyze, t, func() string { return streamedDetail(a) })
	}
	return a, err
}

// streamedDetail renders a streamed analyze span's attributes. Only built
// under an attached trace.
func streamedDetail(a *analysis.Analysis) string {
	if a == nil {
		return "streamed"
	}
	return "streamed gates=" + itoa(a.Operations)
}
