package leqa

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/pool"
	"repro/leqa/trace"
)

// Streaming ingestion types, re-exported from the internal packages.
type (
	// GateStream is a re-windable stream of validated gates — the input of
	// the streaming estimation paths, which analyze it in one read. ingest
	// scanners (see FileSource / ReaderSource) and CircuitSource streams
	// implement it.
	GateStream = analysis.GateStream
	// PrevalidatedStream is the optional GateStream capability advertising
	// that yielded gates are already validated, so the analysis skips its
	// per-gate re-validation. A caller's wrapper that passes gates through
	// unchanged should forward it.
	PrevalidatedStream = analysis.PrevalidatedStream
	// IngestOptions tunes the streaming netlist decoders: chunk size, line
	// cap, gate cap, and the on-disk spool (directory, byte cap) that a
	// source which cannot seek, or a gzip container, is read through once,
	// so that a second pass (materialization, a replay) can read it again.
	IngestOptions = ingest.Options
	// NonFTError marks a circuit or gate stream containing gates outside
	// the fault-tolerant set; the streaming paths report it gate by gate,
	// and services use it to decide whether to fall back to materialized
	// decomposition.
	NonFTError = core.NonFTError
)

// AnalyzeReader builds a circuit's analysis from a streamed .qc netlist
// without materializing its gate list — the front end of the beyond-memory
// estimation path. The result is estimate-equivalent to Analyze on the
// parsed circuit (bitwise-identical Results).
func AnalyzeReader(r io.Reader, name string, opt IngestOptions) (*Analysis, error) {
	sc := ingest.NewScanner(r, name, opt)
	defer sc.Close()
	return analysis.AnalyzeStream(sc)
}

// Source is one circuit of a sweep: an in-memory circuit, a benchmark
// name, a netlist file or reader, or a stored analysis. Nothing is read,
// generated, spooled or analyzed until a sweep worker claims the source, so
// a fleet of beyond-memory netlists can queue without their combined
// footprint ever existing at once.
type Source struct {
	// Name labels the circuit in results and diagnostics.
	Name string
	// Open produces the gate stream. Streams implementing io.Closer are
	// closed by the engine when the source's work is done. Open may be
	// called once per engine run; FileSource supports any number of runs,
	// ReaderSource exactly one.
	Open func() (GateStream, error)
	// Analysis, when non-nil, short-circuits ingestion entirely: the source
	// is estimated straight from this pre-built (typically store-resident)
	// analysis and Open is never called. The engines treat the analysis as
	// immutable and shared.
	Analysis *Analysis
	// StoreOutcome optionally labels how Analysis was obtained ("hit",
	// "disk") for request-trace attribution; empty reads as "ref". Purely
	// observational — it never changes estimation.
	StoreOutcome string
	// Digest, when non-empty, is the circuit's content digest, already known
	// before any ingestion — a by-reference request resolved from the
	// analysis store, typically. It lets the result memo probe for warm
	// (digest, params) cells before the source is opened or analyzed.
	Digest string

	// circuit is a CircuitSource's in-memory circuit; see there.
	circuit *Circuit
}

// FileSource streams a netlist file, naming the circuit after the file.
// The file is opened lazily when a worker claims it, and seeked; only a
// gzip file's inflated netlist is spooled.
func FileSource(path string, opt IngestOptions) Source {
	return Source{Name: circuit.QCBaseName(path), Open: func() (GateStream, error) {
		return ingest.Open(path, opt)
	}}
}

// ReaderSource streams a netlist from an arbitrary reader (stdin, a
// network body) — textual .qc or binary .qcb, either gzipped, sniffed by
// magic bytes. A reader that cannot seek is read once, as it arrives,
// through a disk spool that keeps it for a later pass; the analysis, and
// an attached store's digest, need only the one. The reader is consumed;
// the source can be opened once.
func ReaderSource(name string, r io.Reader, opt IngestOptions) Source {
	return Source{Name: name, Open: func() (GateStream, error) {
		return ingest.NewAutoStream(r, name, opt)
	}}
}

// CircuitSource adapts an in-memory circuit. The circuit is already
// parsed, so it never passes through an attached analysis store: the
// worker analyzes it in its own arena. Its content digest is computed only
// when an attached result memo needs one.
func CircuitSource(c *Circuit) Source {
	return Source{Name: c.Name, circuit: c, Open: func() (GateStream, error) {
		return analysis.NewCircuitStream(c), nil
	}}
}

// CircuitSources adapts every circuit with CircuitSource.
func CircuitSources(circuits []*Circuit) []Source {
	srcs := make([]Source, len(circuits))
	for i, c := range circuits {
		srcs[i] = CircuitSource(c)
	}
	return srcs
}

// BenchmarkSource names a built-in benchmark (gf2^16mult, hwb50ps, ...):
// the worker that claims it synthesizes the netlist and lowers it to the
// FT gate set, so even circuit generation runs inside the pool.
func BenchmarkSource(name string) Source {
	return Source{Name: name, Open: func() (GateStream, error) {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			return nil, fmt.Errorf("leqa: generating %q: %w", name, err)
		}
		return analysis.NewCircuitStream(c), nil
	}}
}

// digest reports the source's content digest when it is known without
// ingesting: the pre-known Digest, or the hash of an in-memory FT circuit.
func (s Source) digest() (string, bool) {
	if s.Digest != "" {
		return s.Digest, true
	}
	if s.circuit == nil || !s.circuit.IsFT() {
		return "", false
	}
	d, err := CircuitDigest(s.circuit)
	return d, err == nil
}

// NewCircuitStream wraps an in-memory circuit as a rewindable GateStream —
// the adapter for feeding materialized circuits to stream consumers such
// as AnalysisStore.GetOrAnalyze or StreamDigest.
func NewCircuitStream(c *Circuit) GateStream { return analysis.NewCircuitStream(c) }

// AnalysisSource adapts a pre-built analysis — typically a content-store
// hit resolved by digest — so by-reference requests can share a batch run
// with streamed netlists while skipping ingestion and analysis entirely.
func AnalysisSource(name string, a *Analysis) Source {
	return Source{Name: name, Analysis: a}
}

// closeStream releases a stream that owns resources (ingest scanners hold
// spool files); in-memory streams are no-ops.
func closeStream(src GateStream) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// EstimateStreamWith estimates one gate stream under an explicit parameter
// set in one of the runner's arenas: the fused analysis reads the stream
// once (no store, no memo — the stream's digest is unknown until it has
// been read), polling ctx every few thousand gates, and the first
// non-FT gate stops the scan with a NonFTError. It is the estimation
// service's raw-upload path; the zone-model memo still shares cached
// fabrics with every other estimate.
func (r *Runner) EstimateStreamWith(ctx context.Context, src GateStream, p Params) (*EstimateResult, error) {
	est, err := core.New(p, r.opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ar := r.arena()
	defer r.release(ar)
	t := time.Now()
	a, err := analysis.AnalyzeStreamContext(ctx, src, ar, true)
	observePhaseDetail(ctx, trace.SpanAnalyze, t, func() string { return streamedDetail(a) })
	if err != nil {
		return nil, err
	}
	t = time.Now()
	res, err := est.EstimateAnalysis(a, ar)
	observePhase(ctx, trace.SpanEstimate, t)
	return res, err
}

// SweepGridSources estimates the sources × paramSets cross product and
// collects SweepGridSourcesStream's cells, so the two are cell-for-cell
// bitwise identical by construction. The error is non-nil when ctx was
// cancelled or a parameter set fails validation (then no cell is
// returned); per-source and per-cell failures land in GridCell.Err.
func (r *Runner) SweepGridSources(ctx context.Context, sources []Source, paramSets []Params) ([]GridCell, error) {
	cells := make([]GridCell, 0, len(sources)*len(paramSets))
	err := r.SweepGridSourcesStream(ctx, sources, paramSets, func(cell GridCell) error {
		cells = append(cells, cell)
		return nil
	})
	if err != nil && len(cells) == 0 && ctx.Err() == nil {
		return nil, err // parameter-set validation failure: nothing ran
	}
	return cells, err
}

// SweepGridSourcesStream estimates the sources × paramSets cross product —
// the one engine behind every single estimate, sweep and grid — delivering
// each GridCell to emit in source-major input order as soon as its row
// completes. Rows start largest first (startOrder), so the longest row
// does not run alone at the end of the grid while the other workers idle;
// emission keeps input order, so an early row can wait on a larger later
// one. Each worker owns one source's whole row: it consults the
// result memo first (when attached and the source's digest is known),
// analyzes the source once (through the attached store for streamed
// sources, in its own arena otherwise) and estimates every remaining
// parameter column in one batched core.EstimateAnalysisBatch call, so the
// QODG adjacency streams through the cache once for all columns and a
// beyond-memory netlist is read once per run, not once per cell. Duplicate
// parameter columns are estimated once and share the Result.
//
// emit runs on the caller's goroutine (safe for http.ResponseWriter and
// other single-goroutine sinks); a non-nil emit error — a disconnected
// client, typically — stops the feed early and is returned. Every row is
// dispatched even after cancellation, so the stream accounts for every
// (source, params) pair: cells that never ran carry ctx's error, and the
// function returns ctx.Err() after the last delivery. A parameter-set
// validation failure is returned before any work starts.
func (r *Runner) SweepGridSourcesStream(ctx context.Context, sources []Source, paramSets []Params, emit func(GridCell) error) error {
	ests, err := r.gridEstimators(paramSets)
	if err != nil {
		return err
	}
	cols := newGridColumns(paramSets)
	err = pool.ForEachOrdered(startOrder(sources), r.workers, func(i int) []GridCell {
		s := sources[i]
		row := make([]GridCell, len(paramSets))
		for j := range row {
			row[j] = GridCell{
				CircuitIndex: i,
				ParamsIndex:  j,
				Name:         s.Name,
				Params:       paramSets[j],
			}
		}
		if err := ctx.Err(); err != nil {
			for j := range row {
				row[j].Err = err
			}
			return row
		}
		ar := r.arena()
		defer r.release(ar)
		r.estimateRow(ctx, row, ests, cols, s.digest,
			func() (*analysis.Analysis, error) { return r.analyzeSource(ctx, s, ar) },
			ar)
		return row
	}, emitRow(emit))
	if err != nil {
		return err
	}
	return ctx.Err()
}

// startOrder is the order in which a grid's rows start: sources whose size
// is unknown until they are read (streams, benchmark names) first, in
// input order, then the rest largest first, ties in input order. A row's
// work grows with its circuit, whatever its columns, so the longest rows
// start while the pool is full.
func startOrder(sources []Source) []int {
	order := make([]int, len(sources))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int {
		return cmp.Compare(sources[j].size(), sources[i].size())
	})
	return order
}

// size is the work of a source's row: the node count of a stored analysis,
// the gate count of an in-memory circuit, or math.MaxInt when the size is
// unknown until the source is read.
func (s Source) size() int {
	switch {
	case s.Analysis != nil:
		return s.Analysis.QODG.NumNodes()
	case s.circuit != nil:
		return s.circuit.NumGates()
	}
	return math.MaxInt
}
