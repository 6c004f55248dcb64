package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/benchgen"
	"repro/internal/ingest"
	"repro/internal/pool"
	"repro/leqa"
	"repro/leqa/client"
	"repro/leqa/trace"
)

// handleEstimate runs one circuit — JSON spec body or raw .qc upload — and
// replies with its flat result record. Raw uploads take the streaming
// ingestion path (handleEstimateQC); JSON specs resolve in memory.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if !isJSONRequest(r) {
		s.handleEstimateQC(w, r)
		return
	}
	var req client.EstimateRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	p, err := s.paramsFromSpec(req.Params)
	if err != nil {
		s.writeError(w, err)
		return
	}
	runner, err := s.runnerFor(req.Options)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	src, err := s.resolveSource(ctx, req.CircuitSpec, wantDecompose(req.Options))
	if err != nil {
		s.writeError(w, err)
		return
	}
	// One 1×1 grid cell: the same engine, memo and record schema as the
	// batch endpoints. A by-reference source estimates straight from the
	// stored analysis — no netlist bytes, no parsing, no graph build.
	cells, err := runner.SweepGridSources(ctx, []leqa.Source{src}, []leqa.Params{p})
	if len(cells) == 0 {
		s.writeError(w, err)
		return
	}
	if cells[0].Err != nil {
		s.writeError(w, cells[0].Err)
		return
	}
	t := time.Now()
	writeJSON(w, http.StatusOK, cells[0].Record())
	trace.FromContext(ctx).Observe(trace.SpanEmit, "", t, time.Since(t))
}

// handleEstimateQC estimates a raw netlist upload through the streaming
// ingestion path: the body is sniffed by magic bytes (.qc text, binary
// .qcb, either gzipped) and read once, decoded gate by gate as it arrives
// — the analysis records each gate for its fill pass — so a chunked upload
// far past MaxBodyBytes estimates in O(analysis) memory. What the pass
// reads also goes to one disk spool, not RAM: the netlist, inflated for
// gzip. The spool backs only the rewind of the materialized decompose
// fallback, and its cap (MaxSpoolBytes) is the 413 limit for raw uploads;
// a gzip body inflating past it is a 422. The stream itself stops at gate
// MaxGates+1 on every pass. MaxBodyBytes keeps bounding the JSON endpoints
// and the decompose fallback.
func (s *Server) handleEstimateQC(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ps, err := paramSpecFromQuery(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	decompose, err := decomposeFromQuery(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	p, err := s.paramsFromSpec(ps)
	if err != nil {
		s.writeError(w, err)
		return
	}
	name := q.Get("name")
	if name == "" {
		name = "uploaded"
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	sc, err := ingest.NewAutoStream(r.Body, name, ingest.Options{
		SpoolDir:      s.cfg.SpoolDir,
		MaxSpoolBytes: s.cfg.MaxSpoolBytes,
		MaxGates:      s.cfg.MaxGates,
	})
	if err != nil {
		s.writeError(w, classifyStreamErr(err))
		return
	}
	defer sc.Close()
	res, err := s.runner.EstimateStreamWith(ctx, sc, p)
	if err != nil {
		var nft *leqa.NonFTError
		if errors.As(err, &nft) && decompose {
			res, err = s.tryDecomposeFallback(ctx, sc, name, p)
		}
		if err != nil {
			s.writeError(w, classifyStreamErr(err))
			return
		}
	}
	if sc.BytesRead() == 0 {
		s.writeError(w, badRequest("empty .qc body"))
		return
	}
	if sp := sc.SpooledBytes(); sp > 0 {
		s.spooledUploads.Add(1)
		s.spooledBytes.Add(uint64(sp))
	}
	cell := leqa.GridCell{Name: name, Params: p, Result: res}
	t := time.Now()
	writeJSON(w, http.StatusOK, cell.Record())
	trace.FromContext(ctx).Observe(trace.SpanEmit, "", t, time.Since(t))
}

// tryDecomposeFallback handles a stream that turned out non-FT: netlists
// up to MaxBodyBytes — the cap that bounded materialized uploads before
// streaming existed — take the materialized decompose path; larger ones
// are refused. The scan may have stopped at the first non-FT gate with
// most of the body unread, so the true size is only known once the rewind
// has drained the body into its spool (disk, still bounded by
// MaxSpoolBytes): materialization is gated on that total, the netlist's
// size in every container, inflated for gzip, never on the bytes on the
// wire or consumed so far.
func (s *Server) tryDecomposeFallback(ctx context.Context, sc ingest.Stream, name string, p leqa.Params) (*leqa.EstimateResult, error) {
	if err := sc.Rewind(); err != nil {
		return nil, err
	}
	if sc.BytesRead() > s.cfg.MaxBodyBytes {
		return nil, &statusError{
			code: http.StatusUnprocessableEntity,
			msg: fmt.Sprintf("circuit %q has non-FT gates and its %d-byte netlist exceeds the %d-byte in-memory decomposition cap; upload an FT netlist",
				name, sc.BytesRead(), s.cfg.MaxBodyBytes),
			reason: throttleBodyCap,
		}
	}
	c, err := sc.Materialize()
	if err != nil {
		return nil, err
	}
	if c, err = leqa.Decompose(c); err != nil {
		return nil, err
	}
	if c.NumGates() > s.cfg.MaxGates {
		return nil, capExceeded("circuit %q has %d operations, over the server cap of %d",
			c.Name, c.NumGates(), s.cfg.MaxGates)
	}
	cells, err := s.runner.SweepGridSources(ctx, []leqa.Source{leqa.CircuitSource(c)}, []leqa.Params{p})
	if len(cells) == 0 {
		return nil, err
	}
	return cells[0].Result, cells[0].Err
}

// handleSweep streams one row per circuit under a single parameter set.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req client.SweepRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	p, err := s.paramsFromSpec(req.Params)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.streamBatch(w, r, req.Circuits, []leqa.Params{p}, req.Options)
}

// handleGrid streams the circuits × paramSets cross product.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req client.GridRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	sets, err := s.paramSetsFromSpecs(req.ParamSets)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.streamBatch(w, r, req.Circuits, sets, req.Options)
}

// streamBatch is the shared sweep/grid path: resolve the circuit specs,
// stream engine cells in input order as they complete, and interleave error
// rows for specs that never became circuits — a bad row never aborts the
// batch.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, specs []client.CircuitSpec, paramSets []leqa.Params, opts *client.OptionsSpec) {
	if len(specs) == 0 {
		s.writeError(w, badRequest("request needs at least one circuit"))
		return
	}
	if cells := len(specs) * len(paramSets); cells > s.cfg.MaxCells {
		s.writeError(w, &statusError{
			code:   http.StatusBadRequest,
			msg:    fmt.Sprintf("batch of %d cells exceeds the server cap of %d", cells, s.cfg.MaxCells),
			reason: throttleGateCap,
		})
		return
	}
	runner, err := s.runnerFor(opts)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Parameter sets must be valid before the 200 streaming header goes
	// out; the engine would reject them only after headers are sent.
	for j := range paramSets {
		if err := paramSets[j].Validate(); err != nil {
			s.writeError(w, badRequest("parameter set %d: %v", j, err))
			return
		}
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()

	// Resolve every spec across the engine's pool — generation and FT
	// lowering are the expensive half of a generated batch, so they should
	// not serialize on the handler goroutine ahead of the first row — with
	// the request context observed per spec. By-reference specs resolve to
	// store-backed analyses that feed cells directly; inline specs to
	// in-memory circuits.
	decompose := wantDecompose(opts)
	sources := make([]leqa.Source, len(specs))
	ok := make([]bool, len(specs))
	resolveErrs := make([]error, len(specs))
	names := make([]string, len(specs))
	pool.ForEach(len(specs), s.runner.Workers(), false, func(i int) error {
		if err := ctx.Err(); err != nil {
			resolveErrs[i] = err
			names[i] = specLabel(specs[i], i)
			return nil
		}
		src, serr := s.resolveSource(ctx, specs[i], decompose)
		if serr != nil {
			resolveErrs[i] = serr
			names[i] = specLabel(specs[i], i)
			return nil
		}
		sources[i], names[i], ok[i] = src, src.Name, true
		return nil
	})
	goodSources := make([]leqa.Source, 0, len(specs))
	orig := make([]int, 0, len(specs))
	for i := range specs {
		if ok[i] {
			goodSources = append(goodSources, sources[i])
			orig = append(orig, i)
		}
	}
	enc := newRowEncoder(w, r)
	st := &batchStream{flushHook: s.cfg.FlushHook, enc: enc, paramSets: paramSets, resolveErrs: resolveErrs, names: names, orig: orig, tr: trace.FromContext(ctx)}
	err = runner.SweepGridSourcesStream(ctx, goodSources, paramSets, st.engineCell)
	if err == nil {
		err = st.finish()
	}
	if err == nil {
		enc.done(st.rows)
		return
	}
	// Any early end — request-context cancellation, server abort, or the
	// client hanging up mid-stream (a write error) — counts as a canceled
	// batch: the engine stopped feeding unstarted work either way.
	s.batchesCanceled.Add(1)
	level, msg := slog.LevelWarn, "batch ended early"
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		level, msg = slog.LevelInfo, "batch canceled"
	}
	s.logger.LogAttrs(r.Context(), level, msg,
		slog.String("id", st.tr.ID()),
		slog.Int("rows", st.rows),
		slog.Int("cells", len(specs)*len(paramSets)),
		slog.String("err", err.Error()),
	)
	enc.fail(err)
}

// batchStream merges the engine's ordered cell stream (good circuits only)
// with error rows for specs that failed resolution, preserving global
// circuit-major input order: the engine delivers good circuits in order, so
// whenever a good circuit's first cell arrives, every failed spec before it
// owes its rows first.
type batchStream struct {
	flushHook   func(rows int) // Config.FlushHook
	enc         rowEncoder
	paramSets   []leqa.Params
	resolveErrs []error // per original spec; nil for resolved circuits
	names       []string
	orig        []int // engine circuit index → original spec index
	next        int   // first original index whose rows are not yet emitted
	rows        int
	tr          *trace.Trace // request trace; nil-safe
}

// engineCell receives one computed cell and re-labels it with the original
// spec index, first flushing error rows for failed specs that precede it.
func (b *batchStream) engineCell(cell leqa.GridCell) error {
	oi := b.orig[cell.CircuitIndex]
	if cell.ParamsIndex == 0 {
		if err := b.flushFailedBefore(oi); err != nil {
			return err
		}
		b.next = oi + 1
	}
	cell.CircuitIndex = oi
	return b.emit(cell)
}

// finish emits rows for failed specs after the last resolved circuit.
func (b *batchStream) finish() error {
	return b.flushFailedBefore(len(b.resolveErrs))
}

// flushFailedBefore emits the error rows of every still-pending failed spec
// with original index below oi.
func (b *batchStream) flushFailedBefore(oi int) error {
	for ; b.next < oi; b.next++ {
		if b.resolveErrs[b.next] == nil {
			continue // a resolved circuit: its cells come from the engine
		}
		for j := range b.paramSets {
			cell := leqa.GridCell{
				CircuitIndex: b.next,
				ParamsIndex:  j,
				Name:         b.names[b.next],
				Params:       b.paramSets[j],
				Err:          b.resolveErrs[b.next],
			}
			if err := b.emit(cell); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit writes and flushes one row, then fires the test hook. Each row's
// emit span is what finishRequest counts as the request's rows. Error rows
// carry the request's trace ID so a failed cell points straight at its
// access-log line and /debug/requests record.
func (b *batchStream) emit(cell leqa.GridCell) error {
	rec := cell.Record()
	if rec.Error != "" {
		rec.TraceID = b.tr.ID()
	}
	t := time.Now()
	if err := b.enc.row(rec); err != nil {
		return err
	}
	b.tr.Observe(trace.SpanEmit, "", t, time.Since(t))
	b.rows++
	if b.flushHook != nil {
		b.flushHook(b.rows)
	}
	return nil
}

// handleBenchmarks serves the generator catalog: the paper's Table 3
// circuits with their reference sizes, plus the recognized spec families.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	names := leqa.Benchmarks()
	infos := make([]client.BenchmarkInfo, len(names))
	for i, n := range names {
		st := benchgen.Paper[n]
		infos[i] = client.BenchmarkInfo{Name: n, Qubits: st.Qubits, Operations: st.Operations}
	}
	writeJSON(w, http.StatusOK, client.BenchmarksResponse{
		Benchmarks: infos,
		Families:   append([]string(nil), benchgen.Families...),
	})
}
