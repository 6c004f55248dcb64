package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/zonemodel"
	"repro/leqa"
)

// tracedOp is an op of the traced window, with the zone-model key of each
// cell it returned, in row order.
type tracedOp struct {
	op   op
	keys []zonemodel.Key
}

// zoneKey rebuilds the zone-model key the estimator used for a row.
func zoneKey(p leqa.Params, rec leqa.ResultRecord) zonemodel.Key {
	q := rec.Qubits
	return zonemodel.NewKey(p.Grid, rec.AvgZoneArea, q, min(q, core.DefaultTruncation), p.ChannelCapacity, rec.DUncongUs, false)
}

// replayer is one replay client: it re-runs traced ops through the
// functions leqad calls and times each call as a span. Its Runner, store
// and memo are shared with the other replay clients and built the way
// server.New builds leqad's.
type replayer struct {
	b      *bench
	log    *spanLog
	runner *leqa.Runner
	store  *leqa.AnalysisStore
	ar     *analysis.Arena
	slab   []float64 // weight slab handed to the critical-path kernel
	op     int64
	spans  []span
	rows   []*replayer // design-sweep: the Runner's worker pool, replayed
}

// fork returns a replayer that shares rp's Runner, store and log, with an
// arena of its own whose shard and sweep gangs are capped at gang.
func (rp *replayer) fork(gang int) *replayer {
	f := &replayer{b: rp.b, log: rp.log, runner: rp.runner, store: rp.store, ar: analysis.NewArena()}
	f.ar.MaxShards, f.ar.Path().MaxWorkers = gang, gang
	return f
}

func (rp *replayer) begin(name string, parent int64) span {
	return span{Op: rp.op, ID: rp.log.newID(), Parent: parent, Name: name, Start: rp.log.at(time.Now())}
}

func (rp *replayer) end(s span) span {
	s.End = rp.log.at(time.Now())
	rp.spans = append(rp.spans, s)
	return s
}

// replayed is one op as the first replay pass leaves it for the second.
type replayed struct {
	t    tracedOp
	leqa []int64   // spans of the Runner calls: one per upload, or the grid's
	est  []float64 // the Runner's estimate of each cell, in row order
}

// replay re-runs the traced ops and builds the ledger.
//
// Pass 1 replays the calls leqad's handlers make: the store, the Runner
// and the encoder. Pass 2 replays the layer calls beneath the Runner on
// the same ops. Within a pass every replay client makes the same kind of
// call, as the served ops did, so each span meets the contention its call
// met when served. Pass 1 stops at half the budget; pass 2 replays every
// op pass 1 did. Every traced op missed the zone-model memo (cold-upload's
// tails and the fresh columns make each key new), so each pass starts with
// it empty.
func (b *bench) replay(ctx context.Context, log *spanLog, traced [clients][]tracedOp, budget time.Duration) (*ledger, error) {
	st, err := leqa.NewAnalysisStore(leqa.AnalysisStoreOptions{})
	if err != nil {
		return nil, err
	}
	runner, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 0)
	if err != nil {
		return nil, err
	}
	runner.SetAnalysisStore(st)
	runner.SetResultMemo(leqa.NewResultMemo(0))
	// Bring the store to the server's state: the circuits set-up uploaded.
	for i := range b.uploads {
		if _, _, err := st.GetOrAnalyze(leqa.NewCircuitStream(b.circuits[i])); err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
	}

	// The server's Runner caps each estimate's gangs at an even share of
	// the cores among the estimates in flight: one per client, or one per
	// busy pool worker on design-sweep's grids. Pass 2 runs under the same
	// caps.
	procs := runtime.GOMAXPROCS(0)
	pool := 0
	if b.name == "design-sweep" {
		pool = min(runner.Workers(), len(b.all))
	}
	base := &replayer{b: b, log: log, runner: runner, store: st}
	rps := make([]*replayer, clients)
	for i := range rps {
		rps[i] = base.fork(max(1, procs/clients))
		for range pool {
			rps[i].rows = append(rps[i].rows, base.fork(max(1, procs/(clients*pool))))
		}
	}
	done := make([][]replayed, clients)
	deadline := time.Now().Add(budget / 2)
	zonemodel.Shared.Purge()
	err = concurrently(rps, func(i int, rp *replayer) error {
		for _, t := range traced[i] {
			if ctx.Err() != nil || time.Now().After(deadline) {
				return ctx.Err()
			}
			r, err := rp.outer(ctx, t)
			if err != nil {
				return err
			}
			done[i] = append(done[i], r)
		}
		return nil
	})
	if err == nil {
		zonemodel.Shared.Purge()
		err = concurrently(rps, func(i int, rp *replayer) error {
			for _, r := range done[i] {
				if err := rp.inner(r); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	for _, rp := range rps {
		log.add(rp.spans...)
		for _, row := range rp.rows {
			log.add(row.spans...)
		}
	}
	if slices.IndexFunc(done, func(d []replayed) bool { return len(d) > 0 }) < 0 {
		return nil, fmt.Errorf("no op replayed within %s", budget)
	}
	return newLedger(log.spans), nil
}

// concurrently runs f for every replayer at once and waits.
func concurrently(rps []*replayer, f func(i int, rp *replayer) error) error {
	errs := make([]error, len(rps))
	var wg sync.WaitGroup
	for i, rp := range rps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, rp)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// source resolves a stored circuit the way leqad resolves a by-ref spec.
func (b *bench) source(st *leqa.AnalysisStore, circ int) (leqa.Source, error) {
	d, err := leqa.ParseDigestRef(b.refs[circ])
	if err != nil {
		return leqa.Source{}, err
	}
	a, _, err := st.GetOutcome(d)
	if err != nil {
		return leqa.Source{}, err
	}
	src := leqa.AnalysisSource(b.names[circ], a)
	src.Digest = d
	return src, nil
}

// params lists an op's parameter columns.
func (b *bench) params(o op) []leqa.Params {
	ps := make([]leqa.Params, len(o.cols))
	for j, c := range o.cols {
		ps[j] = c.params()
	}
	return ps
}

// open opens a fresh ingest stream over cold-upload i of op o, as leqad's
// handler opens the request body, which cannot seek.
func (b *bench) open(o op, i int) (ingest.Stream, error) {
	return ingest.NewAutoStream(b.body(o, i), b.names[o.circs[i]], ingest.Options{})
}

// outer replays, in pass 1, the calls op t's handlers make.
func (rp *replayer) outer(ctx context.Context, t tracedOp) (replayed, error) {
	b, o := rp.b, t.op
	rp.op = opID(o.client, o.seq)
	r := replayed{t: t}
	root := rp.begin("replay", 0)
	defer rp.end(root)
	if b.name == "cold-upload" {
		p := leqa.DefaultParams()
		for i, c := range o.circs {
			s := rp.begin("ingest.open", root.ID)
			src, err := b.open(o, i)
			rp.end(s)
			if err != nil {
				return r, err
			}
			ls := rp.begin("leqa.estimate_stream", root.ID)
			res, err := rp.runner.EstimateStreamWith(ctx, src, p)
			rp.end(ls)
			src.Close()
			if err != nil {
				return r, err
			}
			r.leqa, r.est = append(r.leqa, ls.ID), append(r.est, res.EstimatedLatency)
			if err := rp.emit(root.ID, true, leqa.GridCell{Name: b.names[c], Params: p, Result: res}.Record()); err != nil {
				return r, err
			}
		}
		return r, nil
	}
	ss := rp.begin("store.get", root.ID)
	srcs := make([]leqa.Source, len(o.circs))
	var err error
	for i, c := range o.circs {
		if srcs[i], err = b.source(rp.store, c); err != nil {
			break
		}
	}
	ss.K = len(srcs)
	rp.end(ss)
	if err != nil {
		return r, err
	}
	ls := rp.begin("leqa.sweep_grid_sources", root.ID)
	cells, err := rp.runner.SweepGridSources(ctx, srcs, b.params(o))
	ls.Cells = len(cells)
	rp.end(ls)
	if err != nil {
		return r, err
	}
	r.leqa = []int64{ls.ID}
	recs := make([]any, len(cells))
	for i, c := range cells {
		if c.Err != nil {
			return r, c.Err
		}
		recs[i] = c.Record()
		r.est = append(r.est, c.Result.EstimatedLatency)
	}
	return r, rp.emit(root.ID, false, recs...)
}

// inner replays, in pass 2, the layer calls beneath op r's Runner calls,
// and checks they reproduce the Runner's estimates.
func (rp *replayer) inner(r replayed) error {
	b, o := rp.b, r.t.op
	rp.op = opID(o.client, o.seq)
	if b.name == "cold-upload" {
		for i := range o.circs {
			if err := rp.coldUpload(r, i); err != nil {
				return err
			}
		}
		return nil
	}
	// design-sweep: the Runner makes one batched estimate per circuit on
	// its worker pool, so the row replayers make them at once too, under a
	// pool span whose wall time the ledger shares among them.
	k, ps := len(o.cols), b.params(o)
	srcs := make([]leqa.Source, len(o.circs))
	for i, c := range o.circs {
		var err error
		if srcs[i], err = b.source(rp.store, c); err != nil {
			return err
		}
	}
	pool := rp.begin("leqa.pool", r.leqa[0])
	pool.Pool = len(rp.rows)
	bts := make([]batch, len(srcs))
	err := rp.onPool(len(srcs), func(row *replayer, i int) (err error) {
		bts[i], err = row.batch(pool.ID, srcs[i].Analysis, ps)
		return err
	})
	rp.end(pool)
	if err != nil {
		return err
	}
	// The calls beneath each batch are replayed after the pool span ends,
	// so they do not stretch its wall time.
	return rp.onPool(len(srcs), func(row *replayer, i int) error {
		return row.beneath(bts[i], srcs[i].Analysis, ps, r.est[i*k:(i+1)*k], r.t.keys[i*k:(i+1)*k])
	})
}

// onPool runs f for every index below n on rp's row replayers, each taking
// the next index as it frees up, as the Runner's worker pool does.
func (rp *replayer) onPool(n int, f func(row *replayer, i int) error) error {
	var next atomic.Int64
	return concurrently(rp.rows, func(_ int, row *replayer) error {
		row.op = rp.op
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := f(row, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// coldUpload replays, in pass 2, the calls beneath the Runner's estimate of
// cold-upload i of op r: the fused analysis in the replay arena, the two
// ingest passes beneath it, and the estimate.
func (rp *replayer) coldUpload(r replayed, i int) error {
	// Each call gets its own stream: the first pass over a request body
	// also spools it, so a reused stream would be cheaper.
	src, err := rp.b.open(r.t.op, i)
	if err != nil {
		return err
	}
	defer src.Close()
	scan, err := rp.b.open(r.t.op, i)
	if err != nil {
		return err
	}
	defer scan.Close()
	s := rp.begin("analysis.analyze_stream", r.leqa[i])
	s.Gang = rp.ar.MaxShards
	a, err := rp.ar.AnalyzeStream(src)
	if a != nil {
		s.Gates = a.Operations
	}
	s = rp.end(s)
	if err == nil {
		err = rp.scan(s.ID, scan)
	}
	if err != nil {
		return err
	}
	ps := []leqa.Params{leqa.DefaultParams()}
	bt, err := rp.batch(r.leqa[i], a, ps)
	if err != nil {
		return err
	}
	return rp.beneath(bt, a, ps, r.est[i:i+1], r.t.keys[i:i+1])
}

// scan times the analysis's two full ingest passes over src.
func (rp *replayer) scan(parent int64, src ingest.Stream) error {
	const passes = 2
	s := rp.begin("ingest.scan", parent)
	var err error
	for p := 0; p < passes && err == nil; p++ {
		if err = src.Rewind(); err != nil {
			break
		}
		for src.Scan() {
			s.Gates++
		}
		err = src.Err()
	}
	s.Bytes = src.BytesRead() * int64(passes)
	rp.end(s)
	return err
}

// batch is one timed batched estimate and its results.
type batch struct {
	span span
	rs   []*core.Result
}

// batch times the batched estimate of one analysis under every column.
func (rp *replayer) batch(parent int64, a *leqa.Analysis, ps []leqa.Params) (batch, error) {
	ests := make([]*core.Estimator, len(ps))
	for j, p := range ps {
		est, err := core.New(p, core.Options{})
		if err != nil {
			return batch{}, err
		}
		ests[j] = est
	}
	s := rp.begin("core.estimate_batch", parent)
	rs, errs := core.EstimateAnalysisBatch(ests, a, rp.ar)
	s.Gates, s.K = a.Operations, len(ps)
	return batch{rp.end(s), rs}, errors.Join(errs...)
}

// beneath times the two calls beneath batched estimate bt: the zone-model
// computation of each column's key (core's memo lookups all miss, as the
// served ones did) and the critical-path kernel on the same weights. It
// checks both, and the batch, against the Runner's estimates want.
func (rp *replayer) beneath(bt batch, a *leqa.Analysis, ps []leqa.Params, want []float64, keys []zonemodel.Key) error {
	s, rs := bt.span, bt.rs
	z := rp.begin("zonemodel.compute", s.ID)
	var err error
	for j, key := range keys {
		var m *zonemodel.Model
		if m, err = zonemodel.Compute(key); err != nil {
			break
		}
		if math.Float64bits(m.LCNOT) != math.Float64bits(rs[j].LCNOTAvg) {
			err = fmt.Errorf("rebuilt zone-model key gives L_CNOT %v, the estimate used %v", m.LCNOT, rs[j].LCNOTAvg)
			break
		}
	}
	z.K = len(keys)
	rp.end(z)
	if err != nil {
		return err
	}
	// The weights core filled its slab with: d + L_CNOT^avg for CNOTs,
	// d_g + L_g^avg for one-qubit gates, 0 at the pseudo-nodes.
	g, k := a.QODG, len(ps)
	rp.slab = slices.Grow(rp.slab[:0], g.NumNodes()*k)[:g.NumNodes()*k]
	wm := rp.slab
	for v, n := range g.Nodes {
		row := wm[v*k : (v+1)*k]
		if n.IsPseudo() {
			clear(row)
			continue
		}
		for j, p := range ps {
			if n.Op.Type == circuit.CNOT {
				row[j] = p.DCNOT + rs[j].LCNOTAvg
				continue
			}
			d, err := p.DelayOf(n.Op.Type)
			if err != nil {
				return err
			}
			row[j] = d + rs[j].LOneQubitAvg
		}
	}
	q := rp.begin("qodg.longest_path_multi", s.ID)
	cps, err := g.LongestPathMultiStrided(wm, k, rp.ar.Path())
	q.Nodes, q.K, q.Gang = g.NumNodes(), k, rp.ar.Path().MaxWorkers
	rp.end(q)
	if err != nil {
		return err
	}
	for j := range cps {
		if math.Float64bits(rs[j].EstimatedLatency) != math.Float64bits(want[j]) ||
			math.Float64bits(cps[j].Length) != math.Float64bits(want[j]) {
			return fmt.Errorf("replayed estimate %v and critical path %v differ from the Runner's %v",
				rs[j].EstimatedLatency, cps[j].Length, want[j])
		}
	}
	return nil
}

// emit times the server's encoding of reply records: indented JSON for a
// single reply, NDJSON rows for a stream. The network write is not
// replayed.
func (rp *replayer) emit(parent int64, indent bool, recs ...any) error {
	s := rp.begin("server.emit", parent)
	var err error
	for _, r := range recs {
		enc := json.NewEncoder(io.Discard)
		if indent {
			enc.SetIndent("", "  ")
		}
		if err = enc.Encode(r); err != nil {
			break
		}
	}
	s.Cells = len(recs)
	rp.end(s)
	return err
}
