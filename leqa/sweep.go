package leqa

import (
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
)

// Runner is the concurrent batch-estimation engine: a fixed worker pool
// that estimates a sources × parameter-sets cross product
// (SweepGridSources), analyzing each source once (fused QODG+IIG build) and
// estimating all of its columns in one batched call, sharing the memoized
// zone model across workers. Safe for concurrent use; construct once and
// reuse across sweeps.
//
// Workers draw their per-estimate scratch state (gate records, graph-build
// buffers, longest-path arrays) from a LIFO free list of
// analysis.Arenas, so a warm Runner — the leqad replica serving steady
// traffic — performs near-zero heap allocation per estimate. Unlike a
// sync.Pool, the list survives GC: a cold upload after a collection finds
// its slabs already grown. It retains at most Workers idle arenas, each
// sized to the largest circuit it has analyzed, and none that has analyzed
// more than maxIdleArenaGates gates; arenas checked out beyond Workers
// (concurrent raw uploads are not bounded by the pool) or grown past that
// size are dropped on release. Results never alias arena memory.
type Runner struct {
	opt     EstimateOptions
	workers int
	mu      sync.Mutex
	free    []*analysis.Arena // idle arenas, most recently released last
	store   *AnalysisStore
	memo    *ResultMemo // optional (digest, params) result memo; see memo.go
	memoOpt string      // options prefix baked into every memo key
}

// arena checks the most recently released arena out of the free list (or
// makes a fresh one).
func (r *Runner) arena() *analysis.Arena {
	var ar *analysis.Arena
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		ar = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	if ar == nil {
		ar = analysis.NewArena()
	}
	return ar
}

// maxIdleArenaGates is the largest circuit, in gates, whose arena the free
// list keeps, whether the arena analyzed the circuit or only swept its
// graph. An arena holds about 35–51 B of slabs per gate after one analysis
// and estimate: 35–36 after an in-memory circuit, 41–51 after a streamed
// one, whose node slab grows by doubling (hwb100ps, hwb200ps,
// gf2^128mult). So an idle arena holds at most about 13 MiB. Every
// circuit of the paper's suite up to gf2^128mult (246,141 gates) keeps its
// slabs warm; the arena of a larger upload, such as gf2^256mult or a
// MaxGates-scale netlist, goes back to the GC when its estimate ends
// instead of staying for the life of the process.
const maxIdleArenaGates = 1 << 18

// release returns an arena to the free list once every borrow of its
// current contents has ended, or drops it when Workers arenas already idle
// there or it has grown past maxIdleArenaGates.
func (r *Runner) release(ar *analysis.Arena) {
	if ar.Gates() > maxIdleArenaGates {
		return
	}
	r.mu.Lock()
	if len(r.free) < r.workers {
		r.free = append(r.free, ar)
	}
	r.mu.Unlock()
}

// NewRunner validates the parameters and builds a Runner. workers ≤ 0
// selects GOMAXPROCS.
func NewRunner(p Params, opt EstimateOptions, workers int) (*Runner, error) {
	if _, err := core.New(p, opt); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{opt: opt, workers: workers}, nil
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }
