package leqa

import (
	"runtime"
	"sync"
	"sync/atomic"

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
// Workers draw their per-estimate scratch state (graph-build buffers,
// weight vector, longest-path arrays) from a pool of analysis.Arenas, so a
// warm Runner — the leqad replica serving steady traffic — performs
// near-zero heap allocation per estimate. Results never alias arena memory.
type Runner struct {
	est     *core.Estimator
	opt     EstimateOptions
	workers int
	arenas  sync.Pool    // of *analysis.Arena
	active  atomic.Int32 // arenas currently checked out ≈ cells in flight
	store   *AnalysisStore
	memo    *ResultMemo // optional (digest, params) result memo; see memo.go
	memoOpt string      // options prefix baked into every memo key
}

// arena checks a warm arena out of the pool (or makes a fresh one). The
// arena's longest-path scratch is capped to an even share of the cores
// among the estimates currently in flight, so pool-workers × sweep-helpers
// stay near GOMAXPROCS in aggregate: a saturated pool runs each cell's
// critical-path sweep serially (the cells themselves are the parallelism),
// while a lone large request — the interactive leqad case — fans its sweep
// across every core. The share is a checkout-time snapshot, so a burst of
// simultaneous checkouts can transiently overshoot while the first wave's
// earlier, larger shares drain; it cannot deadlock or change results —
// MaxWorkers is purely a performance cap.
func (r *Runner) arena() *analysis.Arena {
	ar, ok := r.arenas.Get().(*analysis.Arena)
	if !ok {
		ar = analysis.NewArena()
	}
	sweepWorkers := runtime.GOMAXPROCS(0) / int(r.active.Add(1))
	if sweepWorkers < 1 {
		sweepWorkers = 1
	}
	ar.Path().MaxWorkers = sweepWorkers
	// The analysis build's shard gang divides the machine the same way the
	// sweep gang does — one even share per in-flight estimate.
	ar.MaxShards = sweepWorkers
	return ar
}

// release returns an arena to the pool once every borrow of its current
// contents has ended.
func (r *Runner) release(ar *analysis.Arena) {
	r.active.Add(-1)
	r.arenas.Put(ar)
}

// NewRunner validates the parameters and builds a Runner. workers ≤ 0
// selects GOMAXPROCS.
func NewRunner(p Params, opt EstimateOptions, workers int) (*Runner, error) {
	est, err := core.New(p, opt)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{est: est, opt: opt, workers: workers}, nil
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }
