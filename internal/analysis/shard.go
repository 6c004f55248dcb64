package analysis

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/qodg"
)

// ShardThreshold is the gate count at or above which the analysis fill pass
// shards across a worker gang. Below it — or with a single-worker budget —
// the serial pass wins outright. The sharded build is bitwise identical to
// the serial one by construction; the threshold is a performance knob,
// never a correctness one.
//
// The variable is read without synchronization on every analysis: tune it at
// program start, before any concurrent estimates run. For per-call control
// use Arena.MaxShards instead.
var ShardThreshold = 1 << 16

// minShardGates keeps shards large enough that the serial stitch (seed
// merge, boundary-edge resolution, offsets) stays negligible next to the
// per-shard scan work.
const minShardGates = 1 << 13

// planShards picks the shard count for a circuit of nGates gates under a
// worker budget: 0 means serial, otherwise ≥ 2 contiguous shards.
func planShards(nGates, budget int) int {
	if ShardThreshold <= 0 || nGates < ShardThreshold || budget < 2 {
		return 0
	}
	k := budget
	if maxK := nGates / minShardGates; k > maxK {
		k = maxK
	}
	if k < 2 {
		return 0
	}
	return k
}

// ShardPlan reports the shard count the fill pass will use for a circuit of
// nGates gates under ar's worker budget (1 means a serial build; ar may be
// nil for the whole-machine budget) — exposed so observability layers can
// annotate analyze spans without re-deriving the plan.
func ShardPlan(nGates int, ar *Arena) int {
	if k := planShards(nGates, shardBudget(ar)); k > 1 {
		return k
	}
	return 1
}

// shardBudget resolves the worker budget of an analysis call: the arena's
// MaxShards share when set, the whole machine otherwise.
func shardBudget(ar *Arena) int {
	if ar != nil && ar.MaxShards != 0 {
		return ar.MaxShards
	}
	return runtime.GOMAXPROCS(0)
}

// evenCutsInto fills buf with k+1 shard boundaries splitting n gates into k
// contiguous near-equal segments: shard i covers gates [cuts[i], cuts[i+1]).
func evenCutsInto(buf []int, n, k int) []int {
	if cap(buf) < k+1 {
		buf = make([]int, k+1)
	}
	buf = buf[:k+1]
	for i := range buf {
		buf[i] = i * n / k
	}
	return buf
}

// boundaryRec is one dependency edge whose source lies in an earlier shard:
// recorded with the pending-qubit sentinel as from while the shard scans,
// resolved to the real node (and deduplicated) by the stitch.
type boundaryRec struct {
	from, to qodg.NodeID
}

// shardScratch is one shard's sub-arena: the forked dependency scanner and
// the boundary-edge records. Recycled across analyses when owned by an
// Arena.
type shardScratch struct {
	scan qodg.DepScanner
	recs []boundaryRec
}

func (sc *shardScratch) reset(numQ int) {
	sc.scan.ResetPending(numQ)
	sc.recs = sc.recs[:0]
}

// gang is the fork-join helper for one sharded analysis: k-1 workers
// spawned on first use and reused across the analysis's phases (fill,
// sort), so the whole parallel build costs a fixed handful of allocations —
// one gang, one channel, one worker closure, one closure per phase —
// keeping warm-arena sharded estimates near the serial path's steady-state
// alloc budget. Not safe for concurrent run calls;
// one gang belongs to one analysis call and must be closed when it
// returns.
type gang struct {
	k       int
	f       func(i int)
	next    atomic.Int32
	start   chan struct{}
	wg      sync.WaitGroup
	started bool
}

func newGang(k int) *gang { return &gang{k: k} }

// run executes f(0), ..., f(k-1) concurrently — the caller takes shard 0 —
// and returns once every shard finished. The channel send publishing each
// token happens after the writes to g.f and g.next, and every worker's
// read precedes its wg.Done, so phases never race on the shared fields.
func (g *gang) run(f func(i int)) {
	if g.k <= 1 {
		f(0)
		return
	}
	if !g.started {
		g.started = true
		g.start = make(chan struct{})
		worker := func() {
			for range g.start {
				g.f(int(g.next.Add(1)))
				g.wg.Done()
			}
		}
		for i := 1; i < g.k; i++ {
			go worker()
		}
	}
	g.f = f
	g.next.Store(0)
	g.wg.Add(g.k - 1)
	for i := 1; i < g.k; i++ {
		g.start <- struct{}{}
	}
	f(0)
	g.wg.Wait()
	g.f = nil
}

// close releases the workers; the gang is unusable afterwards.
func (g *gang) close() {
	if g.started {
		close(g.start)
	}
}
