package leqa

import (
	"container/list"
	"context"
	"strconv"
	"sync"

	"repro/internal/fabric"
)

// DefaultResultMemoEntries is the result memo's LRU capacity when the
// configuration doesn't choose one. Results are small (a few hundred
// bytes), so the default leans generous.
const DefaultResultMemoEntries = 256

// ResultMemo is a single-flight LRU over finished estimates, keyed by
// (content digest, canonical params key, estimator options) — the layer
// above the analysis store's "parse once, estimate forever": a warm
// identical estimate/sweep/grid cell skips analyze and estimate entirely and
// returns the memoized Result. Keys are exact (fabric.ParamsKey is a
// collision-free encoding, the digest is the circuit's SHA-256), so a hit
// can never change what a cell would have computed.
//
// Single-flight: concurrent cells with the same key coalesce — the first
// claims the entry and computes, the rest wait for its result. Errors are
// never memoized; a failed entry is unpublished so the next claim
// recomputes. Safe for concurrent use.
type ResultMemo struct {
	mu        sync.Mutex
	cap       int
	items     map[string]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
}

// ResultMemoStats is a snapshot of a memo's cumulative counters. Hits count
// claims that found a resident or in-flight entry (coalesced waiters
// included); Misses count claims that had to compute.
type ResultMemoStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Capacity  int
}

// memoEntry is one key's slot: fulfilled exactly once by its owner, after
// which res/err are immutable and done is closed.
type memoEntry struct {
	key  string
	done chan struct{}
	res  *EstimateResult
	err  error
}

// NewResultMemo builds a result memo holding up to entries results;
// entries ≤ 0 selects DefaultResultMemoEntries.
func NewResultMemo(entries int) *ResultMemo {
	if entries <= 0 {
		entries = DefaultResultMemoEntries
	}
	return &ResultMemo{
		cap:   entries,
		items: make(map[string]*list.Element),
		order: list.New(),
	}
}

// claim finds or creates the entry for key. owned reports that the caller
// must compute the result and fulfill the entry (every waiter blocks until
// it does — fulfill on every path). owned == false means the entry is
// resident or in flight: wait on it, but only after fulfilling any entries
// this caller owns, so overlapping claim sets cannot deadlock.
func (m *ResultMemo) claim(key string) (e *memoEntry, owned bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		m.hits++
		m.order.MoveToFront(el)
		return el.Value.(*memoEntry), false
	}
	m.misses++
	e = &memoEntry{key: key, done: make(chan struct{})}
	m.items[key] = m.order.PushFront(e)
	for m.order.Len() > m.cap {
		el := m.order.Back()
		m.order.Remove(el)
		delete(m.items, el.Value.(*memoEntry).key)
		m.evictions++
	}
	return e, true
}

// fulfill publishes an owned entry's outcome and wakes every waiter. A
// non-nil err unpublishes the entry first (if still resident), so failures —
// including cancellations — are never served from the memo.
func (m *ResultMemo) fulfill(e *memoEntry, res *EstimateResult, err error) {
	if err != nil {
		m.mu.Lock()
		if el, ok := m.items[e.key]; ok && el.Value.(*memoEntry) == e {
			m.order.Remove(el)
			delete(m.items, e.key)
		}
		m.mu.Unlock()
	}
	e.res, e.err = res, err
	close(e.done)
}

// wait blocks until the entry is fulfilled or ctx is done.
func (e *memoEntry) wait(ctx context.Context) (*EstimateResult, error) {
	select {
	case <-e.done:
		return e.res, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats snapshots the memo's counters.
func (m *ResultMemo) Stats() ResultMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ResultMemoStats{
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
		Entries:   m.order.Len(),
		Capacity:  m.cap,
	}
}

// Purge drops every resident entry (in-flight computations fulfill their
// waiters normally but are no longer findable). Counters are preserved.
func (m *ResultMemo) Purge() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items = make(map[string]*list.Element)
	m.order = list.New()
}

// SetResultMemo attaches a (digest, params) result memo to the runner's
// estimate/sweep/grid cell paths; nil detaches. The memo key incorporates
// the runner's estimator options, so runners with different truncation or
// ablation settings can safely share one memo (the leqad per-request
// override path does exactly that). Set before concurrent runs start; the
// field is read unsynchronized on the estimate path. Memoized results are
// shared pointers — treat Results as immutable, as every engine path already
// does.
func (r *Runner) SetResultMemo(m *ResultMemo) {
	r.memo = m
	r.memoOpt = strconv.Itoa(r.opt.Truncation) + "|" + strconv.FormatBool(r.opt.DisableCongestion) + "|"
}

// ResultMemo reports the attached result memo (nil when none).
func (r *Runner) ResultMemo() *ResultMemo { return r.memo }

// memoKey is the full memo key of one (circuit, params) cell under the
// runner's options. Every component is an exact encoding, so equal keys
// imply bitwise-identical estimates.
func (r *Runner) memoKey(digest string, pk fabric.ParamsKey) string {
	return r.memoOpt + digest + "|" + string(pk)
}
