package leqa

import (
	"strconv"

	"repro/internal/fabric"
	"repro/internal/lru"
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
// Concurrent cells with the same key coalesce onto one computation. The
// memo is an internal/lru cache, like the zone-model memo and the analysis
// store's memory tier, and that package's rules hold for all three: no
// failure is kept (a cancellation included), a waiter whose context ends
// stops waiting, and Purge drops the entries and zeroes the counters. Safe
// for concurrent use.
type ResultMemo struct {
	cache *lru.Cache[string, *EstimateResult]
}

// ResultMemoStats is a snapshot of a memo's cumulative counters. Hits count
// claims that found a resident or in-flight entry (coalesced waiters
// included); Misses count claims that had to compute.
type ResultMemoStats = lru.Stats

// NewResultMemo builds a result memo holding up to entries results;
// entries ≤ 0 selects DefaultResultMemoEntries.
func NewResultMemo(entries int) *ResultMemo {
	if entries <= 0 {
		entries = DefaultResultMemoEntries
	}
	return &ResultMemo{cache: lru.New[string, *EstimateResult](entries)}
}

// Stats snapshots the memo's counters.
func (m *ResultMemo) Stats() ResultMemoStats { return m.cache.Stats() }

// Purge drops every entry and zeroes the counters.
func (m *ResultMemo) Purge() { m.cache.Purge() }

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
