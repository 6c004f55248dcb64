package zonemodel

import (
	"context"

	"repro/internal/lru"
)

// DefaultCacheSize bounds the shared memo. Each entry holds two Kmax-length
// float slices (a few hundred bytes at the paper's 20-term truncation), so
// even a saturated cache stays tiny; the bound exists to keep unbounded
// parameter sweeps (e.g. fabric-size scans over thousands of grids) from
// growing without limit.
const DefaultCacheSize = 256

// Cache is a concurrency-safe LRU memo from Key to Model: N concurrent
// estimates on the same fabric run the model exactly once. It is an
// internal/lru cache, like the analysis store's memory tier and the result
// memo, under that package's rules on failed computes, cancelled waiters
// and Purge.
type Cache struct {
	models *lru.Cache[Key, *Model]
}

// Shared is the process-wide memo used by the estimator core.
var Shared = NewCache(DefaultCacheSize)

// NewCache builds an LRU memo holding up to capacity models.
func NewCache(capacity int) *Cache {
	return &Cache{models: lru.New[Key, *Model](capacity)}
}

// Get returns the memoized model for key, computing it on first use.
// Callers of a key being computed wait for that computation.
func (c *Cache) Get(key Key) (*Model, error) {
	return c.models.Do(context.Background(), key, func() (*Model, error) { return Compute(key) })
}

// Stats reports the cumulative lookup, eviction and occupancy counters;
// Misses equals the number of model computations started.
func (c *Cache) Stats() lru.Stats { return c.models.Stats() }

// Purge empties the cache and zeroes its counters.
func (c *Cache) Purge() { c.models.Purge() }
