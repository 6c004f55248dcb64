// Package lru is the one single-flight LRU cache behind LEQA's reuse
// layers: the zone-model memo (internal/zonemodel), the analysis store's
// memory tier (internal/store) and the (digest, params) result memo
// (leqa.ResultMemo).
//
// A key is computed at most once at a time. The first caller to claim a
// missing key owns its entry and computes the value; every other caller
// that claims the key meanwhile joins the entry and waits for the owner's
// outcome. Three rules hold for every cache built on this package:
//
//   - No entry keeps an error. A failed compute is unpublished before its
//     waiters wake, so the next claim of the key computes it afresh.
//   - A waiter whose context ends stops waiting and returns the context's
//     error; the owner's compute goes on for the callers still waiting.
//   - Purge drops every entry and zeroes the counters. An entry in flight
//     at the time still serves the callers that hold it.
package lru

import (
	"context"
	"fmt"
	"sync"
)

// Stats is a snapshot of a cache's cumulative counters.
type Stats struct {
	// Hits count claims that found the key resident or in flight;
	// Misses count claims that had to compute it.
	Hits, Misses uint64
	// Evictions counts LRU victims dropped to stay within capacity.
	Evictions uint64
	// Entries is the resident entry count; Capacity the LRU bound.
	Entries, Capacity int
}

// String renders the counters on one line for reports.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d entries=%d/%d",
		s.Hits, s.Misses, s.Evictions, s.Entries, s.Capacity)
}

// Entry is one key's slot. Its owner fulfills it exactly once; from then
// on its value and error are immutable and done is closed.
type Entry[K comparable, V any] struct {
	key        K
	prev, next *Entry[K, V] // LRU links, guarded by the cache's mutex
	done       chan struct{}
	val        V
	err        error
}

// Wait blocks until the entry is fulfilled, then returns its outcome, or
// until ctx is done, then returns ctx's error. A fulfilled entry returns
// its outcome whatever ctx says.
func (e *Entry[K, V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-e.done:
		return e.val, e.err
	default:
	}
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Cache is a concurrency-safe single-flight LRU from K to V.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	items     map[K]*Entry[K, V]
	root      Entry[K, V] // sentinel: root.next is the most recently used
	hits      uint64
	misses    uint64
	evictions uint64
}

// New builds a cache holding up to capacity entries (at least one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{capacity: max(capacity, 1), items: make(map[K]*Entry[K, V])}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Claim finds or creates key's entry without blocking, and counts the
// lookup as a hit or a miss. owned reports a new entry: the caller must
// compute its value and Fulfill it on every path, for every other claimer
// waits on it. Otherwise the entry is resident or in flight; a caller
// that owns other entries should fulfill them before it waits on this
// one, so that callers with overlapping claim sets cannot deadlock.
func (c *Cache[K, V]) Claim(key K) (e *Entry[K, V], owned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.hits++
		c.unlink(e)
		c.pushFront(e)
		return e, false
	}
	c.misses++
	e = &Entry[K, V]{key: key, done: make(chan struct{})}
	c.items[key] = e
	c.pushFront(e)
	for len(c.items) > c.capacity {
		// An entry evicted in flight still serves everyone holding it; it
		// just stops being found.
		old := c.root.prev
		c.unlink(old)
		delete(c.items, old.key)
		c.evictions++
	}
	return e, true
}

// Fulfill publishes an owned entry's outcome and wakes its waiters. A
// non-nil err first unpublishes the entry, if it is still resident, so
// that no waiter that sees the failure can claim the key and find it.
func (c *Cache[K, V]) Fulfill(e *Entry[K, V], v V, err error) {
	if err != nil {
		c.mu.Lock()
		if c.items[e.key] == e {
			c.unlink(e)
			delete(c.items, e.key)
		}
		c.mu.Unlock()
	}
	e.val, e.err = v, err
	close(e.done)
}

// Do returns key's value. The caller that claims the key computes it with
// compute and publishes the outcome; any other caller waits for it. A
// caller whose owner failed claims once more, with its own compute,
// unless ctx is done: the owner's failure may have been the owner's alone
// (its context, say), so a joiner never returns it without trying itself.
func (c *Cache[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	for retried := false; ; retried = true {
		e, owned := c.Claim(key)
		if owned {
			v, err := compute()
			c.Fulfill(e, v, err)
			return v, err
		}
		v, err := e.Wait(ctx)
		if err == nil || retried || ctx.Err() != nil {
			return v, err
		}
	}
}

// Stats snapshots the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.items),
		Capacity:  c.capacity,
	}
}

// Purge drops every entry and zeroes the counters.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.root.next; e != &c.root; {
		next := e.next
		e.prev, e.next = nil, nil
		e = next
	}
	c.root.next, c.root.prev = &c.root, &c.root
	clear(c.items)
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// pushFront links e as the most recently used entry.
func (c *Cache[K, V]) pushFront(e *Entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// unlink removes e from the LRU list and clears its links, so an entry
// that outlives its residency pins no other entry.
func (c *Cache[K, V]) unlink(e *Entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}
