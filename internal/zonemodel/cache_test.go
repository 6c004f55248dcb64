package zonemodel

import (
	"math"
	"sync"
	"testing"

	"repro/internal/fabric"
)

func cacheKey(width, q int) Key {
	grid := fabric.Grid{Width: width, Height: width}
	return Key{
		Grid:        grid,
		ZoneSide:    3,
		Q:           q,
		Kmax:        min(q, 20),
		Capacity:    5,
		DUncongBits: math.Float64bits(850),
	}
}

func TestCacheMemoizes(t *testing.T) {
	c := NewCache(8)
	key := cacheKey(30, 12)
	m1, err := c.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("second lookup did not return the memoized model")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	if st.Evictions != 0 || st.Entries != 1 {
		t.Errorf("stats = %v, want 0 evictions / 1 entry", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	k1, k2, k3 := cacheKey(10, 6), cacheKey(11, 6), cacheKey(12, 6)
	for _, k := range []Key{k1, k2, k3} {
		if _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Entries; got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// k1 is the LRU victim; re-fetching it must be a miss.
	before := c.Stats().Misses
	if _, err := c.Get(k1); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats().Misses; after != before+1 {
		t.Errorf("evicted key did not recompute (misses %d -> %d)", before, after)
	}
	// k2 was second-oldest and has now been evicted by k1's reinsert; k3
	// must still be resident.
	hitsBefore := c.Stats().Hits
	if _, err := c.Get(k3); err != nil {
		t.Fatal(err)
	}
	if hitsAfter := c.Stats().Hits; hitsAfter != hitsBefore+1 {
		t.Error("most-recently-inserted key was evicted")
	}
}

func TestCacheTouchOnGet(t *testing.T) {
	c := NewCache(2)
	k1, k2, k3 := cacheKey(10, 6), cacheKey(11, 6), cacheKey(12, 6)
	mustGet := func(k Key) {
		t.Helper()
		if _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(k1)
	mustGet(k2)
	mustGet(k1) // touch k1 so k2 becomes the LRU victim
	mustGet(k3) // evicts k2
	hitsBefore := c.Stats().Hits
	mustGet(k1)
	if hitsAfter := c.Stats().Hits; hitsAfter != hitsBefore+1 {
		t.Error("touched key was evicted instead of the LRU one")
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache(4)
	if _, err := c.Get(cacheKey(10, 6)); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if n := c.Stats().Entries; n != 0 {
		t.Errorf("entries after purge = %d", n)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Errorf("stats after purge = %v", st)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines over a few
// keys; run with -race. Every caller must observe the same model instance
// per key (single-flight), and each key must be computed exactly once.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	keys := []Key{cacheKey(20, 8), cacheKey(25, 10), cacheKey(30, 12), cacheKey(35, 14)}
	const goroutines = 32
	const rounds = 25

	models := make([][]*Model, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			models[g] = make([]*Model, len(keys))
			for r := 0; r < rounds; r++ {
				for i, k := range keys {
					m, err := c.Get(k)
					if err != nil {
						t.Error(err)
						return
					}
					if models[g][i] == nil {
						models[g][i] = m
					} else if models[g][i] != m {
						t.Errorf("goroutine %d key %d: model instance changed", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	for i := range keys {
		for g := 1; g < goroutines; g++ {
			if models[g][i] != models[0][i] {
				t.Errorf("key %d: goroutine %d saw a different model", i, g)
			}
		}
	}
	st := c.Stats()
	if st.Misses != uint64(len(keys)) {
		t.Errorf("misses = %d, want one per key (%d)", st.Misses, len(keys))
	}
	if want := uint64(goroutines*rounds*len(keys)) - st.Misses; st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}
}

// TestCacheConcurrentEviction races lookups against evictions: a capacity-1
// cache with callers cycling disjoint keys must never corrupt results.
func TestCacheConcurrentEviction(t *testing.T) {
	c := NewCache(1)
	keys := []Key{cacheKey(20, 8), cacheKey(25, 10), cacheKey(30, 12)}
	want := make([]float64, len(keys))
	for i, k := range keys {
		m, err := Compute(k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.LCNOT
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r) % len(keys)
				m, err := c.Get(keys[i])
				if err != nil {
					t.Error(err)
					return
				}
				if m.LCNOT != want[i] {
					t.Errorf("key %d: L_CNOT %v, want %v", i, m.LCNOT, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
