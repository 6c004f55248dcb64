package lru

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// fill claims key and, when it owns the entry, fulfills it with v. It
// reports whether the claim was a miss.
func fill(c *Cache[string, int], key string, v int) bool {
	e, owned := c.Claim(key)
	if owned {
		c.Fulfill(e, v, nil)
	}
	return owned
}

// resident reports whether key is resident or in flight, without counting
// a lookup or touching the LRU order.
func resident(c *Cache[string, int], key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// TestDoSharesOneCompute: N goroutines asking for one key while its
// compute is parked all get the one value it computes, and the counters
// record one miss and N-1 hits. Run with -race.
func TestDoSharesOneCompute(t *testing.T) {
	c := New[string, *int](4)
	const n = 32
	var computes atomic.Int32
	start, release := make(chan struct{}), make(chan struct{})
	compute := func() (*int, error) {
		computes.Add(1)
		close(start)
		<-release
		v := 42
		return &v, nil
	}
	got := make([]*int, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := c.Do(context.Background(), "k", compute)
		if err != nil {
			t.Error(err)
		}
		got[0] = v
	}()
	<-start
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", compute)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	// Release the compute only once every joiner has claimed its entry.
	for c.Stats().Hits < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if k := computes.Load(); k != 1 {
		t.Fatalf("%d computes, want 1", k)
	}
	for i, v := range got {
		if v != got[0] || *v != 42 {
			t.Fatalf("caller %d got %v, want the one computed value", i, v)
		}
	}
	if st := c.Stats(); st.Hits != n-1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %s, want %d hits, 1 miss, 1 entry", st, n-1)
	}
}

// TestDoConcurrentKeys hammers a small cache over more keys than it
// holds, so claims, hits and evictions race. Run with -race.
func TestDoConcurrentKeys(t *testing.T) {
	c := New[int, int](2)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				k := (g + r) % 5
				v, err := c.Do(context.Background(), k, func() (int, error) { return 10 * k, nil })
				if err != nil || v != 10*k {
					t.Errorf("key %d: got (%d, %v), want %d", k, v, err, 10*k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses != 16*50 || st.Entries != 2 || st.Evictions != st.Misses-2 {
		t.Errorf("stats = %s: lookups, residency or evictions do not add up", st)
	}
}

// TestLRUOrder: the least recently used entry is the victim, and a hit
// moves its entry to the front.
func TestLRUOrder(t *testing.T) {
	c := New[string, int](2)
	fill(c, "a", 1)
	fill(c, "b", 2)
	if fill(c, "a", 1) { // hit: a moves to the front, b becomes the victim
		t.Fatal("resident key missed")
	}
	fill(c, "c", 3)
	if !resident(c, "a") || resident(c, "b") || !resident(c, "c") {
		t.Fatal("the hit entry was evicted instead of the least recently used one")
	}
	if fill(c, "c", 3) || !fill(c, "b", 2) {
		t.Fatal("resident key missed or evicted key hit")
	}
	// b's reinsert evicted a, the least recently used after c's hit.
	if resident(c, "a") {
		t.Error("a survived as the least recently used entry")
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 2 {
		t.Errorf("stats = %s, want 2 evictions, 2 entries", st)
	}
}

// TestEvictedInFlightStillServes: an entry pushed out while its owner is
// still computing serves the callers that hold it; a later claim misses.
func TestEvictedInFlightStillServes(t *testing.T) {
	c := New[string, int](1)
	e, owned := c.Claim("a")
	if !owned {
		t.Fatal("first claim not owned")
	}
	joined, owned := c.Claim("a")
	if owned || joined != e {
		t.Fatal("second claim did not join the in-flight entry")
	}
	fill(c, "b", 2) // evicts a while in flight
	if resident(c, "a") {
		t.Fatal("evicted entry still found")
	}
	c.Fulfill(e, 1, nil)
	if v, err := joined.Wait(context.Background()); v != 1 || err != nil {
		t.Fatalf("joiner got (%d, %v), want (1, nil)", v, err)
	}
	if !fill(c, "a", 1) {
		t.Error("evicted key hit")
	}
}

// TestFailedComputeUnpublished: a failed compute is gone from the cache
// before any waiter wakes, so the next claim recomputes it, and Do has a
// joiner whose owner failed compute once more itself.
func TestFailedComputeUnpublished(t *testing.T) {
	c := New[string, int](4)
	e, _ := c.Claim("k")
	joined, _ := c.Claim("k")
	boom := errors.New("boom")
	woke := make(chan bool)
	go func() {
		if _, err := joined.Wait(context.Background()); !errors.Is(err, boom) {
			t.Errorf("waiter err = %v, want boom", err)
		}
		woke <- resident(c, "k")
	}()
	c.Fulfill(e, 0, boom)
	if <-woke {
		t.Fatal("failed entry still resident when its waiter woke")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stats = %s, want no entry", st)
	}
	if _, owned := c.Claim("k"); !owned {
		t.Fatal("claim after a failed compute did not recompute")
	}

	// Do: the joiner computes once more after its owner fails.
	c = New[string, int](4)
	owner, _ := c.Claim("k")
	done := make(chan struct{})
	var v int
	var err error
	go func() {
		defer close(done)
		v, err = c.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	}()
	for c.Stats().Hits < 1 {
		runtime.Gosched()
	}
	c.Fulfill(owner, 0, boom)
	<-done
	if v != 7 || err != nil {
		t.Fatalf("joiner of a failed owner got (%d, %v), want its own (7, nil)", v, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %s, want 2 misses, the joiner's entry resident", st)
	}
}

// TestWaitHonoursContext: a waiter whose context ends returns its error
// while the owner is still computing; Do then neither waits nor retries.
func TestWaitHonoursContext(t *testing.T) {
	c := New[string, int](4)
	e, _ := c.Claim("k") // the owner never finishes during the test
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	ran := false
	if _, err := c.Do(ctx, "k", func() (int, error) { ran = true; return 1, nil }); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("Do = %v (compute ran %v), want context.Canceled without computing", err, ran)
	}
	c.Fulfill(e, 1, nil)
	if v, err := e.Wait(context.Background()); v != 1 || err != nil {
		t.Fatalf("owner's outcome (%d, %v), want (1, nil)", v, err)
	}
}

// TestPurgeAndStats: Purge drops every entry and zeroes the counters; an
// entry in flight across the Purge still serves its holders.
func TestPurgeAndStats(t *testing.T) {
	c := New[string, int](2)
	fill(c, "a", 1)
	fill(c, "a", 1)
	fill(c, "b", 2)
	fill(c, "c", 3)
	want := Stats{Hits: 1, Misses: 3, Evictions: 1, Entries: 2, Capacity: 2}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %s, want %s", st, want)
	}
	if s := want.String(); s != "hits=1 misses=3 evictions=1 entries=2/2" {
		t.Errorf("String() = %q", s)
	}
	inflight, _ := c.Claim("d")
	c.Purge()
	if st := c.Stats(); st != (Stats{Capacity: 2}) {
		t.Fatalf("stats after Purge = %s, want zeroes", st)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if resident(c, k) {
			t.Fatalf("%s resident after Purge", k)
		}
	}
	c.Fulfill(inflight, 4, nil)
	if v, err := inflight.Wait(context.Background()); v != 4 || err != nil {
		t.Fatalf("in-flight entry across Purge gave (%d, %v)", v, err)
	}
	if !fill(c, "a", 1) || fill(c, "a", 1) {
		t.Fatal("cache does not work after Purge")
	}
	if New[string, int](0).Stats().Capacity != 1 {
		t.Error("capacity below 1 not clamped")
	}
}
