package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic, concurrency-safe test clock. All telemetry
// time flows through the injected Clock, so tests drive epoch boundaries
// and clock jumps explicitly — no sleeps, no time.Now.
type fakeClock struct {
	nanos atomic.Int64
}

func newFakeClock(start time.Time) *fakeClock {
	c := &fakeClock{}
	c.nanos.Store(start.UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }
func (c *fakeClock) Set(t time.Time)         { c.nanos.Store(t.UnixNano()) }
func (c *fakeClock) opts(l time.Duration, n int) WindowOptions {
	return WindowOptions{Length: l, Slots: n, Clock: c.Now}
}

var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// oracleQuantile is the brute-force reference: exact nearest-rank quantile
// over the retained samples.
func oracleQuantile(samples []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// TestWindowQuantileVsOracle records a randomized sample set and checks the
// sketch's quantiles against the exact sorted-sample oracle within the
// bucket layout's resolution.
func TestWindowQuantileVsOracle(t *testing.T) {
	clk := newFakeClock(t0)
	w := NewWindow(clk.opts(time.Minute, 6))
	rng := rand.New(rand.NewSource(42))
	var samples []time.Duration
	for i := 0; i < 5000; i++ {
		// Log-uniform over 20µs .. 2s — the realistic request-latency span.
		d := time.Duration(2e4 * math.Pow(1e5, rng.Float64()))
		samples = append(samples, d)
		w.Observe(d)
		if i%100 == 0 {
			clk.Advance(time.Second) // spread across slots, within the window
		}
	}
	h := w.Snapshot()
	if h.Count() != uint64(len(samples)) {
		t.Fatalf("merged count = %d, want %d", h.Count(), len(samples))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("q%g: no data", q)
		}
		want := oracleQuantile(samples, q)
		rel := math.Abs(got.Seconds()-want.Seconds()) / want.Seconds()
		// One bucket is a 9% ratio; interpolation error stays within it.
		if rel > 0.10 {
			t.Errorf("q%g = %v, oracle %v (rel err %.3f > 0.10)", q, got, want, rel)
		}
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	if h.Sum() != sum {
		t.Errorf("merged sum = %v, want %v", h.Sum(), sum)
	}
}

// TestWindowExpiry proves old epochs fall out of the merge as the clock
// advances: the window forgets, without unbounded memory.
func TestWindowExpiry(t *testing.T) {
	clk := newFakeClock(t0)
	w := NewWindow(clk.opts(time.Minute, 6)) // 10s epochs
	w.Observe(time.Millisecond)
	w.Observe(2 * time.Millisecond)
	if got := w.Snapshot().Count(); got != 2 {
		t.Fatalf("fresh count = %d, want 2", got)
	}
	clk.Advance(30 * time.Second)
	w.Observe(3 * time.Millisecond)
	if got := w.Snapshot().Count(); got != 3 {
		t.Fatalf("mid-window count = %d, want 3", got)
	}
	clk.Advance(40 * time.Second) // first two samples now out of the window
	if got := w.Snapshot().Count(); got != 1 {
		t.Fatalf("after expiry count = %d, want 1", got)
	}
	clk.Advance(2 * time.Minute) // everything expired
	if got := w.Snapshot().Count(); got != 0 {
		t.Fatalf("after full expiry count = %d, want 0", got)
	}
}

// TestWindowZeroSamples: an empty window has no quantile.
func TestWindowZeroSamples(t *testing.T) {
	clk := newFakeClock(t0)
	w := NewWindow(clk.opts(time.Minute, 6))
	h := w.Snapshot()
	if h.Count() != 0 {
		t.Fatalf("count = %d, want 0", h.Count())
	}
	if _, ok := h.Quantile(0.99); ok {
		t.Error("Quantile on empty window reported ok")
	}
	if h.Mean() != 0 {
		t.Errorf("Mean on empty window = %v", h.Mean())
	}
}

// TestWindowClockJumps drives the fake clock backwards and far forwards:
// backward jumps keep recording into the newest epoch (never lose or
// time-travel samples), forward jumps past the whole ring leave a clean
// window.
func TestWindowClockJumps(t *testing.T) {
	clk := newFakeClock(t0)
	w := NewWindow(clk.opts(time.Minute, 6))
	w.Observe(time.Millisecond)
	clk.Advance(-25 * time.Second) // backwards past two epoch boundaries
	w.Observe(2 * time.Millisecond)
	clk.Advance(25 * time.Second) // restore
	if got := w.Snapshot().Count(); got != 2 {
		t.Fatalf("count after backward jump = %d, want 2 (sample clamped to newest epoch)", got)
	}

	// Reader's clock behind the writer's: the merge must still see the
	// newest slot (it trusts the max of read clock and current epoch).
	clk.Advance(-15 * time.Second)
	if got := w.Snapshot().Count(); got != 2 {
		t.Fatalf("count with lagging read clock = %d, want 2", got)
	}
	clk.Advance(15 * time.Second)

	// Forward jump far past the ring: everything expires, then new samples
	// land in recycled slots with zeroed state.
	clk.Advance(24 * time.Hour)
	if got := w.Snapshot().Count(); got != 0 {
		t.Fatalf("count after forward jump = %d, want 0", got)
	}
	w.Observe(5 * time.Millisecond)
	h := w.Snapshot()
	if h.Count() != 1 {
		t.Fatalf("count after recycle = %d, want 1", h.Count())
	}
	if q, ok := h.Quantile(0.5); !ok || q > 6*time.Millisecond || q < 4*time.Millisecond {
		t.Errorf("recycled-slot p50 = %v ok=%v, want ~5ms", q, ok)
	}
}

// TestWindowEpochBoundaryConcurrent hammers Observe from many goroutines
// while another goroutine walks the clock across epoch boundaries and
// merges concurrently. Run under -race this proves the rotation discipline;
// the final merged count must equal the samples still inside the window
// (every sample recorded after the last expiring boundary).
func TestWindowEpochBoundaryConcurrent(t *testing.T) {
	clk := newFakeClock(t0)
	w := NewWindow(clk.opts(time.Second, 4)) // 250ms epochs
	const writers = 8
	const perWriter = 2000

	var phase atomic.Int64 // current epoch step, bumped by the clock walker
	counts := make([][]uint64, writers)
	for i := range counts {
		counts[i] = make([]uint64, 64)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Clock walker: advance one epoch at a time, snapshotting in between.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			clk.Advance(250 * time.Millisecond)
			phase.Add(1)
			w.Snapshot() // concurrent merges must be race-free
		}
		close(stop)
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := phase.Load()
				w.Observe(time.Millisecond)
				// The sample landed in epoch p or a later one (the walker
				// may advance mid-Observe) — tally the earliest possible.
				counts[g][p]++
			}
		}(g)
	}
	wg.Wait()

	// After the walker stops, the window covers the last 4 epochs: phases
	// 13 through 16. Samples tallied at phase ≥ 16-4+1 are certainly
	// inside; the merged count must be at least those and at most the total.
	var lowerBound, total uint64
	for g := range counts {
		for p, n := range counts[g] {
			total += n
			if p >= 13 {
				lowerBound += n
			}
		}
	}
	got := w.Snapshot().Count()
	if got < lowerBound || got > total {
		t.Fatalf("merged count %d outside [%d, %d]", got, lowerBound, total)
	}
}

// TestCounterWindow covers the sliding counter's rotation and expiry.
func TestCounterWindow(t *testing.T) {
	clk := newFakeClock(t0)
	c := NewCounter(clk.opts(time.Minute, 6))
	c.Add(5)
	clk.Advance(30 * time.Second)
	c.Add(7)
	if got := c.Total(); got != 12 {
		t.Fatalf("total = %d, want 12", got)
	}
	clk.Advance(40 * time.Second)
	if got := c.Total(); got != 7 {
		t.Fatalf("total after expiry = %d, want 7", got)
	}
	clk.Advance(time.Hour)
	if got := c.Total(); got != 0 {
		t.Fatalf("total after full expiry = %d, want 0", got)
	}
}

// TestCounterConcurrent: concurrent Add across epoch boundaries conserves
// the in-window total (race-checked).
func TestCounterConcurrent(t *testing.T) {
	clk := newFakeClock(t0)
	c := NewCounter(clk.opts(10*time.Second, 5))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	// Walk the clock within the window while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			clk.Advance(2 * time.Second)
			c.Total()
		}
	}()
	wg.Wait()
	if got := c.Total(); got != 8000 {
		t.Fatalf("total = %d, want 8000 (all adds within the window)", got)
	}
}

// TestBucketIndex pins the bucket search at the edges.
func TestBucketIndex(t *testing.T) {
	if got := bucketIndex(-time.Second); got != 0 {
		t.Errorf("negative → bucket %d, want 0", got)
	}
	if got := bucketIndex(0); got != 0 {
		t.Errorf("zero → bucket %d, want 0", got)
	}
	if got := bucketIndex(bucketBounds[0]); got != 0 {
		t.Errorf("first bound → bucket %d, want 0", got)
	}
	if got := bucketIndex(bucketBounds[0] + 1); got != 1 {
		t.Errorf("just past first bound → bucket %d, want 1", got)
	}
	last := bucketBounds[len(bucketBounds)-1]
	if got := bucketIndex(last + time.Hour); got != len(bucketBounds) {
		t.Errorf("overflow → bucket %d, want %d", got, len(bucketBounds))
	}
	for i := 1; i < len(bucketBounds); i++ {
		if bucketBounds[i] <= bucketBounds[i-1] {
			t.Fatalf("bounds not increasing at %d: %v, %v", i, bucketBounds[i-1], bucketBounds[i])
		}
	}
}
