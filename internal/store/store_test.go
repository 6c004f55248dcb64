package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/qcbin"
)

func genFT(t testing.TB, name string) *circuit.Circuit {
	t.Helper()
	c, err := benchgen.GenerateFT(name)
	if err != nil {
		t.Fatalf("GenerateFT(%s): %v", name, err)
	}
	return c
}

func newStore(t testing.TB, opt Options) *Store {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMemoryTier: second GetOrAnalyze of the same content is a memory hit
// returning the identical *Analysis, regardless of container or qubit
// names.
func TestMemoryTier(t *testing.T) {
	s := newStore(t, Options{})
	c := genFT(t, "8bitadder")
	a1, d1, err := s.GetOrAnalyze(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	a2, d2, err := s.GetOrAnalyze(analysis.NewCircuitStream(c.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digests differ: %s vs %s", d1, d2)
	}
	if a1 != a2 {
		t.Error("memory hit returned a different Analysis pointer")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %s, want 1 hit / 1 miss", st)
	}
	if !s.Contains(d1) {
		t.Error("Contains(digest) = false after store")
	}
	if _, err := s.Get(d1); err != nil {
		t.Errorf("Get(%s): %v", d1, err)
	}
	if _, err := s.Get("deadbeef" + d1[8:]); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("nothex!"); err == nil {
		t.Error("Get(malformed digest) succeeded")
	}
}

// TestDiskTier: a second store over the same directory serves the analysis
// from disk, bitwise-identical at the estimate level.
func TestDiskTier(t *testing.T) {
	dir := t.TempDir()
	c := genFT(t, "8bitadder")

	s1 := newStore(t, Options{Dir: dir})
	a1, digest, err := s1.GetOrAnalyze(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.Puts != 1 || st.DiskEntries != 1 || st.DiskBytes <= 0 {
		t.Fatalf("after first analyze: %s, want 1 put", st)
	}
	if _, err := os.Stat(filepath.Join(dir, digest+".qca")); err != nil {
		t.Fatalf("image not on disk: %v", err)
	}

	// "Restart": a fresh store over the same directory.
	s2 := newStore(t, Options{Dir: dir})
	if st := s2.Stats(); st.DiskEntries != 1 || st.DiskBytes <= 0 {
		t.Fatalf("restart scan missed the image: %s", st)
	}
	a2, err := s2.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Errorf("restart Get: %s, want 1 disk hit", st)
	}
	assertSameEstimate(t, c.Name, a1, a2)

	// Corrupt image: recomputed, not served.
	if err := os.WriteFile(filepath.Join(dir, digest+".qca"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := newStore(t, Options{Dir: dir})
	a3, d3, err := s3.GetOrAnalyze(analysis.NewCircuitStream(c))
	if err != nil || d3 != digest {
		t.Fatalf("GetOrAnalyze over corrupt image: %v (digest %s)", err, d3)
	}
	if st := s3.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Errorf("corrupt image: %s, want a clean miss", st)
	}
	assertSameEstimate(t, c.Name, a1, a3)
}

// TestVersion1ImageIsAMiss: a version-1 .qca image under the store's
// directory fails its version check. GetOrAnalyzeOutcome counts it as a
// miss, removes it, writes a version-2 image in its place and returns a
// Result bitwise equal to a fresh analysis's; GetOutcome finds nothing and
// removes it too. Neither ever misreads it.
func TestVersion1ImageIsAMiss(t *testing.T) {
	c := genFT(t, "8bitadder")
	fresh, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := qcbin.Digest(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	// plant writes a version-1 image of c's analysis into a new directory:
	// a version-2 image with its version byte set to 1, which is all the
	// decoder reads before it stops.
	plant := func() (dir, path string) {
		var buf bytes.Buffer
		if err := qcbin.EncodeImage(&buf, fresh); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		img[4] = 1
		dir = t.TempDir()
		path = filepath.Join(dir, digest+".qca")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, path
	}

	dir, path := plant()
	s := newStore(t, Options{Dir: dir})
	a, d, outcome, err := s.GetOrAnalyzeOutcome(context.Background(), analysis.NewCircuitStream(c))
	if err != nil || d != digest || outcome != OutcomeMiss {
		t.Fatalf("GetOrAnalyzeOutcome over a v1 image = %v, %s, %v; want a miss on %s", outcome, d, err, digest)
	}
	if st := s.Stats(); st.DiskHits != 0 || st.Misses != 1 || st.Puts != 1 || st.DiskEntries != 1 {
		t.Fatalf("stats = %s, want 1 miss, 1 put and the one rewritten image", st)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no image rewritten: %v", err)
	}
	if data[4] != qcbin.ImageVersion {
		t.Fatalf("rewritten image has version %d, want %d", data[4], qcbin.ImageVersion)
	}
	assertSameEstimate(t, c.Name, fresh, a)

	dir, path = plant()
	s = newStore(t, Options{Dir: dir})
	if a, outcome, err := s.GetOutcome(digest); !errors.Is(err, ErrNotFound) || a != nil || outcome != OutcomeMiss {
		t.Fatalf("GetOutcome over a v1 image = %v, %v; want a miss with ErrNotFound", outcome, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("v1 image not removed: %v", err)
	}
	if st := s.Stats(); st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("stats = %s, want an empty disk tier", st)
	}
}

// assertSameEstimate checks two analyses produce bitwise-identical
// Results under the paper fabric.
func assertSameEstimate(t *testing.T, label string, a, b *analysis.Analysis) {
	t.Helper()
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := est.EstimateAnalysis(a, nil)
	if err != nil {
		t.Fatalf("%s: estimate(a): %v", label, err)
	}
	rb, err := est.EstimateAnalysis(b, nil)
	if err != nil {
		t.Fatalf("%s: estimate(b): %v", label, err)
	}
	if math.Float64bits(ra.EstimatedLatency) != math.Float64bits(rb.EstimatedLatency) || !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%s: estimates differ: %+v vs %+v", label, ra, rb)
	}
}

// TestAllBenchmarksBitwise sweeps every paper benchmark through the two
// tiers and checks store hits are estimate-identical to fresh analyses.
func TestAllBenchmarksBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	dir := t.TempDir()
	s := newStore(t, Options{Dir: dir})
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range benchgen.PaperBenchmarks {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			t.Fatalf("GenerateFT(%s): %v", name, err)
		}
		fresh, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, digest, err := s.GetOrAnalyze(analysis.NewCircuitStream(c))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Force the disk path: a fresh store shares only the directory.
		s2 := newStore(t, Options{Dir: dir})
		loaded, err := s2.Get(digest)
		if err != nil {
			t.Fatalf("%s: disk Get: %v", name, err)
		}
		want, err := est.EstimateAnalysis(fresh, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := est.EstimateAnalysis(loaded, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want.EstimatedLatency != got.EstimatedLatency || want.CriticalPath.Length != got.CriticalPath.Length ||
			want.LCNOTAvg != got.LCNOTAvg {
			t.Errorf("%s: disk-loaded estimate %+v != fresh %+v", name, got, want)
		}
	}
}

// TestSingleFlight: concurrent GetOrAnalyze of one digest analyzes once.
func TestSingleFlight(t *testing.T) {
	s := newStore(t, Options{})
	c := genFT(t, "8bitadder")
	const n = 16
	results := make([]*analysis.Analysis, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, _, err := s.GetOrAnalyze(analysis.NewCircuitStream(c.Clone()))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("%d analyses for one digest (stats %s)", st.Misses, st)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different Analysis", i)
		}
	}
}

// TestLRUEviction: the memory tier respects its capacity.
func TestLRUEviction(t *testing.T) {
	s := newStore(t, Options{MemEntries: 2})
	var digests []string
	for i := 0; i < 3; i++ {
		c := circuit.New("c", 2+i)
		c.Gates = []circuit.Gate{{Type: circuit.CNOT, Controls: []int{0}, Targets: []int{1}}}
		_, d, err := s.GetOrAnalyze(analysis.NewCircuitStream(c))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %s, want 2 entries / 1 eviction", st)
	}
	if s.Contains(digests[0]) {
		t.Error("oldest digest survived eviction")
	}
}

// TestDiskEviction: the disk tier evicts oldest-first under its byte cap,
// never the image just written.
func TestDiskEviction(t *testing.T) {
	dir := t.TempDir()
	// Learn one image's size to set a cap that holds ~2 images.
	probe := newStore(t, Options{Dir: t.TempDir()})
	c0 := genFT(t, "8bitadder")
	if _, _, err := probe.GetOrAnalyze(analysis.NewCircuitStream(c0)); err != nil {
		t.Fatal(err)
	}
	size := probe.Stats().DiskBytes
	if size <= 0 {
		t.Fatal("no probe image written")
	}

	s := newStore(t, Options{Dir: dir, MaxDiskBytes: 2*size + size/2})
	var digests []string
	for i := 0; i < 3; i++ {
		c := c0.Clone()
		c.Name = c0.Name + string(rune('a'+i)) // distinct digests, same size class
		_, d, err := s.GetOrAnalyze(analysis.NewCircuitStream(c))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	st := s.Stats()
	if st.DiskEvictions == 0 {
		t.Fatalf("no disk evictions under cap (stats %s)", st)
	}
	if st.DiskBytes > s.maxDiskBytes {
		t.Errorf("disk tier over cap: %s", st)
	}
	if _, err := os.Stat(filepath.Join(dir, digests[2]+".qca")); err != nil {
		t.Error("most recent image was evicted")
	}
}

// TestFailedComputeRetries: an error does not poison the digest.
func TestFailedComputeRetries(t *testing.T) {
	s := newStore(t, Options{})
	// A circuit with a >2-qubit gate fails analysis (decompose first).
	c := circuit.New("wide", 3)
	c.Gates = []circuit.Gate{{Type: circuit.Toffoli, Controls: []int{0, 1}, Targets: []int{2}}}
	if _, _, err := s.GetOrAnalyze(analysis.NewCircuitStream(c)); err == nil {
		t.Fatal("wide gate analyzed successfully")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Errorf("failed compute left a resident entry: %s", st)
	}
	// The same digest must retry (and fail again, freshly), not replay a
	// memoized error as a hit.
	if _, _, err := s.GetOrAnalyze(analysis.NewCircuitStream(c)); err == nil {
		t.Fatal("second attempt succeeded")
	}
	if st := s.Stats(); st.Hits != 0 {
		t.Errorf("failed digest served as a hit: %s", st)
	}
}

// cancelOnRewind cancels its context when the stream is rewound the n-th
// time.
type cancelOnRewind struct {
	analysis.GateStream
	n, rewinds int
	cancel     context.CancelFunc
}

func (s *cancelOnRewind) Rewind() error {
	if s.rewinds++; s.rewinds == s.n {
		s.cancel()
	}
	return s.GateStream.Rewind()
}

// TestCancelledAnalysisNotStored cancels a lookup between its digest pass
// and its analysis pass: the analysis polls the context, fails with its
// error, and the digest stays computable by the next caller.
func TestCancelledAnalysisNotStored(t *testing.T) {
	s := newStore(t, Options{})
	c := genFT(t, "8bitadder")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Rewind 1 starts the digest pass, rewind 2 the analysis pass.
	src := &cancelOnRewind{GateStream: analysis.NewCircuitStream(c), n: 2, cancel: cancel}
	if _, _, _, err := s.GetOrAnalyzeOutcome(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the analysis pass", err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("stats after a cancelled analysis = %s, want no entry and 1 miss", st)
	}
	if _, _, outcome, err := s.GetOrAnalyzeOutcome(context.Background(), analysis.NewCircuitStream(c)); err != nil || outcome != OutcomeMiss {
		t.Fatalf("retry = %v, %v; want a fresh analysis", outcome, err)
	}
}

// blockOnRewind parks its n-th Rewind: it closes reached, then waits for
// release.
type blockOnRewind struct {
	analysis.GateStream
	n, rewinds       int
	reached, release chan struct{}
}

func (s *blockOnRewind) Rewind() error {
	if s.rewinds++; s.rewinds == s.n {
		close(s.reached)
		<-s.release
	}
	return s.GateStream.Rewind()
}

// TestJoinerOutlivesCancelledOwner: a lookup that joins another caller's
// in-flight analysis does not inherit that caller's cancellation. The
// owner is cancelled while its analysis pass is parked. A joining
// GetOrAnalyzeOutcome, whose own context is live, analyzes the digest
// itself; a joining by-reference GetOutcome looks the digest up again and
// finds the analysis or nothing, never the owner's context.Canceled.
func TestJoinerOutlivesCancelledOwner(t *testing.T) {
	c := genFT(t, "8bitadder")
	for _, tc := range []struct {
		name string
		join func(s *Store, digest string) (*analysis.Analysis, error)
		// check judges the joiner's result and the resident entry count.
		check func(a *analysis.Analysis, err error, entries int) bool
	}{
		{"GetOrAnalyzeOutcome",
			func(s *Store, _ string) (*analysis.Analysis, error) {
				a, _, _, err := s.GetOrAnalyzeOutcome(context.Background(), analysis.NewCircuitStream(c.Clone()))
				return a, err
			},
			func(a *analysis.Analysis, err error, entries int) bool { return err == nil && a != nil && entries == 1 }},
		{"GetOutcome",
			func(s *Store, digest string) (*analysis.Analysis, error) {
				a, _, err := s.GetOutcome(digest)
				return a, err
			},
			func(a *analysis.Analysis, err error, entries int) bool {
				return (err == nil && a != nil) || (errors.Is(err, ErrNotFound) && entries == 0)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t, Options{})
			digest, err := qcbin.Digest(analysis.NewCircuitStream(c))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Rewind 1 starts the owner's digest pass, rewind 2 its analysis
			// pass.
			owner := &blockOnRewind{GateStream: analysis.NewCircuitStream(c), n: 2,
				reached: make(chan struct{}), release: make(chan struct{})}
			ownerErr := make(chan error, 1)
			go func() {
				_, _, _, err := s.GetOrAnalyzeOutcome(ctx, owner)
				ownerErr <- err
			}()
			<-owner.reached

			type result struct {
				a   *analysis.Analysis
				err error
			}
			joined := make(chan result, 1)
			go func() {
				a, err := tc.join(s, digest)
				joined <- result{a, err}
			}()
			// The joiner's hit on the in-flight entry means it now waits on
			// it.
			for s.Stats().Hits < 1 {
				time.Sleep(time.Millisecond)
			}
			cancel()
			close(owner.release)

			if err := <-ownerErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("owner err = %v, want context.Canceled", err)
			}
			r := <-joined
			if st := s.Stats(); !tc.check(r.a, r.err, st.Entries) {
				t.Fatalf("joiner got (%v, %v) with stats %s; want its own lookup's result", r.a != nil, r.err, st)
			}
		})
	}
}
