package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ingest"
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
	if a, outcome, err := s.GetOutcome(d1); err != nil || a != a1 || outcome != OutcomeHit {
		t.Errorf("GetOutcome(%s) = %v, %v; want the stored Analysis as a memory hit", d1, outcome, err)
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

// TestVersion1ImageIsAMiss: a version-1, -2 or -3 .qca image, the
// store's image format before images became .qcb netlists, fails the .qcb
// magic check. GetOrAnalyzeOutcome counts it as a miss, removes it, writes
// a .qcb image in its place and returns an analysis equal to a fresh one;
// GetOutcome finds nothing and removes it too. Neither ever misreads it.
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
	for _, v := range []byte{1, 2, 3} {
		// plant writes the header a version-v image of c's analysis opened
		// with into a new directory: magic "\x9dQCA", the version byte, the
		// name, the qubit and operation counts and the FT flag.
		plant := func() (dir, path string) {
			img := append([]byte{0x9D, 'Q', 'C', 'A', v, byte(len(fresh.Name))}, fresh.Name...)
			img = binary.AppendUvarint(img, uint64(fresh.Qubits))
			img = binary.AppendUvarint(img, uint64(fresh.Operations))
			img = append(img, 1)
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
			t.Fatalf("GetOrAnalyzeOutcome over a v%d image = %v, %s, %v; want a miss on %s", v, outcome, d, err, digest)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("v%d: no image rewritten: %v", v, err)
		}
		if st := s.Stats(); st.DiskHits != 0 || st.Misses != 1 || st.Puts != 1 || st.DiskEntries != 1 || st.DiskBytes != int64(len(data)) {
			t.Fatalf("v%d: stats = %s, want 1 miss, 1 put and the one rewritten image of %d B", v, st, len(data))
		}
		if [4]byte(data) != qcbin.MagicQCB {
			t.Fatalf("v%d: rewritten image opens with % x, want the .qcb magic", v, data[:4])
		}
		assertSameAnalysis(t, c.Name, fresh, a)

		dir, path = plant()
		s = newStore(t, Options{Dir: dir})
		if a, outcome, err := s.GetOutcome(digest); !errors.Is(err, ErrNotFound) || a != nil || outcome != OutcomeMiss {
			t.Fatalf("GetOutcome over a v%d image = %v, %v; want a miss with ErrNotFound", v, outcome, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("v%d image not removed: %v", v, err)
		}
		if st := s.Stats(); st.DiskEntries != 0 || st.DiskBytes != 0 {
			t.Fatalf("v%d: stats = %s, want an empty disk tier", v, st)
		}
	}
}

// TestCorruptImageIsAMiss: an image whose netlist is no longer the one its
// digest names is a miss. One operand of the first gate's record moves to
// another qubit, so the image still decodes to a valid circuit, but to a
// different one. GetOutcome finds nothing and removes the image;
// GetOrAnalyzeOutcome analyzes afresh and rewrites it. Neither returns an
// analysis other than the fresh one.
func TestCorruptImageIsAMiss(t *testing.T) {
	c := genFT(t, "8bitadder")
	fresh, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, digest, err := newStore(t, Options{Dir: dir}).GetOrAnalyze(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, digest+".qca")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the first three gate records, the opcode then one byte per
	// operand (every qubit of the register is below 128), and move the
	// first gate's last operand to a qubit it does not touch.
	var recs []byte
	for _, g := range c.Gates[:3] {
		recs = append(recs, byte(g.Type))
		for _, q := range g.Qubits() {
			recs = append(recs, byte(q))
		}
	}
	at := bytes.Index(img, recs)
	if at < 0 {
		t.Fatalf("no gate records % x in the image", recs)
	}
	first := c.Gates[0].Qubits()
	at += len(first)
	q := 0
	for slices.Contains(first, q) {
		q++
	}
	img[at] = byte(q)
	corrupt := func() *Store {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		return newStore(t, Options{Dir: dir})
	}

	s := corrupt()
	if a, outcome, err := s.GetOutcome(digest); !errors.Is(err, ErrNotFound) || a != nil || outcome != OutcomeMiss {
		t.Fatalf("GetOutcome over a corrupt image = %v, %v; want a miss with ErrNotFound", outcome, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt image not removed: %v", err)
	}
	if st := s.Stats(); st.DiskHits != 0 || st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("stats = %s, want no disk hit and an empty disk tier", st)
	}

	s = corrupt()
	a, d, outcome, err := s.GetOrAnalyzeOutcome(context.Background(), analysis.NewCircuitStream(c))
	if err != nil || d != digest || outcome != OutcomeMiss {
		t.Fatalf("GetOrAnalyzeOutcome over a corrupt image = %v, %s, %v; want a miss on %s", outcome, d, err, digest)
	}
	assertSameAnalysis(t, c.Name, fresh, a)
	assertSameEstimate(t, c.Name, fresh, a)
	loaded, outcome, err := newStore(t, Options{Dir: dir}).GetOutcome(digest)
	if err != nil || outcome != OutcomeDiskHit {
		t.Fatalf("rewritten image: %v, %v; want a disk hit", outcome, err)
	}
	assertSameAnalysis(t, c.Name, fresh, loaded)
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

// assertSameAnalysis checks two analyses are equal whole: name, register,
// operation count, FT flag, node records and IIG.
func assertSameAnalysis(t *testing.T, label string, want, got *analysis.Analysis) {
	t.Helper()
	if got.Name != want.Name || got.Qubits != want.Qubits || got.Operations != want.Operations || got.FT != want.FT {
		t.Fatalf("%s: metadata %q/%d/%d/%v, want %q/%d/%d/%v", label,
			got.Name, got.Qubits, got.Operations, got.FT, want.Name, want.Qubits, want.Operations, want.FT)
	}
	if !slices.Equal(got.QODG.Nodes, want.QODG.Nodes) || got.QODG.NumQubits != want.QODG.NumQubits {
		t.Fatalf("%s: node records differ", label)
	}
	if !reflect.DeepEqual(got.IIG, want.IIG) {
		t.Fatalf("%s: IIG differs", label)
	}
}

// TestPutOverDiskImageIsADiskHit: an upload whose digest has an image on
// disk, but no memory-tier entry, is a disk hit when the image is the
// encoding of its analysis. The image is left as it was, nothing is
// written or counted as a miss, the analysis returned equals a fresh one,
// and the next upload of the circuit is a memory hit.
func TestPutOverDiskImageIsADiskHit(t *testing.T) {
	c := genFT(t, "gf2^16mult")
	fresh, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, digest, err := newStore(t, Options{Dir: dir}).GetOrAnalyze(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, digest+".qca")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(t, Options{Dir: dir})
	a, d, outcome, err := s.GetOrAnalyzeOutcome(context.Background(), analysis.NewCircuitStream(c))
	if err != nil || d != digest || outcome != OutcomeDiskHit {
		t.Fatalf("upload over its image = %v, %s, %v; want a disk hit on %s", outcome, d, err, digest)
	}
	assertSameAnalysis(t, c.Name, fresh, a)
	if st := s.Stats(); st.DiskHits != 1 || st.Misses != 0 || st.Puts != 0 || st.Entries != 1 || st.DiskEntries != 1 {
		t.Fatalf("stats = %s, want 1 disk hit, no miss, no put and one entry", st)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("image changed by a disk hit (err %v)", err)
	}
	if _, _, outcome, err := s.GetOrAnalyzeOutcome(context.Background(), analysis.NewCircuitStream(c)); err != nil || outcome != OutcomeHit {
		t.Fatalf("second upload = %v, %v; want a memory hit", outcome, err)
	}
}

// TestAllBenchmarksBitwise sweeps every paper benchmark, and one of them
// unnamed, through the two tiers and checks a disk hit rebuilds the whole
// fresh analysis. An unnamed circuit's image has an empty name, which the
// rebuilt analysis and the digest check must keep.
func TestAllBenchmarksBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	var cs []*circuit.Circuit
	for _, name := range benchgen.PaperBenchmarks {
		cs = append(cs, genFT(t, name))
	}
	unnamed := cs[0].Clone()
	unnamed.Name = ""
	cs = append(cs, unnamed)
	dir := t.TempDir()
	s := newStore(t, Options{Dir: dir})
	for _, c := range cs {
		name := c.Name
		fresh, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, digest, err := s.GetOrAnalyze(analysis.NewCircuitStream(c))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Force the disk path: a fresh store shares only the directory.
		loaded, outcome, err := newStore(t, Options{Dir: dir}).GetOutcome(digest)
		if err != nil || outcome != OutcomeDiskHit {
			t.Fatalf("%s: disk GetOutcome = %v, %v; want a disk hit", name, outcome, err)
		}
		assertSameAnalysis(t, name, fresh, loaded)
	}
}

// TestStoredAnalysisExactSlab: the memory tier keeps an analysis for long,
// so one analyzed from a streamed .qc must hold its nodes in an exact-size
// slab, not in the slab the stream grew by doubling.
func TestStoredAnalysisExactSlab(t *testing.T) {
	c := genFT(t, "gf2^20mult")
	var qc bytes.Buffer
	if err := circuit.WriteQC(&qc, c); err != nil {
		t.Fatal(err)
	}
	sc := ingest.NewScanner(bytes.NewReader(qc.Bytes()), c.Name, ingest.Options{})
	defer sc.Close()
	a, _, err := newStore(t, Options{}).GetOrAnalyze(sc)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.QODG.Nodes; len(n) < 5000 || cap(n) != len(n) {
		t.Errorf("stored analysis holds %d nodes in capacity %d, want at least 5000 at exact size", len(n), cap(n))
	}
}

// TestSingleFlight: concurrent GetOrAnalyze of one digest stores one
// analysis, and every caller gets that one.
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
	if _, outcome, err := s.GetOutcome(digests[0]); !errors.Is(err, ErrNotFound) || outcome != OutcomeMiss {
		t.Errorf("GetOutcome(oldest) = %v, %v; want it evicted", outcome, err)
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

// TestOrphanTempImagesNotCounted: a crash between CreateTemp and Rename
// leaves a .tmp-*.qca file behind, here the size of two images. It is not
// an image: a restarted store counts none of its bytes against the cap,
// and leaves it in place, since another process on the same directory may
// still be writing it. So two images that fit the cap both survive.
func TestOrphanTempImagesNotCounted(t *testing.T) {
	cs := []*circuit.Circuit{genFT(t, "8bitadder"), genFT(t, "ham7")}
	var total int64
	for _, c := range cs {
		a, err := analysis.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := qcbin.EncodeAnalysis(&buf, a); err != nil {
			t.Fatal(err)
		}
		total += int64(buf.Len())
	}
	dir := t.TempDir()
	orphan := filepath.Join(dir, ".tmp-1234.qca")
	if err := os.WriteFile(orphan, make([]byte, total), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newStore(t, Options{Dir: dir, MaxDiskBytes: total})
	if st := s.Stats(); st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("stats = %s, want an empty disk tier beside the orphan", st)
	}
	var digests []string
	for _, c := range cs {
		_, d, err := s.GetOrAnalyze(analysis.NewCircuitStream(c))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if st := s.Stats(); st.DiskEvictions != 0 || st.DiskEntries != 2 || st.DiskBytes != total {
		t.Fatalf("stats = %s, want both images (%d B) and no eviction", st, total)
	}
	for _, d := range digests {
		if _, err := os.Stat(filepath.Join(dir, d+".qca")); err != nil {
			t.Errorf("image %s did not survive: %v", d, err)
		}
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Errorf("orphan removed: %v", err)
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

// cancelAtScan cancels its context on the stream's scan number at.
type cancelAtScan struct {
	analysis.GateStream
	at, scans int
	cancel    context.CancelFunc
}

func (s *cancelAtScan) Scan() bool {
	if s.scans++; s.scans == s.at {
		s.cancel()
	}
	return s.GateStream.Scan()
}

// longCircuit has three context-poll intervals of gates.
func longCircuit() *circuit.Circuit {
	c := circuit.New("long", 2)
	for i := 0; i < 3*analysis.CtxCheckEvery; i++ {
		c.Append(circuit.NewCNOT(i%2, 1-i%2))
	}
	return c
}

// TestCancelledAnalysisNotStored cancels a GetOrAnalyzeOutcome during its
// analysis pass: the pass polls the context and fails with its error
// before any lookup, so it counts no miss and stores nothing, and the
// digest stays computable by the next caller.
func TestCancelledAnalysisNotStored(t *testing.T) {
	s := newStore(t, Options{})
	c := longCircuit()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAtScan{GateStream: analysis.NewCircuitStream(c), at: 100, cancel: cancel}
	if _, _, _, err := s.GetOrAnalyzeOutcome(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the analysis pass", err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("stats after a cancelled analysis = %s, want no entry and no lookup", st)
	}
	if _, _, outcome, err := s.GetOrAnalyzeOutcome(context.Background(), analysis.NewCircuitStream(c)); err != nil || outcome != OutcomeMiss {
		t.Fatalf("retry = %v, %v; want a fresh analysis", outcome, err)
	}
}

// onePass is a stream that can be read once: any Rewind after its first
// Scan fails, as a request body's would with nothing to replay it from.
type onePass struct {
	analysis.GateStream
	scanned bool
}

func (s *onePass) Scan() bool {
	s.scanned = true
	return s.GateStream.Scan()
}

func (s *onePass) Rewind() error {
	if s.scanned {
		return errors.New("onePass: rewound after a pass started")
	}
	return s.GateStream.Rewind()
}

// TestGetOrAnalyzeReadsOnce: GetOrAnalyzeOutcome reads its stream once.
// A stream that cannot be rewound once a pass has started is analyzed,
// stored under the digest of its netlist and persisted, and a second such
// stream of the same netlist is a memory hit.
func TestGetOrAnalyzeReadsOnce(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, Options{Dir: dir})
	c := genFT(t, "8bitadder")
	want, err := qcbin.DigestCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	a, digest, outcome, err := s.GetOrAnalyzeOutcome(context.Background(), &onePass{GateStream: analysis.NewCircuitStream(c)})
	if err != nil || outcome != OutcomeMiss || digest != want {
		t.Fatalf("GetOrAnalyzeOutcome = %s, %v, %v; want a miss storing digest %s", digest, outcome, err, want)
	}
	fresh, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimate(t, c.Name, fresh, a)
	if st := s.Stats(); st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("stats = %s, want the analysis stored and persisted", st)
	}
	again, _, outcome, err := s.GetOrAnalyzeOutcome(context.Background(), &onePass{GateStream: analysis.NewCircuitStream(c.Clone())})
	if err != nil || outcome != OutcomeHit || again != a {
		t.Fatalf("re-upload = %v, %v; want the stored analysis as a memory hit", outcome, err)
	}
}

// cancelAtEnd cancels its context when a pass reaches the end of the
// stream.
type cancelAtEnd struct {
	analysis.GateStream
	cancel context.CancelFunc
}

func (s *cancelAtEnd) Scan() bool {
	if s.GateStream.Scan() {
		return true
	}
	s.cancel()
	return false
}

// TestCancelledDiskRebuildKeepsImage cancels a lookup as its analysis
// pass ends, so the disk probe that follows, the check of the image
// against the upload's analysis, runs under a done context. The probe
// fails with the context's error, counts neither a disk hit nor a miss,
// and leaves the image on disk for the next lookup to serve: a cancelled
// probe is not a corrupt image.
func TestCancelledDiskRebuildKeepsImage(t *testing.T) {
	dir := t.TempDir()
	c := genFT(t, "8bitadder")
	_, digest, err := newStore(t, Options{Dir: dir}).GetOrAnalyze(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(t, Options{Dir: dir})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAtEnd{GateStream: analysis.NewCircuitStream(c), cancel: cancel}
	if _, _, _, err := s.GetOrAnalyzeOutcome(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the disk rebuild", err)
	}
	if st := s.Stats(); st.Misses != 0 || st.DiskHits != 0 || st.Entries != 0 || st.DiskEntries != 1 {
		t.Fatalf("stats after a cancelled rebuild = %s, want no miss, no disk hit, no entry and the image kept", st)
	}
	if _, err := os.Stat(filepath.Join(dir, digest+".qca")); err != nil {
		t.Fatalf("image gone after a cancelled rebuild: %v", err)
	}
	if _, outcome, err := s.GetOutcome(digest); err != nil || outcome != OutcomeDiskHit {
		t.Fatalf("lookup after a cancelled rebuild = %v, %v; want a disk hit", outcome, err)
	}
}

// parkOwner starts the owner of a lookup of digest whose compute parks
// inside lookup: it closes reached and waits for release, then fails with
// ctx's error if ctx is done, as a disk rebuild that polls ctx does, and
// stores a otherwise. done receives the owner's error.
func parkOwner(s *Store, ctx context.Context, digest string, a *analysis.Analysis) (reached, release chan struct{}, done chan error) {
	reached, release, done = make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		// A memory-only store reads no image, so the lookup needs no read.
		_, _, err := s.lookup(ctx, digest, nil, func() (*analysis.Analysis, error) {
			close(reached)
			<-release
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return a, nil
		})
		done <- err
	}()
	return reached, release, done
}

// TestJoinerOutlivesCancelledOwner: a lookup that joins another caller's
// in-flight lookup does not inherit that caller's cancellation. The owner
// is cancelled while its compute is parked. A joining
// GetOrAnalyzeOutcome, whose own context is live, stores its own
// analysis; a joining by-reference GetOutcome looks the digest up again
// and finds the analysis or nothing, never the owner's context.Canceled.
func TestJoinerOutlivesCancelledOwner(t *testing.T) {
	c := genFT(t, "8bitadder")
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
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
			digest := qcbin.DigestAnalysis(a)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reached, release, ownerErr := parkOwner(s, ctx, digest, a)
			<-reached

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
			close(release)

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

// TestCancelledJoinerStopsWaiting: a GetOrAnalyzeOutcome that joins
// another caller's in-flight lookup returns its own context's error as
// soon as that context ends, while the owner's compute is still parked;
// the owner then finishes and stores the analysis.
func TestCancelledJoinerStopsWaiting(t *testing.T) {
	s := newStore(t, Options{})
	c := genFT(t, "8bitadder")
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	reached, release, ownerErr := parkOwner(s, context.Background(), qcbin.DigestAnalysis(a), a)
	<-reached

	ctx, cancel := context.WithCancel(context.Background())
	joinErr := make(chan error, 1)
	go func() {
		_, _, _, err := s.GetOrAnalyzeOutcome(ctx, analysis.NewCircuitStream(c.Clone()))
		joinErr <- err
	}()
	// The joiner's hit on the in-flight entry means it now waits on it.
	for s.Stats().Hits < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-joinErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", err)
	}
	select {
	case err := <-ownerErr:
		t.Fatalf("owner finished (%v) before its release", err)
	default:
	}
	close(release)
	if err := <-ownerErr; err != nil {
		t.Fatalf("owner err = %v", err)
	}
	if st := s.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %s, want the owner's analysis stored after 1 miss and the joiner's hit", st)
	}
}
