package analysis_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/iig"
	"repro/internal/ingest"
	"repro/internal/oracle"
	"repro/internal/qcbin"
	"repro/internal/qodg"
)

// recordSource opens one container of a circuit as a fresh gate stream.
type recordSource struct {
	label string
	open  func() (analysis.GateStream, error)
}

// recordSources renders c into every container the counting pass records
// gates from: a non-seekable .qc body (spooled, as leqad reads uploads), a
// .qc file, a .qcb body, a gzipped .qc body and the in-memory circuit. The
// text containers hold qc, or c rendered by WriteQC when qc is nil.
func recordSources(t *testing.T, c *circuit.Circuit, qc []byte) []recordSource {
	t.Helper()
	if qc == nil {
		qc = qcBytes(t, c)
	}
	var qcb, gz bytes.Buffer
	if err := qcbin.EncodeCircuit(&qcb, c); err != nil {
		t.Fatal(err)
	}
	zw, _ := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	if _, err := zw.Write(qc); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "circuit.qc")
	if err := os.WriteFile(path, qc, 0o644); err != nil {
		t.Fatal(err)
	}
	body := func(data []byte, pipe bool) func() (analysis.GateStream, error) {
		return func() (analysis.GateStream, error) {
			var r io.Reader = bytes.NewReader(data)
			if pipe {
				r = pipeReader{r}
			}
			return ingest.NewAutoStream(r, c.Name, ingest.Options{})
		}
	}
	return []recordSource{
		{"pipe-text", body(qc, true)},
		{"file-text", func() (analysis.GateStream, error) { return ingest.Open(path, ingest.Options{}) }},
		{"qcb", body(qcb.Bytes(), false)},
		{"gzip", body(gz.Bytes(), true)},
		{"in-memory", func() (analysis.GateStream, error) { return analysis.NewCircuitStream(c), nil }},
	}
}

// analyzeSource opens src and analyzes it with analyze, closing the stream
// afterwards.
func analyzeSource(t *testing.T, src recordSource, analyze func(analysis.GateStream) (*analysis.Analysis, error)) (*analysis.Analysis, error) {
	t.Helper()
	st, err := src.open()
	if err != nil {
		t.Fatalf("%s: %v", src.label, err)
	}
	if cl, ok := st.(io.Closer); ok {
		defer cl.Close()
	}
	return analyze(st)
}

// oracleRef is a circuit's reference analysis: the graphs the reference
// builders produce and the final last-writer state.
type oracleRef struct {
	c    *circuit.Circuit
	g    *qodg.Graph
	ig   *iig.Graph
	last []qodg.NodeID
}

func newOracleRef(t *testing.T, c *circuit.Circuit) oracleRef {
	t.Helper()
	g, err := oracle.QODG(c)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := oracle.IIG(c)
	if err != nil {
		t.Fatal(err)
	}
	return oracleRef{c: c, g: g, ig: ig, last: oracle.LastWriter(c)}
}

// assertMatches compares an analysis bitwise against the reference: every
// node, every CSR row, the IIG and the final last-writer state.
func (ref oracleRef) assertMatches(t *testing.T, label string, got *analysis.Analysis) {
	t.Helper()
	c := ref.c
	if got.Qubits != c.NumQubits() || got.Operations != c.NumGates() || got.FT != c.IsFT() {
		t.Fatalf("%s: metadata (%d,%d,%v), want (%d,%d,%v)", label,
			got.Qubits, got.Operations, got.FT, c.NumQubits(), c.NumGates(), c.IsFT())
	}
	assertQODGEqual(t, label, got.QODG, ref.g)
	assertIIGEqual(t, label, got.IIG, ref.ig)
	if !slices.Equal(got.LastWriterState(), ref.last) {
		t.Fatalf("%s: last-writer state %v, want %v", label, got.LastWriterState(), ref.last)
	}
}

// recordShardCounts is the fill pass's forced shard sweep over the record
// slab: serial (1), even splits, and an odd count past most hosts' cores.
// Paper rows of 100k operations and more run the serial and the 4-shard
// fill only: their size adds no path the smaller rows miss (every source
// crosses read-chunk boundaries and doubles the record slab well below it,
// and a forced count shards any size), and the full sweep over the four
// largest rows would triple the suite's run time.
var (
	recordShardCounts = []int{1, 2, 3, 4, 7}
	largeShardCounts  = []int{1, 4}
)

// TestRecordFillMatchesOracle is the parse-once equivalence check: on every
// source kind, the fill pass over the counting pass's records — serial and
// sharded at each forced count, fresh and in a recycled arena — must
// reproduce the reference builders bitwise, on the paper suite and seeded
// random circuits, and random circuits add adversarial cut tables (empty
// shards, suffix-only shards).
func TestRecordFillMatchesOracle(t *testing.T) {
	ar := analysis.NewArena()
	check := func(t *testing.T, c *circuit.Circuit, qc []byte, cutTables [][]int) {
		t.Helper()
		ref := newOracleRef(t, c)
		ks := recordShardCounts
		if c.NumGates() >= 100000 {
			ks = largeShardCounts
		}
		for _, src := range recordSources(t, c, qc) {
			for i, k := range ks {
				label := fmt.Sprintf("%s/%s/k=%d", c.Name, src.label, k)
				var arena *analysis.Arena
				if i%2 == 1 {
					arena = ar
				}
				got, err := analyzeSource(t, src, func(st analysis.GateStream) (*analysis.Analysis, error) {
					return analysis.AnalyzeStreamSharded(st, arena, k)
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref.assertMatches(t, label, got)
			}
			for _, cuts := range cutTables {
				label := fmt.Sprintf("%s/%s/cuts=%v", c.Name, src.label, cuts)
				got, err := analyzeSource(t, src, func(st analysis.GateStream) (*analysis.Analysis, error) {
					return analysis.AnalyzeAtCuts(st, ar, cuts)
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref.assertMatches(t, label, got)
			}
		}
	}
	for _, name := range suite(t) {
		check(t, ftCircuit(t, name), nil, nil)
	}
	grown := growingRegisterQC()
	c, err := circuit.ParseQC(bytes.NewReader(grown), "grown")
	if err != nil {
		t.Fatal(err)
	}
	check(t, c, grown, [][]int{{0, c.NumGates() / 2, c.NumGates()}})
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 6; round++ {
		c := randomShardCircuit(rng, fmt.Sprintf("dag%d", round), 2+rng.Intn(12), 1+rng.Intn(400))
		n := c.NumGates()
		check(t, c, nil, [][]int{
			{0, 0, n},            // empty leading shard
			{0, n, n},            // empty trailing shard
			{0, 0, 0, n},         // two empty leading shards
			{0, n / 2, n / 2, n}, // empty middle shard
			{0, n - n/8, n},      // suffix-only second shard
			{0, n - 1, n},        // one-gate suffix shard
		})
	}
}

// growingRegisterQC is a netlist whose register grows while its gates
// stream: qubit c is auto-declared on its first gate line, and a .v line
// after BEGIN declares d and e. The counting pass must pick each new qubit
// up when a gate first reaches it.
func growingRegisterQC() []byte {
	var b bytes.Buffer
	b.WriteString(".v a b\nBEGIN\n")
	for i := 0; i < 300; i++ {
		b.WriteString("H a\nCNOT a b\n")
		switch i {
		case 100:
			b.WriteString("CNOT b c\nT c\n")
		case 200:
			b.WriteString(".v d e\nCNOT e a\nT* d\nCNOT c d\n")
		}
	}
	b.WriteString("CNOT d b\nEND\n")
	return b.Bytes()
}

// countingStream counts the calls an analysis makes on its stream.
type countingStream struct {
	analysis.GateStream
	scans, rewinds int
}

func (s *countingStream) Scan() bool {
	s.scans++
	return s.GateStream.Scan()
}

func (s *countingStream) Rewind() error {
	s.rewinds++
	return s.GateStream.Rewind()
}

// TestAnalyzeStreamReadsOnce proves the analysis reads its stream once:
// no Rewind, and one Scan per gate plus the call that reports the end —
// serially and with a sharded fill.
func TestAnalyzeStreamReadsOnce(t *testing.T) {
	c := ftCircuit(t, "hwb15ps")
	for _, k := range []int{0, 1, 4} {
		sc := ingest.NewScanner(pipeReader{bytes.NewReader(qcBytes(t, c))}, c.Name, ingest.Options{})
		src := &countingStream{GateStream: sc}
		a, err := analysis.AnalyzeStreamSharded(src, nil, k)
		sc.Close()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if src.rewinds != 0 || src.scans != a.Operations+1 {
			t.Fatalf("k=%d: %d rewinds and %d scans for %d gates, want 0 and %d",
				k, src.rewinds, src.scans, a.Operations, a.Operations+1)
		}
	}
}
