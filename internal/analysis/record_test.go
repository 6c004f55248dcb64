package analysis_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/iig"
	"repro/internal/ingest"
	"repro/internal/oracle"
	"repro/internal/qcbin"
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
// builders produce.
type oracleRef struct {
	c  *circuit.Circuit
	g  *oracle.Graph
	ig *iig.Graph
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
	return oracleRef{c: c, g: g, ig: ig}
}

// assertMatches compares an analysis bitwise against the reference: every
// node's type, every edge and the IIG.
func (ref oracleRef) assertMatches(t *testing.T, label string, got *analysis.Analysis) {
	t.Helper()
	c := ref.c
	if got.Qubits != c.NumQubits() || got.Operations != c.NumGates() || got.FT != c.IsFT() {
		t.Fatalf("%s: metadata (%d,%d,%v), want (%d,%d,%v)", label,
			got.Qubits, got.Operations, got.FT, c.NumQubits(), c.NumGates(), c.IsFT())
	}
	assertQODGEqual(t, label, got.QODG, ref.g)
	assertIIGEqual(t, label, got.IIG, ref.ig)
}

// TestRecordFillMatchesOracle is the parse-once equivalence check: on every
// source kind, the fill pass over the counting pass's records, fresh and in
// a recycled arena in turn, must reproduce the reference builders bitwise,
// on the paper suite, a netlist whose register grows mid-stream and seeded
// adversarial DAGs.
func TestRecordFillMatchesOracle(t *testing.T) {
	ar := analysis.NewArena()
	analyzers := []struct {
		label   string
		analyze func(analysis.GateStream) (*analysis.Analysis, error)
	}{
		{"fresh", analysis.AnalyzeStream},
		{"arena", ar.AnalyzeStream},
	}
	check := func(t *testing.T, c *circuit.Circuit, qc []byte) {
		t.Helper()
		ref := newOracleRef(t, c)
		for _, src := range recordSources(t, c, qc) {
			for _, an := range analyzers {
				label := c.Name + "/" + src.label + "/" + an.label
				got, err := analyzeSource(t, src, an.analyze)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref.assertMatches(t, label, got)
			}
		}
	}
	for _, name := range suite(t) {
		check(t, ftCircuit(t, name), nil)
	}
	grown := growingRegisterQC()
	c, err := circuit.ParseQC(bytes.NewReader(grown), "grown")
	if err != nil {
		t.Fatal(err)
	}
	check(t, c, grown)
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 6; round++ {
		check(t, randomDAGCircuit(rng, fmt.Sprintf("dag%d", round), 2+rng.Intn(12), 1+rng.Intn(400)), nil)
	}
}

// randomDAGCircuit generates a circuit stacked with the patterns the
// dependency scan must get exactly right: long same-pair CNOT runs
// (duplicate-edge merging), swaps, idle qubits, and bursts on one qubit.
func randomDAGCircuit(rng *rand.Rand, name string, numQ, nGates int) *circuit.Circuit {
	c := circuit.New(name, numQ)
	for len(c.Gates) < nGates {
		switch rng.Intn(5) {
		case 0:
			c.Append(circuit.NewOneQubit(circuit.H, rng.Intn(numQ)))
		case 1:
			a := rng.Intn(numQ)
			b := rng.Intn(numQ)
			for b == a {
				b = rng.Intn(numQ)
			}
			c.Append(circuit.NewSwap(a, b))
		case 2:
			// Same-pair CNOT run: consecutive gates whose dependency edges
			// merge.
			a := rng.Intn(numQ)
			b := rng.Intn(numQ)
			for b == a {
				b = rng.Intn(numQ)
			}
			for i, run := 0, 2+rng.Intn(4); i < run && len(c.Gates) < nGates; i++ {
				c.Append(circuit.NewCNOT(a, b))
			}
		case 3:
			// Single-qubit burst: one qubit written many times in a row.
			q := rng.Intn(numQ)
			for i, run := 0, 2+rng.Intn(4); i < run && len(c.Gates) < nGates; i++ {
				c.Append(circuit.NewOneQubit(circuit.T, q))
			}
		default:
			a := rng.Intn(numQ)
			b := rng.Intn(numQ)
			for b == a {
				b = rng.Intn(numQ)
			}
			c.Append(circuit.NewCNOT(a, b))
		}
	}
	return c
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
// fresh and in an arena.
func TestAnalyzeStreamReadsOnce(t *testing.T) {
	c := ftCircuit(t, "hwb15ps")
	for _, ar := range []*analysis.Arena{nil, analysis.NewArena()} {
		sc := ingest.NewScanner(pipeReader{bytes.NewReader(qcBytes(t, c))}, c.Name, ingest.Options{})
		src := &countingStream{GateStream: sc}
		a, err := analysis.AnalyzeStreamContext(context.Background(), src, ar, false)
		sc.Close()
		if err != nil {
			t.Fatalf("arena=%v: %v", ar != nil, err)
		}
		if src.rewinds != 0 || src.scans != a.Operations+1 {
			t.Fatalf("arena=%v: %d rewinds and %d scans for %d gates, want 0 and %d",
				ar != nil, src.rewinds, src.scans, a.Operations, a.Operations+1)
		}
	}
}
