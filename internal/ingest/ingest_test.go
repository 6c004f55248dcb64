package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/qodg"
)

const sampleQC = `# streaming sample
.v a b c d
.i a b c
.o d
BEGIN
t1 a
t2 a b
t3 a b c
f3 a b c
swap a b
H a
T* c
CNOT a b
t2 b zz   # auto-declared ancilla
END
`

// pipe hides the Seeker of an in-memory reader, forcing the spool path.
type pipe struct{ io.Reader }

// collect drains the scanner's current pass into cloned gates.
func collect(t *testing.T, s Stream) []circuit.Gate {
	t.Helper()
	var gates []circuit.Gate
	for s.Scan() {
		gates = append(gates, s.Gate().Clone())
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return gates
}

// assertGatesEqual compares two gate sequences operand for operand.
func assertGatesEqual(t *testing.T, label string, got, want []circuit.Gate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d gates, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Type != w.Type || !intsEqual(g.Controls, w.Controls) || !intsEqual(g.Targets, w.Targets) {
			t.Fatalf("%s: gate %d = %+v, want %+v", label, i, g, w)
		}
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScannerMatchesParseQC proves the streamed parse emits exactly the
// gates ParseQC materializes — across the seekable path, the spooled pipe
// path, and pathological chunk sizes that split lines mid-token.
func TestScannerMatchesParseQC(t *testing.T) {
	want, err := circuit.ParseQC(strings.NewReader(sampleQC), "sample")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Scanner{
		"seekable": NewScanner(strings.NewReader(sampleQC), "sample", Options{}),
		"pipe":     NewScanner(pipe{strings.NewReader(sampleQC)}, "sample", Options{}),
		"chunk-1":  NewScanner(strings.NewReader(sampleQC), "sample", Options{ChunkBytes: 1}),
		"chunk-7":  NewScanner(pipe{strings.NewReader(sampleQC)}, "sample", Options{ChunkBytes: 7}),
		"no-final-newline": NewScanner(
			strings.NewReader(strings.TrimRight(sampleQC, "\n")), "sample", Options{}),
	}
	for label, s := range cases {
		got := collect(t, s)
		assertGatesEqual(t, label, got, want.Gates)
		if s.NumQubits() != want.NumQubits() {
			t.Errorf("%s: NumQubits = %d, want %d", label, s.NumQubits(), want.NumQubits())
		}
		s.Close()
	}
}

// TestScannerRewind runs three passes over both rewind mechanisms and
// checks each replays the identical gate stream.
func TestScannerRewind(t *testing.T) {
	want, err := circuit.ParseQC(strings.NewReader(sampleQC), "sample")
	if err != nil {
		t.Fatal(err)
	}
	for label, s := range map[string]*Scanner{
		"seek":  NewScanner(strings.NewReader(sampleQC), "sample", Options{}),
		"spool": NewScanner(pipe{strings.NewReader(sampleQC)}, "sample", Options{ChunkBytes: 16}),
	} {
		for pass := 0; pass < 3; pass++ {
			got := collect(t, s)
			assertGatesEqual(t, label, got, want.Gates)
			if err := s.Rewind(); err != nil {
				t.Fatalf("%s pass %d: %v", label, pass, err)
			}
		}
		if label == "spool" && s.SpooledBytes() != int64(len(sampleQC)) {
			t.Errorf("spooled %d bytes, want %d", s.SpooledBytes(), len(sampleQC))
		}
		if s.BytesRead() != int64(len(sampleQC)) {
			t.Errorf("%s: BytesRead = %d, want %d", label, s.BytesRead(), len(sampleQC))
		}
		s.Close()
	}
}

// TestScannerRewindBeforeEOF rewinds a spooled source mid-stream: the
// unread remainder must be drained to the spool so the replay is complete.
func TestScannerRewindBeforeEOF(t *testing.T) {
	s := NewScanner(pipe{strings.NewReader(sampleQC)}, "sample", Options{ChunkBytes: 8})
	defer s.Close()
	if !s.Scan() {
		t.Fatal(s.Err())
	}
	if err := s.Rewind(); err != nil {
		t.Fatal(err)
	}
	want, err := circuit.ParseQC(strings.NewReader(sampleQC), "sample")
	if err != nil {
		t.Fatal(err)
	}
	assertGatesEqual(t, "replay", collect(t, s), want.Gates)
}

// TestScannerSpoolLimit proves the disk-spool cap fails the scan with
// ErrSpoolLimit, and that seekable sources are exempt.
func TestScannerSpoolLimit(t *testing.T) {
	s := NewScanner(pipe{strings.NewReader(sampleQC)}, "sample", Options{MaxSpoolBytes: 16})
	defer s.Close()
	for s.Scan() {
	}
	if err := s.Err(); !errors.Is(err, ErrSpoolLimit) {
		t.Fatalf("err = %v, want ErrSpoolLimit", err)
	}
	seek := NewScanner(strings.NewReader(sampleQC), "sample", Options{MaxSpoolBytes: 16})
	defer seek.Close()
	for seek.Scan() {
	}
	if err := seek.Err(); err != nil {
		t.Fatalf("seekable source hit spool cap: %v", err)
	}
}

// TestScannerLineCap bounds the memory one absurd line can pin — and the
// verdict must not depend on whether the line straddles a chunk boundary
// or sits wholly inside one chunk (the zero-copy path).
func TestScannerLineCap(t *testing.T) {
	long := ".v " + strings.Repeat("q ", 600) + "\nBEGIN\nEND\n"
	for label, chunk := range map[string]int{"spanning-chunks": 64, "inside-one-chunk": 1 << 16} {
		s := NewScanner(strings.NewReader(long), "long", Options{MaxLineBytes: 256, ChunkBytes: chunk})
		for s.Scan() {
		}
		if s.Err() == nil {
			t.Errorf("%s: want line-cap error", label)
		}
		s.Close()
	}
}

// TestScannerSyntaxErrors checks streamed diagnostics carry the shared
// line/column context and match ParseQC's exactly.
func TestScannerSyntaxErrors(t *testing.T) {
	cases := []string{
		".v a\nBEGIN\nbogus a\nEND\n",
		".v a b\nBEGIN\nt3 a b\nEND\n",
		".v a b\nBEGIN\nt2 a a\nEND\n",
		".v a b\nt2 a b\n",
	}
	for _, src := range cases {
		_, perr := circuit.ParseQC(strings.NewReader(src), "bad")
		if perr == nil {
			t.Fatalf("ParseQC accepted %q", src)
		}
		s := NewScanner(strings.NewReader(src), "bad", Options{})
		for s.Scan() {
		}
		serr := s.Err()
		if serr == nil || serr.Error() != perr.Error() {
			t.Errorf("stream error %v, want %v", serr, perr)
		}
		var syn *circuit.SyntaxError
		if !errors.As(serr, &syn) || syn.Line == 0 {
			t.Errorf("error %v is not a positioned SyntaxError", serr)
		}
		s.Close()
	}
}

// TestOpenNamesLikeLoadQCFile keeps the CLI's circuit naming stable.
func TestOpenNamesLikeLoadQCFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mycirc.qc")
	if err := os.WriteFile(path, []byte(sampleQC), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Name() != "mycirc" {
		t.Errorf("Name = %q, want mycirc", s.Name())
	}
	want, err := circuit.LoadQCFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGatesEqual(t, "open", collect(t, s), want.Gates)
}

// TestMaterialize checks the escape hatch reproduces ParseQC's circuit and
// leaves the scanner usable.
func TestMaterialize(t *testing.T) {
	want, err := circuit.ParseQC(strings.NewReader(sampleQC), "sample")
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(pipe{strings.NewReader(sampleQC)}, "sample", Options{ChunkBytes: 32})
	defer s.Close()
	// Consume part of the stream first: Materialize must rewind cleanly.
	s.Scan()
	s.Scan()
	c, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	assertGatesEqual(t, "materialize", c.Gates, want.Gates)
	if c.NumQubits() != want.NumQubits() || c.Name != want.Name {
		t.Errorf("materialized %q/%d qubits, want %q/%d", c.Name, c.NumQubits(), want.Name, want.NumQubits())
	}
	for i := 0; i < want.NumQubits(); i++ {
		if c.QubitName(i) != want.QubitName(i) {
			t.Errorf("qubit %d named %q, want %q", i, c.QubitName(i), want.QubitName(i))
		}
	}
	// The scanner still streams after materializing.
	if err := s.Rewind(); err != nil {
		t.Fatal(err)
	}
	assertGatesEqual(t, "post-materialize", collect(t, s), want.Gates)
}

// FuzzScanner is the satellite fuzz target: for arbitrary bytes, the
// streamed parse must agree with circuit.ParseQC — same accept/reject
// decision, same diagnostics, and gate-for-gate identical output, on both
// the seekable and the spooled path.
func FuzzScanner(f *testing.F) {
	f.Add([]byte(sampleQC))
	f.Add([]byte(".v a b\nBEGIN\nt2 a b\nEND\n"))
	f.Add([]byte(".v a\nBEGIN\nbogus a\nEND\n"))
	f.Add([]byte("BEGIN\nt2 x y\nt5 a b c d e\nf4 a b c d\nEND"))
	f.Add([]byte("# only comments\n\n\n"))
	f.Add([]byte(".v a b\nBEGIN\nswap a b\r\nH a\rH b\nEND\n"))
	f.Add([]byte("t1 a\n"))
	f.Add([]byte(".v a\nBEGIN\nt0\nT* a\nS* a\ntdg a\nEND\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := circuit.ParseQC(bytes.NewReader(data), "fuzz")
		for label, s := range map[string]*Scanner{
			"seek":  NewScanner(bytes.NewReader(data), "fuzz", Options{ChunkBytes: 31}),
			"spool": NewScanner(pipe{bytes.NewReader(data)}, "fuzz", Options{ChunkBytes: 31}),
		} {
			var gates []circuit.Gate
			for s.Scan() {
				gates = append(gates, s.Gate().Clone())
			}
			serr := s.Err()
			if (werr == nil) != (serr == nil) {
				t.Fatalf("%s: accept/reject mismatch: ParseQC err=%v, Scanner err=%v", label, werr, serr)
			}
			if werr != nil {
				if serr.Error() != werr.Error() {
					t.Fatalf("%s: diagnostics diverge:\nParseQC: %v\nScanner: %v", label, werr, serr)
				}
				s.Close()
				continue
			}
			if len(gates) != len(want.Gates) {
				t.Fatalf("%s: %d gates, want %d", label, len(gates), len(want.Gates))
			}
			for i := range gates {
				g, w := gates[i], want.Gates[i]
				if g.Type != w.Type || !intsEqual(g.Controls, w.Controls) || !intsEqual(g.Targets, w.Targets) {
					t.Fatalf("%s: gate %d = %+v, want %+v", label, i, g, w)
				}
			}
			if s.NumQubits() != want.NumQubits() {
				t.Fatalf("%s: NumQubits = %d, want %d", label, s.NumQubits(), want.NumQubits())
			}
			s.Close()
		}
	})
}

// bigQC synthesizes a netlist long enough to shard, with comments, blank
// lines and auto-declared ancillas sprinkled in.
func bigQC(nGates int) string {
	var b strings.Builder
	b.WriteString("# synthetic sharding netlist\n.v q0 q1 q2 q3 q4 q5 q6 q7\nBEGIN\n")
	for i := 0; i < nGates; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, "H q%d\n", i%8)
		case 1:
			fmt.Fprintf(&b, "CNOT q%d q%d\n", i%8, (i+3)%8)
		case 2:
			fmt.Fprintf(&b, "T q%d\n", (i+5)%8)
		case 3:
			// Same-pair run material plus an occasional comment line.
			fmt.Fprintf(&b, "CNOT q%d q%d\n", i%4, i%4+4)
			if i%97 == 3 {
				b.WriteString("  # mid-body comment\n\n")
			}
		default:
			fmt.Fprintf(&b, "CNOT anc%d q%d\n", i%3, i%8)
		}
	}
	b.WriteString("END\n")
	return b.String()
}

// TestAnalyzeStreamShardedOverScanner checks a scanner-fed analysis end to
// end: the fill pass sharded over the scanner's gate records must produce
// graphs identical to the serial fill of the same netlist.
func TestAnalyzeStreamShardedOverScanner(t *testing.T) {
	text := bigQC(20000)
	s := NewScanner(strings.NewReader(text), "big", Options{})
	want, err := analysis.AnalyzeStream(s)
	if err != nil {
		t.Fatal(err)
	}

	origThreshold := analysis.ShardThreshold
	defer func() { analysis.ShardThreshold = origThreshold }()
	analysis.ShardThreshold = 1
	ar := analysis.NewArena()
	ar.MaxShards = 4
	if err := s.Rewind(); err != nil {
		t.Fatal(err)
	}
	got, err := ar.AnalyzeStream(s)
	if err != nil {
		t.Fatal(err)
	}

	if got.Qubits != want.Qubits || got.Operations != want.Operations || got.FT != want.FT {
		t.Fatalf("metadata (%d,%d,%v), want (%d,%d,%v)",
			got.Qubits, got.Operations, got.FT, want.Qubits, want.Operations, want.FT)
	}
	if got.QODG.NumNodes() != want.QODG.NumNodes() || got.QODG.NumEdges() != want.QODG.NumEdges() {
		t.Fatalf("QODG shape %d/%d, want %d/%d",
			got.QODG.NumNodes(), got.QODG.NumEdges(), want.QODG.NumNodes(), want.QODG.NumEdges())
	}
	for u := 0; u < want.QODG.NumNodes(); u++ {
		id := qodg.NodeID(u)
		if !nodeIDsEqual(got.QODG.Succ(id), want.QODG.Succ(id)) ||
			!nodeIDsEqual(got.QODG.Pred(id), want.QODG.Pred(id)) {
			t.Fatalf("node %d adjacency differs: succ %v/%v pred %v/%v", u,
				got.QODG.Succ(id), want.QODG.Succ(id), got.QODG.Pred(id), want.QODG.Pred(id))
		}
	}
	ge, we := got.IIG.Edges(), want.IIG.Edges()
	if len(ge) != len(we) {
		t.Fatalf("IIG %d edges, want %d", len(ge), len(we))
	}
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("IIG edge %d = %+v, want %+v", i, ge[i], we[i])
		}
	}
}

func nodeIDsEqual(a, b []qodg.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
