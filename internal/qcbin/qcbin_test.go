package qcbin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
)

// testCircuits returns a representative mix: paper benchmarks (including
// multi-control gates pre-decomposition) plus hand-built edge cases.
func testCircuits(t testing.TB) []*circuit.Circuit {
	t.Helper()
	var out []*circuit.Circuit
	for _, name := range []string{"gf2^8mult", "ham15", "mod1024adder", "hwb8ps"} {
		c, err := benchgen.Generate(name)
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		out = append(out, c)
	}
	empty := circuit.New("empty", 3)
	out = append(out, empty)
	named, err := circuit.NewNamed("named", []string{"alice", "b0", "työ"})
	if err != nil {
		t.Fatal(err)
	}
	named.Gates = []circuit.Gate{
		{Type: circuit.H, Targets: []int{0}},
		{Type: circuit.CNOT, Controls: []int{0}, Targets: []int{1}},
		{Type: circuit.Swap, Targets: []int{1, 2}},
		{Type: circuit.Fredkin, Controls: []int{0}, Targets: []int{1, 2}},
	}
	out = append(out, named)
	return out
}

func encodeQCB(t testing.TB, c *circuit.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeCircuit(&buf, c); err != nil {
		t.Fatalf("EncodeCircuit(%s): %v", c.Name, err)
	}
	return buf.Bytes()
}

func scanAll(t testing.TB, s *Scanner) []circuit.Gate {
	t.Helper()
	var gates []circuit.Gate
	for s.Scan() {
		gates = append(gates, s.Gate().Clone())
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return gates
}

func TestRoundTrip(t *testing.T) {
	for _, c := range testCircuits(t) {
		t.Run(c.Name, func(t *testing.T) {
			data := encodeQCB(t, c)
			s, err := NewScanner(bytes.NewReader(data), "fallback")
			if err != nil {
				t.Fatalf("NewScanner: %v", err)
			}
			if s.Name() != c.Name {
				t.Errorf("name = %q, want %q", s.Name(), c.Name)
			}
			if s.NumQubits() != c.NumQubits() {
				t.Errorf("qubits = %d, want %d", s.NumQubits(), c.NumQubits())
			}
			if got, want := s.Register().QubitNames(), c.QubitNames(); len(got) == len(want) {
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("qubit %d name = %q, want %q", i, got[i], want[i])
					}
				}
			} else {
				t.Errorf("register has %d names, want %d", len(got), len(want))
			}
			gates := scanAll(t, s)
			if len(gates) != len(c.Gates) {
				t.Fatalf("decoded %d gates, want %d", len(gates), len(c.Gates))
			}
			for i, g := range gates {
				if !gatesEqual(g, c.Gates[i]) {
					t.Fatalf("gate %d = %v, want %v", i, g, c.Gates[i])
				}
			}
			// Second pass via Rewind must replay identically.
			if err := s.Rewind(); err != nil {
				t.Fatalf("Rewind: %v", err)
			}
			again := scanAll(t, s)
			if len(again) != len(gates) {
				t.Fatalf("rewind pass decoded %d gates, want %d", len(again), len(gates))
			}
			for i, g := range again {
				if !gatesEqual(g, gates[i]) {
					t.Fatalf("rewind pass gate %d = %v, want %v", i, g, gates[i])
				}
			}
		})
	}
}

func gatesEqual(a, b circuit.Gate) bool {
	if a.Type != b.Type || len(a.Controls) != len(b.Controls) || len(a.Targets) != len(b.Targets) {
		return false
	}
	for i := range a.Controls {
		if a.Controls[i] != b.Controls[i] {
			return false
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			return false
		}
	}
	return true
}

// TestEncodeFromStream exercises the two-pass GateStream encoder against
// the one-pass circuit encoder.
func TestEncodeFromStream(t *testing.T) {
	for _, c := range testCircuits(t) {
		var direct, streamed bytes.Buffer
		if err := EncodeCircuit(&direct, c); err != nil {
			t.Fatal(err)
		}
		if err := Encode(&streamed, analysis.NewCircuitStream(c)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), streamed.Bytes()) {
			t.Errorf("%s: stream and circuit encodings differ", c.Name)
		}
	}
}

// TestDigestContainerIndependent verifies the digest depends on netlist
// content, not the container or qubit display names.
func TestDigestContainerIndependent(t *testing.T) {
	c, err := benchgen.Generate("gf2^8mult")
	if err != nil {
		t.Fatal(err)
	}
	want, err := DigestCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScanner(bytes.NewReader(encodeQCB(t, c)), "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Digest(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("binary-container digest %s != circuit digest %s", got, want)
	}
	// Renaming qubits must not move the digest; renaming the circuit must.
	renamed := c.Clone()
	renamed.Name = "other"
	moved, err := DigestCircuit(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if moved == want {
		t.Error("digest ignores the circuit name")
	}
	if _, err := ParseRef(FormatRef(want)); err != nil {
		t.Errorf("ParseRef(FormatRef): %v", err)
	}
}

// TestDigestPinned pins the digest of one circuit whose records span
// several hash chunks. Digests name stored images and the refs clients
// hold, so every route that computes one must keep giving this value:
// DigestCircuit, Digest over a .qcb scanner, and DigestAnalysis of the
// scanner's analysis.
func TestDigestPinned(t *testing.T) {
	const want = "eda7e28c52067f24bf73d6e252a4384debde23a368809f3d8bc05b3c4f64e598"
	c, err := benchgen.GenerateFT("gf2^16mult")
	if err != nil {
		t.Fatal(err)
	}
	if d, err := DigestCircuit(c); err != nil || d != want {
		t.Errorf("DigestCircuit = %s, %v; want %s", d, err, want)
	}
	qcb := encodeQCB(t, c)
	s, err := NewScanner(bytes.NewReader(qcb), "")
	if err != nil {
		t.Fatal(err)
	}
	if d, err := Digest(s); err != nil || d != want {
		t.Errorf("Digest(scanner) = %s, %v; want %s", d, err, want)
	}
	s, err = NewScanner(bytes.NewReader(qcb), "")
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.AnalyzeStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if d := DigestAnalysis(a); d != want {
		t.Errorf("DigestAnalysis = %s; want %s", d, want)
	}
}

// TestDigestWideRecord digests a netlist with one record wider than the
// digester's buffer, among records that fill several hash chunks, and
// checks it against SHA-256 over the whole canonical byte string at once.
func TestDigestWideRecord(t *testing.T) {
	const n = 6000
	c := circuit.New("wide", n)
	for i := 0; i < 3000; i++ {
		c.Append(circuit.NewCNOT(i%n, (i+1)%n))
	}
	controls := make([]int, n-1)
	for i := range controls {
		controls[i] = i
	}
	c.Append(circuit.NewMCT(controls, n-1))
	for i := 0; i < 3000; i++ {
		c.Append(circuit.NewCNOT((i+1)%n, i%n))
	}
	all := []byte(digestDomain)
	for _, g := range c.Gates {
		all = appendGateRecord(all, g)
	}
	all = append(all, 0)
	all = binary.AppendUvarint(all, n)
	all = binary.AppendUvarint(all, uint64(len(c.Name)))
	all = append(all, c.Name...)
	sum := sha256.Sum256(all)
	want := hex.EncodeToString(sum[:])
	if got, err := DigestCircuit(c); err != nil || got != want {
		t.Fatalf("DigestCircuit = %s, %v; want %s", got, err, want)
	}
}

// TestDigestContextPolls checks the digest pass polls its context the way
// the counting pass does: a done context fails it before the first gate,
// and a cancellation mid-stream stops it within CtxCheckEvery gates.
func TestDigestContextPolls(t *testing.T) {
	c := circuit.New("long", 2)
	for i := 0; i < 3*analysis.CtxCheckEvery; i++ {
		c.Append(circuit.NewCNOT(i%2, 1-i%2))
	}
	for _, tc := range []struct{ cancelAt, maxScans int }{
		{0, 0}, // cancelled before the pass
		{100, 100 + analysis.CtxCheckEvery},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		if tc.cancelAt == 0 {
			cancel()
		}
		src := &cancelAfter{GateStream: analysis.NewCircuitStream(c), at: tc.cancelAt, cancel: cancel}
		if _, err := DigestContext(ctx, src); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at scan %d: err = %v, want context.Canceled", tc.cancelAt, err)
		}
		if src.scans > tc.maxScans {
			t.Fatalf("cancel at scan %d: %d scans, want at most %d", tc.cancelAt, src.scans, tc.maxScans)
		}
		cancel()
	}
}

// cancelAfter cancels its context on the stream's scan number at, and
// counts every scan.
type cancelAfter struct {
	analysis.GateStream
	at, scans int
	cancel    context.CancelFunc
}

func (s *cancelAfter) Scan() bool {
	if s.scans++; s.scans == s.at {
		s.cancel()
	}
	return s.GateStream.Scan()
}

func TestParseRef(t *testing.T) {
	valid := FormatRef(strings.Repeat("ab", 32))
	if d, err := ParseRef(valid); err != nil || d != strings.Repeat("ab", 32) {
		t.Errorf("ParseRef(%q) = %q, %v", valid, d, err)
	}
	for _, bad := range []string{
		"", "abc", "md5:" + strings.Repeat("ab", 32),
		DigestPrefix + "short", DigestPrefix + strings.Repeat("zz", 32),
	} {
		if _, err := ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) succeeded", bad)
		}
	}
}

func assertAnalysisEqual(t *testing.T, label string, want, got *analysis.Analysis) {
	t.Helper()
	if got.Name != want.Name || got.Qubits != want.Qubits ||
		got.Operations != want.Operations || got.FT != want.FT {
		t.Fatalf("%s: metadata %s/%d/%d/%v, want %s/%d/%d/%v", label,
			got.Name, got.Qubits, got.Operations, got.FT,
			want.Name, want.Qubits, want.Operations, want.FT)
	}
	if !slices.Equal(got.QODG.Nodes, want.QODG.Nodes) || got.QODG.NumQubits != want.QODG.NumQubits {
		t.Fatalf("%s: QODG records differ after round trip", label)
	}
	if !reflect.DeepEqual(got.IIG, want.IIG) {
		t.Fatalf("%s: IIG differs after round trip", label)
	}
}

// TestScannerDiagnostics feeds malformed .qcb bytes and checks for clean
// FormatErrors.
func TestScannerDiagnostics(t *testing.T) {
	c, err := benchgen.GenerateFT("mod1024adder")
	if err != nil {
		t.Fatal(err)
	}
	data := encodeQCB(t, c)

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(data); cut += 5 {
			s, err := NewScanner(bytes.NewReader(data[:cut]), "t")
			if err != nil {
				continue // header truncation: fine, already an error
			}
			for s.Scan() {
			}
			// Truncation inside a gate record must error; a cut exactly on a
			// record boundary is a legitimately shorter netlist.
			_ = s.Err()
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		if _, err := NewScanner(bytes.NewReader([]byte(".v 1 2 3\nBEGIN\n")), "t"); err == nil {
			t.Fatal("text netlist accepted as .qcb")
		}
	})
	t.Run("bad opcode", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[len(bad)-1] = 0x7F // stomp the final record's byte stream
		s, err := NewScanner(bytes.NewReader(bad), "t")
		if err != nil {
			t.Fatal(err)
		}
		for s.Scan() {
		}
		// Depending on where the stomp lands this is either an opcode or an
		// operand error; it must not be a clean EOF with the same gate count.
		if s.Err() == nil && s.GateIndex() == len(c.Gates)-1 {
			t.Error("corrupted tail decoded to the full gate list")
		}
	})
	t.Run("terminal error sticks", func(t *testing.T) {
		bad := []byte{MagicQCB[0], MagicQCB[1], MagicQCB[2], MagicQCB[3], Version,
			0,      // empty name
			2,      // 2 qubits
			1, 'a', // qubit 0
			1, 'b', // qubit 1
			byte(circuit.CNOT), 0, 5, // operand out of range
		}
		s, err := NewScanner(bytes.NewReader(bad), "t")
		if err != nil {
			t.Fatal(err)
		}
		if s.Scan() {
			t.Fatal("out-of-range operand scanned")
		}
		if s.Err() == nil {
			t.Fatal("no error for out-of-range operand")
		}
		if err := s.Rewind(); err == nil {
			t.Fatal("Rewind cleared a terminal decode error")
		}
	})
}

// TestAnalyzeViaScanner runs the full analysis pipeline over a binary
// scanner and checks it matches the circuit-stream analysis.
func TestAnalyzeViaScanner(t *testing.T) {
	c, err := benchgen.GenerateFT("gf2^8mult")
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScanner(bytes.NewReader(encodeQCB(t, c)), "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := analysis.AnalyzeStream(s)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysisEqual(t, c.Name, want, got)
}

// FuzzQCBin throws arbitrary bytes at the binary netlist decoder; decodable
// inputs must re-encode and re-decode to the identical gate stream, and
// nothing may panic. A clean decode of one- and two-qubit gates also takes
// the analysis store's routes: DigestAnalysis of its analysis must be the
// digest Digest gives the decode, and the analysis, written by
// EncodeAnalysis and rebuilt by AnalyzeStream and DigestAnalysis as a disk
// hit is, must have identical node records, IIG, metadata and digest.
func FuzzQCBin(f *testing.F) {
	for _, name := range []string{"mod1024adder", "ham15"} {
		c, err := benchgen.Generate(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeCircuit(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte{MagicQCB[0], 'Q', 'C', 'B', Version, 0, 1, 0, byte(circuit.X), 0})
	f.Add([]byte(".v 1 2\nBEGIN\nH 1\nEND\n"))
	// Analyzable seeds: an FT benchmark, and a small non-FT circuit whose
	// SWAP is a two-qubit node.
	ft, err := benchgen.GenerateFT("ham7")
	if err != nil {
		f.Fatal(err)
	}
	small := circuit.New("", 4)
	small.Append(circuit.NewOneQubit(circuit.H, 0), circuit.NewCNOT(0, 1), circuit.NewSwap(1, 2),
		circuit.NewOneQubit(circuit.X, 3), circuit.NewCNOT(2, 3))
	for _, c := range []*circuit.Circuit{ft, small} {
		var buf bytes.Buffer
		if err := EncodeCircuit(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewScanner(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		var gates []circuit.Gate
		for s.Scan() {
			g := s.Gate()
			if err := g.Validate(s.NumQubits()); err != nil {
				t.Fatalf("scanner yielded invalid gate: %v", err)
			}
			gates = append(gates, g.Clone())
		}
		if s.Err() != nil {
			return
		}
		// Clean decode: round-trip through the encoder must reproduce the
		// same gates bit-for-bit at the gate level.
		m := s.Register().Clone()
		m.Gates = gates
		var buf bytes.Buffer
		if err := EncodeCircuit(&buf, m); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		s2, err := NewScanner(bytes.NewReader(buf.Bytes()), "fuzz2")
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		i := 0
		for s2.Scan() {
			if i >= len(gates) || !gatesEqual(s2.Gate(), gates[i]) {
				t.Fatalf("re-decoded gate %d differs", i)
			}
			i++
		}
		if s2.Err() != nil || i != len(gates) {
			t.Fatalf("re-decode: %d gates, err %v; want %d gates", i, s2.Err(), len(gates))
		}

		for _, g := range gates {
			if g.Arity() > 2 {
				return
			}
		}
		if err := s.Rewind(); err != nil {
			t.Fatalf("rewind: %v", err)
		}
		want, err := analysis.AnalyzeStream(s)
		if err != nil {
			t.Fatalf("analysis of a clean decode: %v", err)
		}
		var img bytes.Buffer
		if err := EncodeAnalysis(&img, want); err != nil {
			t.Fatalf("EncodeAnalysis: %v", err)
		}
		si, err := NewScanner(bytes.NewReader(img.Bytes()), "")
		if err != nil {
			t.Fatalf("image: %v", err)
		}
		got, err := analysis.AnalyzeStream(si)
		if err != nil {
			t.Fatalf("image analysis: %v", err)
		}
		assertAnalysisEqual(t, "image", want, got)
		wd, err := Digest(s)
		if err != nil {
			t.Fatal(err)
		}
		if d := DigestAnalysis(want); d != wd {
			t.Fatalf("analysis digest %s, want %s", d, wd)
		}
		if d := DigestAnalysis(got); d != wd {
			t.Fatalf("image digest %s, want %s", d, wd)
		}
	})
}
