package qcbin

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/qodg"
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
			if again := scanAll(t, s); len(again) != len(gates) {
				t.Fatalf("rewind pass decoded %d gates, want %d", len(again), len(gates))
			}
			// Materialize must equal the source circuit.
			m, err := s.Materialize()
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if m.Name != c.Name || m.NumQubits() != c.NumQubits() || len(m.Gates) != len(c.Gates) {
				t.Fatalf("Materialize = %s/%d/%d, want %s/%d/%d",
					m.Name, m.NumQubits(), len(m.Gates), c.Name, c.NumQubits(), len(c.Gates))
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

// TestImageRoundTrip checks the .qca image reproduces the analysis bitwise
// at the estimate level: same metadata, same graph shapes, same estimates.
func TestImageRoundTrip(t *testing.T) {
	for _, c := range testCircuits(t) {
		a, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c))
		if err != nil {
			// Wide multi-control benchmarks are rejected by analysis;
			// image round-trips only apply to analyzable circuits.
			continue
		}
		var buf bytes.Buffer
		if err := EncodeImage(&buf, a); err != nil {
			t.Fatalf("%s: EncodeImage: %v", c.Name, err)
		}
		for _, gz := range []bool{false, true} {
			data := buf.Bytes()
			if gz {
				var zbuf bytes.Buffer
				zw := gzip.NewWriter(&zbuf)
				zw.Write(data)
				zw.Close()
				data = zbuf.Bytes()
			}
			got, err := DecodeImage(data, "fallback")
			if err != nil {
				t.Fatalf("%s (gzip=%v): DecodeImage: %v", c.Name, gz, err)
			}
			assertAnalysisEqual(t, c.Name, a, got)
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
	woff, wnbr, wwt := want.IIG.Rows()
	goff, gnbr, gwt := got.IIG.Rows()
	if !slices.Equal(woff, goff) || !slices.Equal(wnbr, gnbr) || !slices.Equal(wwt, gwt) {
		t.Fatalf("%s: IIG CSR differs after round trip", label)
	}
}

// TestImageCorruption flips, truncates and garbles images; every mutation
// must come back as a FormatError (or an iig validation error), never a
// panic or a silently wrong Analysis. A gate record can only name qubits,
// so no image can hold a forward edge or a cycle, but each record must
// still name in-range, distinct operands of a one- or two-qubit gate: the
// hand-corrupted records of corruptImages fail with a FormatError that
// says which.
func TestImageCorruption(t *testing.T) {
	c, err := benchgen.GenerateFT("mod1024adder")
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeImage(&buf, a); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if _, err := DecodeImage(img, "x"); err != nil {
		t.Fatalf("pristine image failed: %v", err)
	}
	for cut := 0; cut < len(img); cut += 7 {
		if _, err := DecodeImage(img[:cut], "x"); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	if _, err := DecodeImage(append(bytes.Clone(img), 0xFF), "x"); err == nil {
		t.Error("trailing garbage decoded successfully")
	}
	var fe *FormatError
	if _, err := DecodeImage([]byte("not an image at all"), "x"); !errors.As(err, &fe) {
		t.Errorf("junk input: got %v, want FormatError", err)
	}
	for _, ci := range corruptImages(t) {
		if _, err := DecodeImage(ci.img, "x"); !errors.As(err, &fe) || !strings.Contains(err.Error(), ci.want) {
			t.Errorf("%s: err %v, want a FormatError naming %q", ci.name, err, ci.want)
		}
	}
}

// TestImageVersion1Rejected: a version-1 .qca image carried a per-qubit
// last-writer section, and a version-2 image node types and both QODG CSRs
// where version 3 holds gate records. Each must fail the version check,
// never be misread as a version-3 image. The decoder stops at the version
// byte, so an image with that byte rewritten stands in for one. The .qcb
// netlist layout kept version 1 and still decodes.
func TestImageVersion1Rejected(t *testing.T) {
	c, err := benchgen.GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeImage(&buf, a); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if img[4] != ImageVersion || ImageVersion != 3 {
		t.Fatalf("image version byte %d, ImageVersion %d; want 3", img[4], ImageVersion)
	}
	for _, v := range []byte{1, 2} {
		img[4] = v
		var fe *FormatError
		want := fmt.Sprintf("unsupported version %d (want 3)", v)
		if _, err := DecodeImage(img, "old"); !errors.As(err, &fe) || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d image: err %v, want a FormatError naming %s", v, err, want)
		}
	}

	qcb := encodeQCB(t, c)
	if qcb[4] != 1 || Version != 1 {
		t.Fatalf(".qcb version byte %d, Version %d; want 1", qcb[4], Version)
	}
	sc, err := NewScanner(bytes.NewReader(qcb), "v1")
	if err != nil {
		t.Fatalf("v1 .qcb: %v", err)
	}
	if gates := scanAll(t, sc); len(gates) != len(c.Gates) {
		t.Fatalf("v1 .qcb decoded %d gates, want %d", len(gates), len(c.Gates))
	}
}

// corruptImage is a hand-corrupted version-3 image and the FormatError text
// its decode must fail with.
type corruptImage struct {
	name string
	img  []byte
	want string
}

// corruptImages rewrites gate records of a small image, whose records are
// H 0 then CNOT 0 1 on a 4-qubit register: an operand past the register, a
// CNOT whose operands are equal, a Toffoli opcode, which takes three
// operands (under a cleared FT flag, so the shape check is what fails),
// and an unknown opcode.
func corruptImages(t testing.TB) []corruptImage {
	c := circuit.New("seed", 4)
	c.Append(circuit.NewOneQubit(circuit.H, 0), circuit.NewCNOT(0, 1), circuit.NewOneQubit(circuit.X, 3))
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeImage(&buf, a); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Magic, version, the name "seed", Q = 4, G = 3 and the FT byte, then
	// the records: H at hdr, its operand at hdr+1, CNOT at hdr+2 with its
	// operands at hdr+3 and hdr+4.
	hdr := len(MagicQCA) + 1 + 1 + len("seed") + 1 + 1 + 1
	if !bytes.Equal(img[hdr:hdr+5], []byte{byte(circuit.H), 0, byte(circuit.CNOT), 0, 1}) || img[hdr-1] != 1 {
		t.Fatalf("unexpected image layout at offset %d: % x", hdr-1, img[hdr-1:hdr+5])
	}
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(img)
		f(b)
		return b
	}
	return []corruptImage{
		{"operand past the register", edit(func(b []byte) { b[hdr+1] = 4 }), "operand qubit 4 out of range [0,4)"},
		{"CNOT with equal operands", edit(func(b []byte) { b[hdr+4] = 0 }), "operands are both qubit 0"},
		{"Toffoli opcode", edit(func(b []byte) { b[hdr-1], b[hdr+2] = 0, byte(circuit.Toffoli) }), "takes more than two operands"},
		{"unknown opcode", edit(func(b []byte) { b[hdr] = 0xEE }), "unknown opcode 0xee"},
	}
}

// TestImageRejectsNonFTNodeUnderFTFlag: the estimator weighs an FT
// analysis's nodes from an FT-only delay table, so an image whose FT flag
// covers a non-FT node must fail to decode — it once decoded cleanly, and
// its estimate weighed the node 0.
func TestImageRejectsNonFTNodeUnderFTFlag(t *testing.T) {
	c, err := benchgen.GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	if !a.FT {
		t.Fatal("ham7 FT netlist analyzed as non-FT")
	}
	var buf bytes.Buffer
	if err := EncodeImage(&buf, a); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// The gate records follow magic, version, the length-prefixed name, the
	// qubit and operation uvarints and the FT byte; the first record, a
	// CNOT, opens with its opcode.
	uvarint := func(v int) int { return len(binary.AppendUvarint(nil, uint64(v))) }
	hdr := len(MagicQCA) + 1 + uvarint(len(a.Name)) + len(a.Name) +
		uvarint(a.Qubits) + uvarint(a.Operations) + 1
	if img[hdr-1] != 1 || !circuit.GateType(img[hdr]).IsFT() {
		t.Fatalf("unexpected image layout at offset %d: % x", hdr-1, img[hdr-1:hdr+1])
	}
	bad := bytes.Clone(img)
	bad[hdr] = byte(circuit.Swap)
	var fe *FormatError
	if _, err := DecodeImage(bad, "x"); !errors.As(err, &fe) {
		t.Fatalf("FT image holding a SWAP node: got %v, want FormatError", err)
	}
	// The same node under a cleared FT flag is a valid non-FT image.
	bad[hdr-1] = 0
	got, err := DecodeImage(bad, "x")
	if err != nil {
		t.Fatalf("non-FT image holding a SWAP node: %v", err)
	}
	if got.FT || got.QODG.Nodes[1].Op.Type != circuit.Swap {
		t.Fatalf("decoded FT=%v, node 1 %v; want a non-FT image with a SWAP node", got.FT, got.QODG.Nodes[1].Op.Type)
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
// nothing may panic.
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
		m, err := s.Materialize()
		if err != nil {
			t.Fatalf("clean stream failed to materialize: %v", err)
		}
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
	})
}

// FuzzImage throws arbitrary bytes at the Analysis image decoder: it must
// never panic, an image flagged FT must decode to FT nodes only, every gate
// node must name distinct operands inside the register, the decoded graph
// must sweep to a critical path, and whatever decodes must be internally
// consistent enough to re-encode. One scratch serves every sweep, so each
// meets the stale state of the one before.
func FuzzImage(f *testing.F) {
	// A small hand-built seed keeps per-exec cost low so the CI fuzz smoke
	// actually explores mutations.
	c := circuit.New("seed", 4)
	c.Gates = []circuit.Gate{
		{Type: circuit.H, Targets: []int{0}},
		{Type: circuit.CNOT, Controls: []int{0}, Targets: []int{1}},
		{Type: circuit.CNOT, Controls: []int{1}, Targets: []int{2}},
		{Type: circuit.X, Targets: []int{3}},
		{Type: circuit.CNOT, Controls: []int{2}, Targets: []int{3}},
	}
	a, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeImage(&buf, a); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-9])
	for _, ci := range corruptImages(f) {
		f.Add(ci.img)
	}
	tab := make([]float64, int(circuit.Swap)+1) // a row for every gate type
	for t := 1; t < len(tab); t++ {
		tab[t] = float64(t)
	}
	scratch := new(qodg.PathScratch)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeImage(data, "fuzz")
		if err != nil {
			return
		}
		g := got.QODG
		for v, n := range g.Nodes[1 : len(g.Nodes)-1] {
			if n.A < 0 || int(n.A) >= got.Qubits || n.B >= int32(got.Qubits) || n.B < -1 || n.B == n.A {
				t.Fatalf("node %d: operands %d, %d outside a %d-qubit register or equal", v+1, n.A, n.B, got.Qubits)
			}
			if got.FT && !n.Op.Type.IsFT() {
				t.Fatalf("image flagged FT decoded with a %v node", n.Op.Type)
			}
		}
		if _, err := g.LongestPath(tab, scratch); err != nil {
			t.Fatalf("decoded image failed to sweep: %v", err)
		}
		var out bytes.Buffer
		if err := EncodeImage(&out, got); err != nil {
			t.Fatalf("decoded image failed to re-encode: %v", err)
		}
	})
}
