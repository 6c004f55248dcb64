package circuit

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

const sampleQC = `
# sample circuit
.v a b c d
.i a b c
.o d
BEGIN
t1 a
t2 a b
t3 a b c
t4 a b c d
f3 a b c
swap a b
H a
T b
T* c
S d
S* a
X b
Y c
Z d
CNOT a b
TOF a b c
END
`

func parseSample(t *testing.T) *Circuit {
	t.Helper()
	c, err := ParseQC(strings.NewReader(sampleQC), "sample")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseQCGateTypes(t *testing.T) {
	c := parseSample(t)
	want := []GateType{
		X, CNOT, Toffoli, MCT, Fredkin, Swap,
		H, T, Tdg, S, Sdg, X, Y, Z, CNOT, Toffoli,
	}
	if c.NumGates() != len(want) {
		t.Fatalf("parsed %d gates, want %d", c.NumGates(), len(want))
	}
	for i, w := range want {
		if c.Gates[i].Type != w {
			t.Errorf("gate %d type = %s, want %s", i, c.Gates[i].Type, w)
		}
	}
	if c.NumQubits() != 4 {
		t.Errorf("NumQubits = %d, want 4", c.NumQubits())
	}
}

func TestParseQCTNOperandOrder(t *testing.T) {
	c := parseSample(t)
	// t2 a b: control a (index 0), target b (index 1).
	g := c.Gates[1]
	if g.Controls[0] != 0 || g.Targets[0] != 1 {
		t.Errorf("t2 a b parsed as %+v", g)
	}
	// f3 a b c: control a, swap pair (b, c).
	g = c.Gates[4]
	if g.Controls[0] != 0 || g.Targets[0] != 1 || g.Targets[1] != 2 {
		t.Errorf("f3 a b c parsed as %+v", g)
	}
}

func TestParseQCAutoDeclares(t *testing.T) {
	src := ".v a\nBEGIN\nt2 a zz\nEND\n"
	c, err := ParseQC(strings.NewReader(src), "auto")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 2 {
		t.Fatalf("auto-declared register has %d qubits", c.NumQubits())
	}
	if _, ok := c.QubitIndex("zz"); !ok {
		t.Error("qubit zz not registered")
	}
}

func TestParseQCErrors(t *testing.T) {
	cases := map[string]string{
		"outside body":    ".v a b\nt2 a b\n",
		"bad mnemonic":    ".v a\nBEGIN\nbogus a\nEND\n",
		"wrong arity":     ".v a b\nBEGIN\nt3 a b\nEND\n",
		"cnot arity":      ".v a b c\nBEGIN\nCNOT a b c\nEND\n",
		"fredkin 2 ops":   ".v a b\nBEGIN\nf2 a b\nEND\n",
		"h arity":         ".v a b\nBEGIN\nH a b\nEND\n",
		"duplicate qubit": ".v a b\nBEGIN\nt2 a a\nEND\n",
	}
	for name, src := range cases {
		if _, err := ParseQC(strings.NewReader(src), name); err == nil {
			t.Errorf("%s: want parse error", name)
		}
	}
}

func TestQCRoundTrip(t *testing.T) {
	c := parseSample(t)
	var buf bytes.Buffer
	if err := WriteQC(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseQC(&buf, "sample")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if c2.NumGates() != c.NumGates() || c2.NumQubits() != c.NumQubits() {
		t.Fatalf("round trip changed size: %d/%d gates, %d/%d qubits",
			c2.NumGates(), c.NumGates(), c2.NumQubits(), c.NumQubits())
	}
	for i := range c.Gates {
		a, b := c.Gates[i], c2.Gates[i]
		if a.Type != b.Type {
			t.Errorf("gate %d type %s != %s", i, a.Type, b.Type)
			continue
		}
		for j := range a.Controls {
			if a.Controls[j] != b.Controls[j] {
				t.Errorf("gate %d control %d differs", i, j)
			}
		}
		for j := range a.Targets {
			if a.Targets[j] != b.Targets[j] {
				t.Errorf("gate %d target %d differs", i, j)
			}
		}
	}
}

func TestQCFileRoundTrip(t *testing.T) {
	c := parseSample(t)
	path := filepath.Join(t.TempDir(), "sample.qc")
	if err := SaveQCFile(path, c); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadQCFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Name != "sample" {
		t.Errorf("loaded name = %q, want sample (from filename)", c2.Name)
	}
	if c2.NumGates() != c.NumGates() {
		t.Errorf("gate count changed: %d -> %d", c.NumGates(), c2.NumGates())
	}
}

func TestParseQCCommentsAndBlanks(t *testing.T) {
	src := "# header\n\n.v a b # trailing\nBEGIN\n# body comment\nt2 a b\n\nEND\n# trailer\n"
	c, err := ParseQC(strings.NewReader(src), "comments")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Fatalf("parsed %d gates, want 1", c.NumGates())
	}
}

// TestNamedGatesResolve pins the mnemonic table against its length index:
// every row resolves to itself in upper, lower and mixed case.
func TestNamedGatesResolve(t *testing.T) {
	for _, e := range namedGates {
		if len(e.name) > maxNamedLen || strings.ToUpper(e.name) != e.name {
			t.Errorf("row %q: names are upper case and at most %d bytes", e.name, maxNamedLen)
		}
		for _, m := range []string{e.name, strings.ToLower(e.name), strings.ToLower(e.name[:1]) + e.name[1:]} {
			if got, canon, _, _ := namedGate(m); got != e.t || canon != e.canon {
				t.Errorf("namedGate(%q) = %s %q, want %s %q", m, got, canon, e.t, e.canon)
			}
		}
	}
}

func TestParseQCCaseInsensitiveMnemonics(t *testing.T) {
	src := ".v a b c\nBEGIN\ncnot a b\ntof a b c\nh a\nnot b\nEND\n"
	c, err := ParseQC(strings.NewReader(src), "case")
	if err != nil {
		t.Fatal(err)
	}
	want := []GateType{CNOT, Toffoli, H, X}
	for i, w := range want {
		if c.Gates[i].Type != w {
			t.Errorf("gate %d = %s, want %s", i, c.Gates[i].Type, w)
		}
	}
}
