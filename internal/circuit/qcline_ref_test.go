package circuit

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// refParser is a frozen copy of the .qc statement parser as it stood
// before LineParser's byte dispatch: every keyword and mnemonic matched by
// a strings.EqualFold chain, every gate checked by a full Gate.Validate
// (refValidate). It shares no parsing code with LineParser, so
// FuzzLineParser catches a tokenizer regression that FuzzScanner — whose
// two sides both run LineParser — cannot.
type refParser struct {
	source string
	names  []string
	byName map[string]int
	lineno int
	inBody bool
	fields []string
	cols   []int
}

func newRefParser(source string) *refParser {
	return &refParser{source: source, byName: make(map[string]int)}
}

func (p *refParser) next(line string) (Gate, bool, error) {
	p.lineno++
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	p.splitFields(line)
	if len(p.fields) == 0 {
		return Gate{}, false, nil
	}
	head := p.fields[0]
	switch {
	case strings.EqualFold(head, "BEGIN"):
		p.inBody = true
		return Gate{}, false, nil
	case strings.EqualFold(head, "END"):
		p.inBody = false
		return Gate{}, false, nil
	case head == ".v":
		for _, q := range p.fields[1:] {
			p.declare(q)
		}
		return Gate{}, false, nil
	case head == ".i", head == ".o", head == ".c", head == ".ol":
		return Gate{}, false, nil
	}
	if !p.inBody {
		return Gate{}, false, p.wrap(p.cols[0], fmt.Errorf("statement %q outside BEGIN/END", head))
	}
	g, err := p.parseGate()
	if err != nil {
		return Gate{}, false, err
	}
	return g, true, nil
}

func (p *refParser) declare(name string) int {
	if idx, ok := p.byName[name]; ok {
		return idx
	}
	p.byName[name] = len(p.names)
	p.names = append(p.names, name)
	return len(p.names) - 1
}

func (p *refParser) splitFields(line string) {
	p.fields = p.fields[:0]
	p.cols = p.cols[:0]
	start := -1
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '\r', '\v', '\f':
			if start >= 0 {
				p.fields = append(p.fields, line[start:i])
				p.cols = append(p.cols, start+1)
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		p.fields = append(p.fields, line[start:])
		p.cols = append(p.cols, start+1)
	}
}

func (p *refParser) parseGate() (Gate, error) {
	nargs := len(p.fields) - 1
	ops := make([]int, nargs)
	for k, name := range p.fields[1:] {
		ops[k] = p.declare(name)
	}
	t, nctrl, err := refGateShape(p.fields[0], nargs)
	if err != nil {
		return Gate{}, p.wrap(p.cols[0], err)
	}
	g := Gate{Type: t, Controls: ops[:nctrl:nctrl], Targets: ops[nctrl:]}
	if err := refValidate(g, len(p.names)); err != nil {
		return Gate{}, p.wrap(p.cols[0], err)
	}
	return g, nil
}

func (p *refParser) wrap(col int, err error) error {
	return &SyntaxError{Source: p.source, Line: p.lineno, Col: col, Err: err}
}

func refGateShape(mnemonic string, nargs int) (GateType, int, error) {
	exact := func(t GateType, canon string, wantC, wantT int) (GateType, int, error) {
		if nargs != wantC+wantT {
			if wantC+wantT == 1 {
				return Invalid, 0, fmt.Errorf("gate %s: want 1 operand, have %d", canon, nargs)
			}
			return Invalid, 0, fmt.Errorf("gate %s: want %d operands, have %d", canon, wantC+wantT, nargs)
		}
		return t, wantC, nil
	}
	switch {
	case strings.EqualFold(mnemonic, "H"):
		return exact(H, "H", 0, 1)
	case strings.EqualFold(mnemonic, "T"):
		return exact(T, "T", 0, 1)
	case strings.EqualFold(mnemonic, "T*"), strings.EqualFold(mnemonic, "TDG"):
		return exact(Tdg, "T*", 0, 1)
	case strings.EqualFold(mnemonic, "S"):
		return exact(S, "S", 0, 1)
	case strings.EqualFold(mnemonic, "S*"), strings.EqualFold(mnemonic, "SDG"):
		return exact(Sdg, "S*", 0, 1)
	case strings.EqualFold(mnemonic, "X"), strings.EqualFold(mnemonic, "NOT"):
		return exact(X, "X", 0, 1)
	case strings.EqualFold(mnemonic, "Y"):
		return exact(Y, "Y", 0, 1)
	case strings.EqualFold(mnemonic, "Z"):
		return exact(Z, "Z", 0, 1)
	case strings.EqualFold(mnemonic, "CNOT"):
		return exact(CNOT, "CNOT", 1, 1)
	case strings.EqualFold(mnemonic, "TOF"):
		return exact(Toffoli, "TOF", 2, 1)
	case strings.EqualFold(mnemonic, "FRE"):
		return exact(Fredkin, "FRE", 1, 2)
	case strings.EqualFold(mnemonic, "SWAP"):
		return exact(Swap, "SWAP", 0, 2)
	}
	if n, ok := refMnemonicArity(mnemonic); ok {
		if n != nargs {
			return Invalid, 0, fmt.Errorf("gate %s: want %d operands, have %d", mnemonic, n, nargs)
		}
		if mnemonic[0] == 't' || mnemonic[0] == 'T' {
			switch n {
			case 0:
				return Invalid, 0, fmt.Errorf("gate %s: want ≥1 operands, have 0", mnemonic)
			case 1:
				return X, 0, nil
			case 2:
				return CNOT, 1, nil
			case 3:
				return Toffoli, 2, nil
			}
			return MCT, n - 1, nil
		}
		if n < 3 {
			return Invalid, 0, fmt.Errorf("gate %s: fredkin needs ≥3 operands", mnemonic)
		}
		if n == 3 {
			return Fredkin, 1, nil
		}
		return MCF, n - 2, nil
	}
	return Invalid, 0, fmt.Errorf("unknown gate mnemonic %q", mnemonic)
}

func refMnemonicArity(mnemonic string) (int, bool) {
	if len(mnemonic) < 2 || len(mnemonic) > 8 {
		return 0, false
	}
	switch mnemonic[0] {
	case 't', 'T', 'f', 'F':
	default:
		return 0, false
	}
	n := 0
	for i := 1; i < len(mnemonic); i++ {
		d := mnemonic[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// refValidate is Gate.Validate as the reference parser ran it.
func refValidate(g Gate, n int) error {
	var wantC, wantT int
	minC := -1
	switch g.Type {
	case X, Y, Z, H, S, Sdg, T, Tdg:
		wantC, wantT = 0, 1
	case CNOT:
		wantC, wantT = 1, 1
	case Toffoli:
		wantC, wantT = 2, 1
	case Fredkin:
		wantC, wantT = 1, 2
	case MCT:
		minC, wantT = 3, 1
	case MCF:
		minC, wantT = 2, 2
	case Swap:
		wantC, wantT = 0, 2
	default:
		return fmt.Errorf("gate %s: unknown type", g.Type)
	}
	if minC >= 0 {
		if len(g.Controls) < minC {
			return fmt.Errorf("gate %s: want ≥%d controls, have %d", g.Type, minC, len(g.Controls))
		}
	} else if len(g.Controls) != wantC {
		return fmt.Errorf("gate %s: want %d controls, have %d", g.Type, wantC, len(g.Controls))
	}
	if len(g.Targets) != wantT {
		return fmt.Errorf("gate %s: want %d targets, have %d", g.Type, wantT, len(g.Targets))
	}
	qs := append(append([]int(nil), g.Controls...), g.Targets...)
	for i, q := range qs {
		if q < 0 || q >= n {
			return fmt.Errorf("gate %s: qubit %d out of range [0,%d)", g.Type, q, n)
		}
		for _, prev := range qs[:i] {
			if prev == q {
				return fmt.Errorf("gate %s: duplicate operand qubit %d", g.Type, q)
			}
		}
	}
	return nil
}

// lineParserSeeds is FuzzLineParser's seed corpus: every named mnemonic in
// three cases, with the right operand count, one under, one over and two
// over; the Unicode fold that reaches past ASCII (ſ is s); the tN/fN forms
// and near misses, t1 and t2 one operand under and over; operand reuse;
// keyword look-alikes; CRLF line endings; and the token cursor's edges:
// '#' inside and right after a token, every separator byte between and
// around tokens, a line of separators only, an auto-declared operand, a
// qubit named like a mnemonic, and non-ASCII names.
func lineParserSeeds() []string {
	const head = ".v a b c d\nBEGIN\n"
	var seeds []string
	named := []struct {
		m    string
		nops int
	}{
		{"H", 1}, {"T", 1}, {"T*", 1}, {"TDG", 1}, {"S", 1}, {"S*", 1}, {"SDG", 1}, {"X", 1},
		{"NOT", 1}, {"Y", 1}, {"Z", 1}, {"CNOT", 2}, {"TOF", 3}, {"FRE", 3}, {"SWAP", 2},
	}
	for _, n := range named {
		ops := strings.Join(strings.Fields("a b c d")[:n.nops], " ")
		mixed := strings.ToLower(n.m[:1]) + n.m[1:]
		if len(n.m) > 1 {
			mixed = n.m[:1] + strings.ToLower(n.m[1:])
		}
		for _, spelled := range []string{n.m, strings.ToLower(n.m), mixed} {
			seeds = append(seeds,
				head+spelled+" "+ops+"\nEND\n",
				head+spelled+" "+ops+" d a\nEND\n")
		}
		under := strings.Join(strings.Fields("a b c d")[:n.nops-1], " ")
		seeds = append(seeds,
			head+n.m+" "+under+"\nEND\n",
			head+n.m+" "+ops+" d\nEND\n")
	}
	return append(seeds,
		head+"ſwap a b\nſ a\nſ* a\nſdg a\nEND\n",
		head+"T* a\ntdg a\nTDG a\nEND\n",
		head+"t0\nEND\n",
		head+"t1 a\nt10 a b c d e f g h i j\nEND\n",
		head+"f2 a b\nEND\n",
		head+"f3 a b c\nF4 a b c d\nEND\n",
		head+"tt a\nEND\n",
		head+"x1 a\nEND\n",
		head+"t2 a a\nEND\n",
		".v a\nbegin\nH a\nEnd\nBEGINX\n",
		".v a b\r\nBEGIN\r\nt2 a b\r\nH b # comment\r\nEND\r\n",
		head+"t1\nt1 a b\nt2 a\nt2 a b c\nEND\n",
		head+"t2 a#b c\nH a#\nH#a\n#H a\nEND#\nH a\n",
		head+"t2\ta\tb\nt2\ra\rb\nt2\va\vb\nt2\fa\fb\n \t\r\v\fH a \t\r\v\f\n \t\r\v\f\nEND\n",
		head+"H z\nt2 z y\nt2 y nope\nEND\n",
		".v H T\nBEGIN\nH H\nt2 H T\nT T\nEND\n",
		".v ä\nBEGIN\nH ä\nt2 ä ſ\nſwap ä ſ\nH ɑ\nEND\n",
	)
}

// FuzzLineParser is a differential fuzz against the frozen reference
// parser: fed the same lines, LineParser must accept and reject the same
// statements, with the same SyntaxError text, line and column, and emit
// the same gates over the same register.
func FuzzLineParser(f *testing.F) {
	for _, seed := range lineParserSeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ref := NewLineParser("fuzz"), newRefParser("fuzz")
		for i, line := range strings.Split(string(data), "\n") {
			g, ok, err := p.Next(line)
			wg, wok, werr := ref.next(line)
			if (err == nil) != (werr == nil) {
				t.Fatalf("line %d %q: err = %v, reference err = %v", i+1, line, err, werr)
			}
			if werr != nil {
				var syn, wsyn *SyntaxError
				if !errors.As(err, &syn) || !errors.As(werr, &wsyn) {
					t.Fatalf("line %d %q: errors %v / %v are not both SyntaxErrors", i+1, line, err, werr)
				}
				if err.Error() != werr.Error() || syn.Line != wsyn.Line || syn.Col != wsyn.Col {
					t.Fatalf("line %d %q: diagnostics diverge:\nparser:    %v (line %d, col %d)\nreference: %v (line %d, col %d)",
						i+1, line, err, syn.Line, syn.Col, werr, wsyn.Line, wsyn.Col)
				}
				return
			}
			if ok != wok || g.Type != wg.Type || fmt.Sprint(g.Controls, g.Targets) != fmt.Sprint(wg.Controls, wg.Targets) {
				t.Fatalf("line %d %q: gate %v (%v), reference %v (%v)", i+1, line, g, ok, wg, wok)
			}
		}
		if p.NumQubits() != len(ref.names) {
			t.Fatalf("%d qubits, reference %d", p.NumQubits(), len(ref.names))
		}
		for i, name := range ref.names {
			if p.Register().QubitName(i) != name {
				t.Fatalf("qubit %d named %q, reference %q", i, p.Register().QubitName(i), name)
			}
		}
	})
}
