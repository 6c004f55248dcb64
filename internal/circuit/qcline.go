package circuit

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// SyntaxError is the positioned diagnostic every .qc parsing front end
// shares: ParseQC and the streaming ingest scanner both report failures as
// a *SyntaxError carrying the source label, the 1-based line number and —
// when one token is at fault — the 1-based starting column of that token.
type SyntaxError struct {
	// Source labels the netlist (circuit name, typically the file
	// basename).
	Source string
	// Line is the 1-based line number of the statement.
	Line int
	// Col is the 1-based starting column of the offending token, or 0 when
	// the whole line is at fault.
	Col int
	// Err is the underlying diagnostic.
	Err error
}

func (e *SyntaxError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("%s: .qc line %d, col %d: %v", e.Source, e.Line, e.Col, e.Err)
	}
	return fmt.Sprintf("%s: .qc line %d: %v", e.Source, e.Line, e.Err)
}

func (e *SyntaxError) Unwrap() error { return e.Err }

// LineParser is the line-level .qc parser shared by ParseQC (which
// materializes a Circuit) and internal/ingest (which streams gates without
// retaining them). Feed it raw lines one at a time with Next; it tracks the
// BEGIN/END body state and the qubit register (auto-declaring operand names
// the way real benchmark files require), validates every gate against the
// register, and reports failures as *SyntaxError with line/column context.
//
// The parser allocates register entries only; per-line scratch (fields,
// operand indices, the emitted gate's qubit slices) is reused, so a steady
// scan over an arbitrarily long netlist runs at O(1) heap growth.
type LineParser struct {
	reg    *Circuit // qubit register; Gates stays untouched by the parser
	lineno int
	inBody bool

	fields []string // per-line field scratch
	cols   []int    // 1-based starting column of each field
	ops    []int    // backing store of the emitted gate's Controls+Targets
}

// NewLineParser returns a parser for a netlist labeled source.
func NewLineParser(source string) *LineParser {
	return &LineParser{reg: &Circuit{Name: source, byName: make(map[string]int)}}
}

// Rewind resets the line counter and body state so the same statement
// stream can be parsed again. The qubit register is kept: replaying an
// identical stream assigns identical indices (declarations and
// auto-declarations find their existing entries), which is exactly what a
// scanner's replay pass needs.
func (p *LineParser) Rewind() {
	p.lineno = 0
	p.inBody = false
}

// NumQubits reports the register size declared or auto-declared so far.
func (p *LineParser) NumQubits() int { return p.reg.NumQubits() }

// Register exposes the parser's qubit register as a Circuit. The parser
// itself never appends to Gates — materializing callers (ParseQC, the
// ingest fallback) append copies of emitted gates there; streaming callers
// treat it as a read-only name table and clone it (Circuit.Clone) when they
// need an independent circuit around the parsed stream.
func (p *LineParser) Register() *Circuit { return p.reg }

// Next consumes one raw line (without its trailing newline). ok reports
// whether the line produced a gate; blank lines, comments and directives
// parse to ok=false with no error. The returned gate's Controls and Targets
// alias the parser's scratch buffers — they are valid only until the next
// call; copy them (Gate.Clone) to retain the gate.
func (p *LineParser) Next(line string) (g Gate, ok bool, err error) {
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
	case foldWord(head, "BEGIN"):
		p.inBody = true
		return Gate{}, false, nil
	case foldWord(head, "END"):
		p.inBody = false
		return Gate{}, false, nil
	case head == ".v":
		for _, q := range p.fields[1:] {
			p.declare(q)
		}
		return Gate{}, false, nil
	case head == ".i", head == ".o", head == ".c", head == ".ol":
		// Input/output/constant declarations are informational.
		return Gate{}, false, nil
	}
	if !p.inBody {
		return Gate{}, false, p.errorf(p.cols[0], "statement %q outside BEGIN/END", head)
	}
	g, err = p.parseGate()
	if err != nil {
		return Gate{}, false, err
	}
	return g, true, nil
}

// declare resolves a qubit name to its register index, adding it on first
// sight. The name is cloned before it is retained: callers (the ingest
// scanner) may hand Next line text that aliases a recycled read buffer, and
// only strings the register keeps must survive the buffer's next refill.
func (p *LineParser) declare(name string) int {
	if idx, ok := p.reg.QubitIndex(name); ok {
		return idx
	}
	return p.reg.AddQubit(strings.Clone(name))
}

// splitFields splits line into whitespace-separated fields, recording each
// field's 1-based starting column, reusing the parser's scratch slices.
func (p *LineParser) splitFields(line string) {
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

// parseGate assembles the gate on the current statement line. The gate
// passes Gate.Validate by construction: gateShape fixes the operand counts
// per type and declare hands out in-range indices, so only operand
// distinctness is left to check, with Validate's error text.
func (p *LineParser) parseGate() (Gate, error) {
	mnemonic := p.fields[0]
	nargs := len(p.fields) - 1
	if cap(p.ops) < nargs {
		p.ops = make([]int, nargs)
	}
	p.ops = p.ops[:nargs]
	for k, nameArg := range p.fields[1:] {
		// Auto-declare unseen qubits; real benchmark files sometimes omit
		// ancillae from .v.
		p.ops[k] = p.declare(nameArg)
	}
	t, nctrl, err := gateShape(mnemonic, nargs)
	if err != nil {
		return Gate{}, p.wrap(p.cols[0], err)
	}
	for i := 1; i < nargs; i++ {
		for j := 0; j < i; j++ {
			if p.ops[j] == p.ops[i] {
				return Gate{}, p.errorf(p.cols[0], "gate %s: duplicate operand qubit %d", t, p.ops[i])
			}
		}
	}
	return Gate{Type: t, Controls: p.ops[:nctrl:nctrl], Targets: p.ops[nctrl:]}, nil
}

func (p *LineParser) wrap(col int, err error) error {
	return &SyntaxError{Source: p.reg.Name, Line: p.lineno, Col: col, Err: err}
}

func (p *LineParser) errorf(col int, format string, args ...any) error {
	return p.wrap(col, fmt.Errorf(format, args...))
}

// gateShape resolves a .qc mnemonic and its operand count to the gate type
// and the control/target split (controls occupy the first nctrl operands).
// Mnemonics are case-insensitive. Both ParseQC and the ingest scanner route
// through it, so mnemonic handling and error text stay identical.
func gateShape(mnemonic string, nargs int) (t GateType, nctrl int, err error) {
	if named, canon, c, n := namedGate(mnemonic); named != Invalid {
		if nargs != n {
			if n == 1 {
				return Invalid, 0, fmt.Errorf("gate %s: want 1 operand, have %d", canon, nargs)
			}
			return Invalid, 0, fmt.Errorf("gate %s: want %d operands, have %d", canon, n, nargs)
		}
		return named, c, nil
	}
	// tN / fN forms.
	if n, ok := mnemonicArity(mnemonic); ok {
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
		// Fredkin family: last two operands are the swapped pair.
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

// namedGates is the one table of named mnemonics: the upper-case name,
// the gate type, its spelling in diagnostics, its control count and its
// operand count. Rows are sorted by name length, which namedFrom indexes.
var namedGates = [...]struct {
	name        string
	t           GateType
	canon       string
	nctrl, nops int
}{
	{"H", H, "H", 0, 1},
	{"T", T, "T", 0, 1},
	{"S", S, "S", 0, 1},
	{"X", X, "X", 0, 1},
	{"Y", Y, "Y", 0, 1},
	{"Z", Z, "Z", 0, 1},
	{"T*", Tdg, "T*", 0, 1},
	{"S*", Sdg, "S*", 0, 1},
	{"TDG", Tdg, "T*", 0, 1},
	{"SDG", Sdg, "S*", 0, 1},
	{"NOT", X, "X", 0, 1},
	{"TOF", Toffoli, "TOF", 2, 3},
	{"FRE", Fredkin, "FRE", 1, 3},
	{"CNOT", CNOT, "CNOT", 1, 2},
	{"SWAP", Swap, "SWAP", 0, 2},
}

// maxNamedLen is the longest name in namedGates.
const maxNamedLen = 4

// namedFrom[n] is the first row of namedGates whose name is at least n
// bytes long, so the names of exactly n bytes are rows
// namedFrom[n]:namedFrom[n+1].
var namedFrom = func() (from [maxNamedLen + 2]int) {
	i := 0
	for n := range from {
		for i < len(namedGates) && len(namedGates[i].name) < n {
			i++
		}
		from[n] = i
	}
	return from
}()

// namedGate resolves a named mnemonic through namedGates; t is Invalid
// when m names none (tN/fN forms included). Matching follows
// strings.EqualFold. An ASCII spelling only meets the rows of its own
// length, compared bytewise under ASCII case folding; only a spelling with
// a non-ASCII byte runs EqualFold over the whole table, because Unicode
// folds reach past ASCII: ſ (U+017F) folds to s, so "ſwap" names SWAP.
func namedGate(m string) (t GateType, canon string, nctrl, nops int) {
	if isASCII(m) {
		if len(m) <= maxNamedLen {
			for i := namedFrom[len(m)]; i < namedFrom[len(m)+1]; i++ {
				if foldASCII(m, namedGates[i].name) {
					return namedRow(i)
				}
			}
		}
		return Invalid, "", 0, 0
	}
	for i := range namedGates {
		if strings.EqualFold(m, namedGates[i].name) {
			return namedRow(i)
		}
	}
	return Invalid, "", 0, 0
}

func namedRow(i int) (t GateType, canon string, nctrl, nops int) {
	e := &namedGates[i]
	return e.t, e.canon, e.nctrl, e.nops
}

// foldWord is strings.EqualFold(s, word) for an upper-case ASCII word,
// decided bytewise unless s has a non-ASCII byte: a spelling that folds to
// word through a non-ASCII rune is longer than word in bytes.
func foldWord(s, word string) bool {
	if len(s) == len(word) {
		return foldASCII(s, word)
	}
	return len(s) > len(word) && !isASCII(s) && strings.EqualFold(s, word)
}

// foldASCII reports whether s equals the upper-case ASCII word under ASCII
// case folding.
func foldASCII(s, word string) bool {
	if len(s) != len(word) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if upper(s[i]) != word[i] {
			return false
		}
	}
	return true
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// mnemonicArity parses the <N> of a tN/fN mnemonic. Strict: every character
// after the t/f must be a digit (at most 7, plenty for any real netlist).
func mnemonicArity(mnemonic string) (int, bool) {
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
