package qcbin

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/circuit"
)

// Scanner streams validated gates out of a .qcb binary netlist — the binary
// counterpart of ingest.Scanner, implementing the same GateStream contract
// (Scan/Gate/Err/Rewind/NumQubits/Name) so the analysis layer cannot tell
// the containers apart. The source must seek: binary netlists are decoded
// from files or fully spooled uploads, never parsed mid-pipe (the ingest
// layer spools non-seekable binary sources before constructing a Scanner).
//
// Gates are borrowed: operand slices are reused scratch valid until the
// next Scan or Rewind; Clone to retain. Not safe for concurrent use.
type Scanner struct {
	name string
	rs   io.ReadSeeker
	br   *bufio.Reader
	reg  *circuit.Circuit

	gatesOff  int64 // absolute offset of the first gate record
	off       int64 // bytes consumed since the container start (diagnostics)
	headerLen int64

	// win is the current peeked window into br's buffer: records decode by
	// indexing win[winPos:] directly, and the consumed prefix is handed back
	// to br (one Discard) only when the window runs low. This keeps the hot
	// decode loop free of per-record bufio calls.
	win    []byte
	winPos int

	// gate is the current gate. Its operand slices are scratch arrays that
	// each record re-slices in place (sizeOperands), so decoding a record
	// stores no pointer and costs no GC write barrier.
	gate      circuit.Gate
	gateIndex int
	err       error
	closed    bool
}

// NewScanner parses the .qcb header of rs (positioned at the container
// start) and returns a Scanner over its gate records. fallbackName labels
// the netlist when the header carries an empty name.
func NewScanner(rs io.ReadSeeker, fallbackName string) (*Scanner, error) {
	s := &Scanner{rs: rs, br: bufio.NewReaderSize(rs, scannerBufSize), gateIndex: -1, name: fallbackName}
	if err := s.readHeader(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Scanner) readHeader() error {
	var magic [4]byte
	if _, err := io.ReadFull(s.br, magic[:]); err != nil {
		return formatErr(s.name, 0, "reading magic: %v", noEOF(err))
	}
	s.off = 4
	if magic != MagicQCB {
		return formatErr(s.name, 0, "bad magic % x; not a .qcb netlist", magic)
	}
	ver, err := s.br.ReadByte()
	if err != nil {
		return formatErr(s.name, s.off, "reading version: %v", noEOF(err))
	}
	s.off++
	if ver != Version {
		return formatErr(s.name, 4, "unsupported version %d (want %d)", ver, Version)
	}
	name, err := s.readString("circuit name")
	if err != nil {
		return err
	}
	if name != "" {
		s.name = name
	}
	numQ, err := s.readUvarint("qubit count")
	if err != nil {
		return err
	}
	if numQ > maxRegister {
		return formatErr(s.name, s.off, "register of %d qubits exceeds the %d cap", numQ, maxRegister)
	}
	// Grow the table as names arrive rather than trusting the header's
	// count: every name costs at least one input byte, so a corrupt header
	// declaring a huge register fails on a truncated read instead of
	// demanding a giant up-front allocation.
	qubits := make([]string, 0, min(numQ, 4096))
	for i := 0; i < numQ; i++ {
		q, err := s.readString("qubit name")
		if err != nil {
			return err
		}
		qubits = append(qubits, q)
	}
	reg, err := circuit.NewNamed(s.name, qubits)
	if err != nil {
		return formatErr(s.name, s.off, "register table: %v", err)
	}
	s.reg = reg
	s.headerLen = s.off
	// The header was parsed through the buffered reader, so the underlying
	// position is ahead of the logical one; record where gate records start
	// relative to wherever the container began.
	pos, err := s.rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return formatErr(s.name, s.off, "seek: %v", err)
	}
	s.gatesOff = pos - int64(s.br.Buffered())
	return nil
}

// maxRegister caps the declared register size; beyond it a header is
// corrupt, not large (the biggest paper benchmark holds 768 qubits, the
// server's gate cap bounds real registers far below this).
const maxRegister = 1 << 26

// Name reports the netlist label (the header name when present).
func (s *Scanner) Name() string { return s.name }

// PrevalidatedGates implements analysis.PrevalidatedStream: decode checks
// (valid opcode, shape-exact operand counts, operands below the header's
// qubit count, pairwise-distinct operands) establish circuit.Gate.Validate
// for every yielded gate, so the analysis passes need not re-check.
func (s *Scanner) PrevalidatedGates() bool { return true }

// NumQubits reports the register size; for binary netlists it is complete
// from the header, before any gate is scanned.
func (s *Scanner) NumQubits() int { return s.reg.NumQubits() }

// Register exposes the decoded qubit register as a gate-less circuit —
// read-only, the same contract as ingest.Scanner.Register.
func (s *Scanner) Register() *circuit.Circuit { return s.reg }

// GateIndex reports the 0-based index of the current gate (-1 before the
// first Scan of a pass).
func (s *Scanner) GateIndex() int { return s.gateIndex }

// BytesRead reports the container bytes consumed so far this pass
// (header + gate records).
func (s *Scanner) BytesRead() int64 { return s.off }

// Gate returns the current gate. Operand slices are borrowed scratch,
// valid only until the next Scan or Rewind; Clone to retain.
func (s *Scanner) Gate() circuit.Gate { return s.gate }

// Err returns the terminal error, nil at clean end of stream.
func (s *Scanner) Err() error { return s.err }

// scannerBufSize sizes the buffered reader: big windows amortize the one
// refill (Discard + Peek) over thousands of gate records.
const scannerBufSize = 64 << 10

// scanPeek is the minimum window Scan requires before decoding a record in
// place. Records longer than that (large MCTs) and records truncated by EOF
// fall back to the byte-wise decoder, which produces the exact diagnostics.
const scanPeek = 64

// refill hands the consumed window prefix back to the buffered reader and
// peeks the next full window. It reports false at end of input — clean EOF
// or a read error — and true when at least one byte is available to
// decode.
func (s *Scanner) refill() bool {
	s.br.Discard(s.winPos)
	s.winPos = 0
	var perr error
	s.win, perr = s.br.Peek(s.br.Size())
	if len(s.win) == 0 {
		if perr != nil && perr != io.EOF {
			s.err = formatErr(s.name, s.off, "reading opcode: %v", perr)
		}
		return false
	}
	return true
}

// dropWindow returns unconsumed window bytes to the buffered reader so the
// byte-wise paths (which read through br directly) see the stream at the
// current record boundary.
func (s *Scanner) dropWindow() {
	s.br.Discard(s.winPos)
	s.winPos = 0
	s.win = nil
}

// Scan advances to the next gate record, reporting false at end of file or
// on a malformed record.
func (s *Scanner) Scan() bool {
	if s.err != nil || s.closed {
		return false
	}
	if len(s.win)-s.winPos < scanPeek {
		if !s.refill() {
			return false
		}
	}
	p := s.win[s.winPos:]
	recOff := s.off
	t := circuit.GateType(p[0])
	shape, ok := t.Shape()
	if !ok {
		s.err = formatErr(s.name, recOff, "gate %d: unknown opcode 0x%02x", s.gateIndex+1, p[0])
		return false
	}
	pos := 1
	nc := shape.Controls
	if shape.MinControls > 0 {
		k, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			s.dropWindow()
			return s.scanBytewise()
		}
		if k < uint64(shape.MinControls) || k > uint64(s.reg.NumQubits()) {
			s.err = formatErr(s.name, recOff, "gate %d: %s with %d controls (want %d..%d)",
				s.gateIndex+1, t, k, shape.MinControls, s.reg.NumQubits())
			return false
		}
		pos += n
		nc = int(k)
	}
	s.sizeOperands(nc, shape.Targets)
	numQ := uint64(s.reg.NumQubits())
	for i := 0; i < nc+shape.Targets; i++ {
		q, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			s.dropWindow()
			return s.scanBytewise()
		}
		if q >= numQ {
			s.err = formatErr(s.name, recOff, "gate %d: %s operand qubit %d out of range [0,%d)",
				s.gateIndex+1, t, q, numQ)
			return false
		}
		pos += n
		if i < nc {
			s.gate.Controls[i] = int(q)
		} else {
			s.gate.Targets[i-nc] = int(q)
		}
	}
	s.winPos += pos
	s.off += int64(pos)
	s.gate.Type = t
	if !s.checkDistinct(recOff, t) {
		return false
	}
	s.gateIndex++
	return true
}

// sizeOperands sizes the current gate's operand slices for nc controls and
// nt targets. A slice re-sliced into itself keeps its pointer, so only a
// record wider than any before it stores one.
func (s *Scanner) sizeOperands(nc, nt int) {
	g := &s.gate
	if cap(g.Controls) < nc {
		g.Controls = make([]int, nc)
	}
	g.Controls = g.Controls[:nc]
	if cap(g.Targets) < nt {
		g.Targets = make([]int, nt)
	}
	g.Targets = g.Targets[:nt]
}

// checkDistinct rejects records with a repeated operand qubit. Together
// with the decode-time checks (known opcode, shape-exact operand counts,
// every operand in range) it implies circuit.Gate.Validate passes — the
// scanner yields only valid gates without paying a second full validation
// per gate.
func (s *Scanner) checkDistinct(recOff int64, t circuit.GateType) bool {
	for i, q := range s.gate.Targets {
		for _, p := range s.gate.Targets[:i] {
			if p == q {
				s.err = formatErr(s.name, recOff, "gate %d: gate %s: duplicate operand qubit %d", s.gateIndex+1, t, q)
				return false
			}
		}
		for _, p := range s.gate.Controls {
			if p == q {
				s.err = formatErr(s.name, recOff, "gate %d: gate %s: duplicate operand qubit %d", s.gateIndex+1, t, q)
				return false
			}
		}
	}
	for i, q := range s.gate.Controls {
		for _, p := range s.gate.Controls[:i] {
			if p == q {
				s.err = formatErr(s.name, recOff, "gate %d: gate %s: duplicate operand qubit %d", s.gateIndex+1, t, q)
				return false
			}
		}
	}
	return true
}

// scanBytewise decodes one gate record byte by byte — the fallback for
// records the peeked window cannot hold (records crossing a window refill
// boundary, EOF-truncated tails). The fast path dropped its window without
// consuming any of the record, so it re-decodes from the record's first
// byte and owns its diagnostics.
func (s *Scanner) scanBytewise() bool {
	op, err := s.br.ReadByte()
	if err == io.EOF {
		return false
	}
	if err != nil {
		s.err = formatErr(s.name, s.off, "reading opcode: %v", err)
		return false
	}
	recOff := s.off
	s.off++
	t := circuit.GateType(op)
	shape, ok := t.Shape()
	if !ok {
		s.err = formatErr(s.name, recOff, "gate %d: unknown opcode 0x%02x", s.gateIndex+1, op)
		return false
	}
	nc := shape.Controls
	if shape.MinControls > 0 {
		k, err := s.readUvarint("control count")
		if err != nil {
			s.err = err
			return false
		}
		if k < shape.MinControls || k > s.reg.NumQubits() {
			s.err = formatErr(s.name, recOff, "gate %d: %s with %d controls (want %d..%d)",
				s.gateIndex+1, t, k, shape.MinControls, s.reg.NumQubits())
			return false
		}
		nc = k
	}
	s.sizeOperands(nc, shape.Targets)
	for i := range s.gate.Controls {
		if s.gate.Controls[i], err = s.readOperand(recOff, t); err != nil {
			s.err = err
			return false
		}
	}
	for i := range s.gate.Targets {
		if s.gate.Targets[i], err = s.readOperand(recOff, t); err != nil {
			s.err = err
			return false
		}
	}
	s.gate.Type = t
	if !s.checkDistinct(recOff, t) {
		return false
	}
	s.gateIndex++
	return true
}

// Rewind restarts the gate stream (one seek back to the first record).
func (s *Scanner) Rewind() error {
	if s.closed {
		return formatErr(s.name, s.off, "scanner closed")
	}
	if s.err != nil {
		// Terminal decode errors stick, exactly like the text scanner's.
		return s.err
	}
	if _, err := s.rs.Seek(s.gatesOff, io.SeekStart); err != nil {
		return formatErr(s.name, s.off, "seek: %v", err)
	}
	s.br.Reset(s.rs)
	s.win, s.winPos = nil, 0
	s.off = s.headerLen
	s.gate = circuit.Gate{Controls: s.gate.Controls[:0], Targets: s.gate.Targets[:0]}
	s.gateIndex = -1
	return nil
}

// Close marks the scanner unusable. The underlying seeker is owned by the
// caller (the ingest layer closes files and spools).
func (s *Scanner) Close() error {
	s.closed = true
	return nil
}

func (s *Scanner) readOperand(recOff int64, t circuit.GateType) (int, error) {
	q, err := s.readUvarint("operand")
	if err != nil {
		return 0, err
	}
	if q >= s.reg.NumQubits() {
		return 0, formatErr(s.name, recOff, "gate %d: %s operand qubit %d out of range [0,%d)",
			s.gateIndex+1, t, q, s.reg.NumQubits())
	}
	return q, nil
}

// readUvarint decodes one varint, bounding it to the int range and mapping
// EOF mid-value to a truncation diagnostic. It decodes straight out of the
// buffered window (Peek + slice decode + Discard) rather than byte by byte
// through a ByteReader — this runs several times per gate record on the
// decode hot path.
func (s *Scanner) readUvarint(what string) (int, error) {
	// Peek's error only matters when the window is too short to hold the
	// value: a complete varint near EOF decodes fine from a short window.
	// One byte beyond the max varint length lets the decoder distinguish an
	// over-long value (overflow) from a window that simply ran out
	// (truncation).
	p, _ := s.br.Peek(binary.MaxVarintLen64 + 1)
	v, n := binary.Uvarint(p)
	switch {
	case n > 0:
		s.br.Discard(n)
		s.off += int64(n)
		if v > uint64(int(^uint(0)>>1)) {
			return 0, formatErr(s.name, s.off-int64(n), "%s %d overflows", what, v)
		}
		return int(v), nil
	case n < 0:
		return 0, formatErr(s.name, s.off, "reading %s: varint overflows a 64-bit integer", what)
	default:
		return 0, formatErr(s.name, s.off, "reading %s: %v", what, noEOF(io.ErrUnexpectedEOF))
	}
}

func (s *Scanner) readString(what string) (string, error) {
	n, err := s.readUvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", formatErr(s.name, s.off, "%s of %d bytes exceeds the %d cap", what, n, maxNameLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(s.br, b); err != nil {
		return "", formatErr(s.name, s.off, "reading %s: %v", what, noEOF(err))
	}
	s.off += int64(n)
	return string(b), nil
}

// noEOF rewrites io.EOF/ErrUnexpectedEOF as a plain truncation message so
// diagnostics read as "truncated" rather than a misleading clean EOF.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errors.New("truncated input")
	}
	return err
}
