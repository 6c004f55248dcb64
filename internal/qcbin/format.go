// Package qcbin implements LEQA's compact binary netlist format (.qcb),
// the one binary container of the repository: upload bodies, converted
// netlists and the analysis store's disk images are all .qcb.
//
// A .qcb file is the wire form of a gate stream: a fixed magic, a register
// table (circuit and qubit names), then one varint-packed record per gate —
// opcode byte plus uvarint operands — until end of file. The format is
// append-friendly (no trailing gate count) and typically 5–10× smaller than
// the textual .qc it encodes, with a decoder that does no per-gate
// allocation and no text tokenization at all.
//
// The analysis store keeps each analysis as the .qcb netlist of its gate
// records (EncodeAnalysis): the records are the QODG, and the IIG is a
// function of them. The records also fix the netlist's digest, so a
// stream's digest comes from its analysis (DigestAnalysis): an upload is
// analyzed in its one pass and keyed by the hash of the records, and a
// disk hit rebuilds the analysis the same way and checks that digest
// against the one the file is named after. Digest and DigestContext hash
// a stream directly, for netlists no analysis accepts (gates wider than
// two qubits).
//
// The format begins with a non-ASCII magic byte, so it can never be
// confused with a textual .qc netlist; gzip wrapping is detected the same
// way (RFC 1952 magic) and handled transparently by the read paths.
package qcbin

import (
	"encoding/binary"
	"fmt"

	"repro/internal/circuit"
)

// File magics. The leading 0x9D byte is outside ASCII, so no textual .qc
// netlist can begin with the .qcb magic.
var (
	// MagicQCB opens a binary netlist file.
	MagicQCB = [4]byte{0x9D, 'Q', 'C', 'B'}
	// MagicGzip is the RFC 1952 member header prefix.
	MagicGzip = [2]byte{0x1f, 0x8b}
)

// Version is the current revision of the .qcb netlist layout.
const Version = 1

// maxNameLen caps any length-prefixed name field, so a corrupted or
// adversarial header cannot demand an absurd allocation.
const maxNameLen = 1 << 20

// appendGateRecord appends one valid gate's canonical binary record: the
// opcode byte (the circuit.GateType value itself), a uvarint control count
// for the multi-control shapes, then every operand (controls first) as a
// uvarint. The same bytes feed the .qcb encoder and the content digest, so
// the digest of a netlist is independent of which textual or binary
// container it arrived in.
func appendGateRecord(buf []byte, g circuit.Gate) []byte {
	buf = append(buf, byte(g.Type))
	if s, _ := g.Type.Shape(); s.MinControls > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(g.Controls)))
	}
	for _, q := range g.Controls {
		buf = binary.AppendUvarint(buf, uint64(q))
	}
	for _, q := range g.Targets {
		buf = binary.AppendUvarint(buf, uint64(q))
	}
	return buf
}

// FormatError reports a malformed binary input with its byte offset; the
// decoder's answer to circuit.SyntaxError.
type FormatError struct {
	Name   string // netlist label
	Offset int64  // byte offset of the failure within the container
	Msg    string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("qcbin: %s: offset %d: %s", e.Name, e.Offset, e.Msg)
}

func formatErr(name string, off int64, format string, args ...any) error {
	return &FormatError{Name: name, Offset: off, Msg: fmt.Sprintf(format, args...)}
}
