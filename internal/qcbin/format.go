// Package qcbin implements LEQA's compact binary netlist format (.qcb) and
// the serialized Analysis image (.qca) behind the content-addressed circuit
// store.
//
// A .qcb file is the wire form of a gate stream: a fixed magic, a register
// table (circuit and qubit names), then one varint-packed record per gate —
// opcode byte plus uvarint operands — until end of file. The format is
// append-friendly (no trailing gate count) and typically 5–10× smaller than
// the textual .qc it encodes, with a decoder that does no per-gate
// allocation and no text tokenization at all.
//
// A .qca image is a decoded circuit's complete analysis product: the
// metadata header, one .qcb-style gate record per QODG node (the records
// are the QODG: every dependency edge follows from the operands) and the
// IIG's collapsed CSR rows as raw little-endian arrays — everything
// analysis.AnalyzeStream computes, so a store hit is one record scan
// rather than a re-parse + re-analyze.
//
// Both formats begin with a non-ASCII magic byte, so they can never be
// confused with a textual .qc netlist; gzip wrapping is detected the same
// way (RFC 1952 magic) and handled transparently by the read paths.
package qcbin

import (
	"encoding/binary"
	"fmt"

	"repro/internal/circuit"
)

// File magics. The leading 0x9D byte is outside ASCII, so no textual .qc
// netlist can begin with either sequence.
var (
	// MagicQCB opens a binary netlist file.
	MagicQCB = [4]byte{0x9D, 'Q', 'C', 'B'}
	// MagicQCA opens a serialized Analysis image.
	MagicQCA = [4]byte{0x9D, 'Q', 'C', 'A'}
	// MagicGzip is the RFC 1952 member header prefix.
	MagicGzip = [2]byte{0x1f, 0x8b}
)

// Version is the current revision of the .qcb netlist layout.
const Version = 1

// ImageVersion is the current revision of the .qca image layout. Version 2
// dropped version 1's per-qubit last-writer section; version 3 replaced
// version 2's node types and QODG CSR sections with one gate record per
// node. An image of an earlier version fails DecodeImage's version check
// rather than being misread.
const ImageVersion = 3

// maxNameLen caps any length-prefixed name field, so a corrupted or
// adversarial header cannot demand an absurd allocation.
const maxNameLen = 1 << 20

// gateShape describes one opcode's operand record: an exact control and
// target count, or (for the multi-control gates) a leading uvarint control
// count with a minimum.
type gateShape struct {
	controls, targets int
	minControls       int // >0: record carries "uvarint k, k controls"
}

// shapes mirrors circuit.Gate.Validate's arity table; the opcode byte is
// the circuit.GateType value itself.
var shapes = [...]gateShape{
	circuit.X:       {controls: 0, targets: 1},
	circuit.Y:       {controls: 0, targets: 1},
	circuit.Z:       {controls: 0, targets: 1},
	circuit.H:       {controls: 0, targets: 1},
	circuit.S:       {controls: 0, targets: 1},
	circuit.Sdg:     {controls: 0, targets: 1},
	circuit.T:       {controls: 0, targets: 1},
	circuit.Tdg:     {controls: 0, targets: 1},
	circuit.CNOT:    {controls: 1, targets: 1},
	circuit.Toffoli: {controls: 2, targets: 1},
	circuit.Fredkin: {controls: 1, targets: 2},
	circuit.MCT:     {targets: 1, minControls: 3},
	circuit.MCF:     {targets: 2, minControls: 2},
	circuit.Swap:    {controls: 0, targets: 2},
}

// validOpcode reports whether b is a known gate opcode.
func validOpcode(b byte) bool {
	return int(b) >= int(circuit.X) && int(b) < len(shapes)
}

// appendGateRecord appends one gate's canonical binary record: the opcode
// byte, a uvarint control count for the multi-control shapes, then every
// operand (controls first) as a uvarint. The same bytes feed the .qcb
// encoder and the content digest, so the digest of a netlist is
// independent of which textual or binary container it arrived in.
func appendGateRecord(buf []byte, g circuit.Gate) []byte {
	buf = append(buf, byte(g.Type))
	if s := shapes[g.Type]; s.minControls > 0 {
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
	Name   string // netlist or image label
	Offset int64  // byte offset of the failure within the container
	Msg    string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("qcbin: %s: offset %d: %s", e.Name, e.Offset, e.Msg)
}

func formatErr(name string, off int64, format string, args ...any) error {
	return &FormatError{Name: name, Offset: off, Msg: fmt.Sprintf(format, args...)}
}
