package qcbin

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// The .qca image, version 3 (counts as uvarints, multi-byte integers
// little-endian u32):
//
//	magic "\x9dQCA", version byte
//	name string, uvarint qubits Q, uvarint operations G, FT byte
//	G gate records: opcode byte, then one or two uvarint operands,
//	  controls first — a .qcb gate record of a one- or two-qubit gate
//	iigOff (Q+1)·u32, iigNbr L·u32, iigWt L·u32   L = iigOff[Q]
//
// That is the complete AnalyzeStream product: the gate records are the
// QODG's nodes, so decoding is one record scan plus a handful of array
// reads instead of a parse + analysis, and the decoded Analysis is
// estimate-for-estimate identical to a fresh one. A record names only
// qubits, never nodes, so no image can encode a forward edge or a cycle.

// EncodeImage serializes an Analysis as a .qca image. The Analysis must
// carry both graphs (any Analyze/AnalyzeStream product does); arena-borrowed
// analyses are fine — the image copies everything out.
func EncodeImage(w io.Writer, a *analysis.Analysis) error {
	if a.QODG == nil || a.IIG == nil {
		return formatErr(a.Name, 0, "analysis has no graphs to serialize")
	}
	nodes := a.QODG.Nodes
	if len(nodes) != a.Operations+2 {
		return formatErr(a.Name, 0, "QODG has %d nodes for %d operations", len(nodes), a.Operations)
	}
	iigOff, iigNbr, iigWt := a.IIG.Rows()

	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(MagicQCA[:])
	bw.WriteByte(ImageVersion)
	writeString(bw, a.Name)
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(a.Qubits))
	hdr = binary.AppendUvarint(hdr, uint64(a.Operations))
	ft := byte(0)
	if a.FT {
		ft = 1
	}
	hdr = append(hdr, ft)
	bw.Write(hdr)
	var rec []byte
	for v := 1; v <= a.Operations; v++ {
		n := nodes[v]
		rec = append(rec[:0], byte(n.Op.Type))
		rec = binary.AppendUvarint(rec, uint64(n.A))
		if n.B >= 0 {
			rec = binary.AppendUvarint(rec, uint64(n.B))
		}
		bw.Write(rec)
	}
	writeU32s(bw, iigOff)
	writeU32s(bw, iigNbr)
	writeU32s(bw, iigWt)
	return bw.Flush()
}

// writeU32s emits vals as packed little-endian u32, batching through one
// stack chunk so large CSR sections don't pay a bufio call per element.
func writeU32s(bw *bufio.Writer, vals []int32) {
	var chunk [4096]byte
	for len(vals) > 0 {
		n := min(len(vals), len(chunk)/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(chunk[i*4:], uint32(vals[i]))
		}
		bw.Write(chunk[:n*4])
		vals = vals[n:]
	}
}

// DecodeImage reassembles an Analysis from a .qca image, transparently
// inflating a gzip-wrapped one. fallbackName labels diagnostics (and the
// Analysis) when the image header carries an empty name. Every section
// length is validated against the bytes actually present before anything
// is allocated, and every node/qubit index is range-checked, so a
// truncated or corrupted image yields a FormatError, never a panic.
func DecodeImage(data []byte, fallbackName string) (*analysis.Analysis, error) {
	if len(data) >= 2 && data[0] == MagicGzip[0] && data[1] == MagicGzip[1] {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, formatErr(fallbackName, 0, "gzip: %v", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, formatErr(fallbackName, 0, "gzip: %v", err)
		}
		if err := zr.Close(); err != nil {
			return nil, formatErr(fallbackName, 0, "gzip: %v", err)
		}
	}
	r := &imgReader{name: fallbackName, data: data}
	magic, err := r.need(4, "magic")
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != MagicQCA {
		return nil, formatErr(r.name, 0, "bad magic % x; not a .qca image", magic)
	}
	ver, err := r.need(1, "version")
	if err != nil {
		return nil, err
	}
	if ver[0] != ImageVersion {
		return nil, formatErr(r.name, 4, "unsupported version %d (want %d)", ver[0], ImageVersion)
	}
	name, err := r.string("image name")
	if err != nil {
		return nil, err
	}
	if name != "" {
		r.name = name
	} else {
		name = fallbackName
	}
	numQ, err := r.uvarint("qubit count")
	if err != nil {
		return nil, err
	}
	if numQ > maxRegister {
		return nil, formatErr(r.name, int64(r.off), "register of %d qubits exceeds the %d cap", numQ, maxRegister)
	}
	ops, err := r.uvarint("operation count")
	if err != nil {
		return nil, err
	}
	ftb, err := r.need(1, "FT flag")
	if err != nil {
		return nil, err
	}
	if ftb[0] > 1 {
		return nil, formatErr(r.name, int64(r.off-1), "FT flag %d is not boolean", ftb[0])
	}
	nodes, err := r.records(ops, numQ, ftb[0] == 1)
	if err != nil {
		return nil, err
	}
	iigOff, err := r.offsets(numQ+1, "iigOff")
	if err != nil {
		return nil, err
	}
	iigNbr, err := r.int32s(int(iigOff[numQ]), "iigNbr")
	if err != nil {
		return nil, err
	}
	iigWt, err := r.int32s(len(iigNbr), "iigWt")
	if err != nil {
		return nil, err
	}
	if r.off != len(r.data) {
		return nil, formatErr(r.name, int64(r.off), "%d trailing bytes after image", len(r.data)-r.off)
	}

	// The sections are internally consistent; rebuild the graphs.
	g := &qodg.Graph{Nodes: nodes, NumQubits: numQ}
	ig, err := iig.FromCSRWeights(numQ, iigOff, iigNbr, iigWt)
	if err != nil {
		return nil, formatErr(r.name, int64(r.off), "%v", err)
	}
	return &analysis.Analysis{Name: name, Qubits: numQ, Operations: ops, FT: ftb[0] == 1, QODG: g, IIG: ig}, nil
}

// imgReader cursors over an in-memory .qca image with bounds checking.
type imgReader struct {
	name string
	data []byte
	off  int
}

func (r *imgReader) need(n int, what string) ([]byte, error) {
	if n < 0 || len(r.data)-r.off < n {
		return nil, formatErr(r.name, int64(r.off), "truncated image: %s needs %d bytes, %d left",
			what, n, len(r.data)-r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *imgReader) uvarint(what string) (int, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, formatErr(r.name, int64(r.off), "reading %s: truncated or oversized varint", what)
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, formatErr(r.name, int64(r.off), "%s %d overflows", what, v)
	}
	r.off += n
	return int(v), nil
}

func (r *imgReader) string(what string) (string, error) {
	n, err := r.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", formatErr(r.name, int64(r.off), "%s of %d bytes exceeds the %d cap", what, n, maxNameLen)
	}
	b, err := r.need(n, what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// int32s reads count packed u32 values, requiring each to fit int32.
func (r *imgReader) int32s(count int, what string) ([]int32, error) {
	b, err := r.need(count*4, what)
	if err != nil {
		return nil, err
	}
	out := make([]int32, count)
	for i := range out {
		v := binary.LittleEndian.Uint32(b[i*4:])
		if v > math.MaxInt32 {
			return nil, formatErr(r.name, int64(r.off), "%s[%d] = %d overflows int32", what, i, v)
		}
		out[i] = int32(v)
	}
	return out, nil
}

// offsets reads a CSR offset row and checks it starts at zero and is
// non-decreasing.
func (r *imgReader) offsets(count int, what string) ([]int32, error) {
	off, err := r.int32s(count, what)
	if err != nil {
		return nil, err
	}
	if off[0] != 0 {
		return nil, formatErr(r.name, int64(r.off), "%s[0] = %d, want 0", what, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return nil, formatErr(r.name, int64(r.off), "%s[%d] = %d decreases from %d", what, i, off[i], off[i-1])
		}
	}
	return off, nil
}

// records reads ops gate records into a QODG node slab between the start
// and end anchors. Each record needs a known opcode of one or two operands,
// every operand below numQ, two distinct operands, and an FT gate when ft
// is set: the estimator weighs an FT analysis's nodes from an FT-only delay
// table, so a non-FT node would be mis-weighed.
func (r *imgReader) records(ops, numQ int, ft bool) ([]qodg.Node, error) {
	// A record takes at least two bytes; check the count against the bytes
	// present before allocating the slab.
	if left := len(r.data) - r.off; ops > left/2 {
		return nil, formatErr(r.name, int64(r.off), "truncated image: %d gate records need at least %d bytes, %d left",
			ops, 2*ops, left)
	}
	nodes := make([]qodg.Node, ops+2)
	for v := 1; v <= ops; v++ {
		at := int64(r.off)
		op, err := r.need(1, "gate record")
		if err != nil {
			return nil, err
		}
		t := circuit.GateType(op[0])
		if !validOpcode(op[0]) {
			return nil, formatErr(r.name, at, "node %d: unknown opcode 0x%02x", v, op[0])
		}
		sh := shapes[t]
		arity := sh.controls + sh.targets
		if sh.minControls > 0 || arity > 2 {
			return nil, formatErr(r.name, at, "node %d: %v gate takes more than two operands", v, t)
		}
		if ft && !t.IsFT() {
			return nil, formatErr(r.name, at, "node %d: non-FT gate %v in an image flagged FT", v, t)
		}
		n := qodg.Node{Op: qodg.Op{Type: t}, B: -1}
		for i := 0; i < arity; i++ {
			q, err := r.uvarint("gate operand")
			if err != nil {
				return nil, err
			}
			if q >= numQ {
				return nil, formatErr(r.name, at, "node %d: %v operand qubit %d out of range [0,%d)", v, t, q, numQ)
			}
			if i == 0 {
				n.A = int32(q)
			} else if n.B = int32(q); n.B == n.A {
				return nil, formatErr(r.name, at, "node %d: %v operands are both qubit %d", v, t, q)
			}
		}
		nodes[v] = n
	}
	return nodes, nil
}
