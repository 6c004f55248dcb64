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

// The .qca image, version 1 (all multi-byte integers little-endian u32,
// counts as uvarints):
//
//	magic "\x9dQCA", version byte
//	name string, uvarint qubits Q, uvarint operations G, FT byte
//	G node-type bytes (gate opcodes, nodes 1..G)
//	succOff (n+1)·u32, succ Es·u32      n = G+2, Es = succOff[n]
//	predOff (n+1)·u32, pred Ep·u32
//	lastWriter Q·u32
//	iigOff (Q+1)·u32, iigNbr L·u32, iigWt L·u32   L = iigOff[Q]
//
// That is the complete AnalyzeStream product: decoding is a handful of
// array reads instead of a parse + analysis, and the decoded Analysis is
// estimate-for-estimate identical to a fresh one.

// EncodeImage serializes an Analysis as a .qca image. The Analysis must
// carry both graphs (any Analyze/AnalyzeStream product does); arena-borrowed
// analyses are fine — the image copies everything out.
func EncodeImage(w io.Writer, a *analysis.Analysis) error {
	if a.QODG == nil || a.IIG == nil {
		return formatErr(a.Name, 0, "analysis has no graphs to serialize")
	}
	nodes := a.QODG.Nodes
	n := len(nodes)
	if n != a.Operations+2 {
		return formatErr(a.Name, 0, "QODG has %d nodes for %d operations", n, a.Operations)
	}
	if int64(n) >= math.MaxUint32 {
		return formatErr(a.Name, 0, "%d nodes overflow the u32 image layout", n)
	}
	succOff, succ, predOff, pred := a.QODG.CSR()
	iigOff, iigNbr, iigWt := a.IIG.Rows()

	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(MagicQCA[:])
	bw.WriteByte(Version)
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
	for i := 1; i <= a.Operations; i++ {
		bw.WriteByte(byte(nodes[i].Op.Type))
	}
	writeU32s(bw, succOff)
	writeU32s(bw, succ)
	writeU32s(bw, predOff)
	writeU32s(bw, pred)
	writeU32s(bw, a.LastWriter())
	writeU32s(bw, iigOff)
	writeU32s(bw, iigNbr)
	writeU32s(bw, iigWt)
	return bw.Flush()
}

// writeU32s emits vals as packed little-endian u32, batching through one
// stack chunk so large CSR sections don't pay a bufio call per element.
func writeU32s[T ~int | ~int32](bw *bufio.Writer, vals []T) {
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
	if ver[0] != Version {
		return nil, formatErr(r.name, 4, "unsupported version %d (want %d)", ver[0], Version)
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
	types, err := r.need(ops, "node types")
	if err != nil {
		return nil, err
	}
	for i, b := range types {
		if !validOpcode(b) {
			return nil, formatErr(r.name, int64(r.off-ops+i), "node %d: unknown opcode 0x%02x", i+1, b)
		}
		// The estimator trusts the FT flag: it weighs nodes by an FT-only
		// delay table, so a non-FT node in an FT image would be mis-weighed.
		if ftb[0] == 1 && !circuit.GateType(b).IsFT() {
			return nil, formatErr(r.name, int64(r.off-ops+i), "node %d: non-FT gate %v in an image flagged FT", i+1, circuit.GateType(b))
		}
	}

	n := ops + 2
	succOff, err := r.offsets(n+1, "succOff")
	if err != nil {
		return nil, err
	}
	succ, err := r.nodeIDs(int(succOff[n]), n, "succ")
	if err != nil {
		return nil, err
	}
	predOff, err := r.offsets(n+1, "predOff")
	if err != nil {
		return nil, err
	}
	pred, err := r.nodeIDs(int(predOff[n]), n, "pred")
	if err != nil {
		return nil, err
	}
	lastWriter, err := r.nodeIDs(numQ, n, "lastWriter")
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

	// The sections are internally consistent; rebuild the graphs. Nodes
	// carry operand-free gates, exactly like an AnalyzeStream product.
	nodes := make([]qodg.Node, n)
	nodes[0] = qodg.Node{ID: 0, GateIndex: -1}
	for i := 0; i < ops; i++ {
		nodes[i+1] = qodg.Node{
			ID:        qodg.NodeID(i + 1),
			Op:        qodg.Op{Type: circuit.GateType(types[i])},
			GateIndex: i,
		}
	}
	nodes[n-1] = qodg.Node{ID: qodg.NodeID(n - 1), GateIndex: -1}

	// Predecessor segments were emitted sorted (a Graph invariant), so the
	// sorted assembly path applies — no re-sort on the store-hit hot path.
	g := new(qodg.Graph)
	qodg.FromCSRSortedInto(g, nodes, numQ, succOff, succ, predOff, pred)
	ig, err := iig.FromCSRWeights(numQ, iigOff, iigNbr, iigWt)
	if err != nil {
		return nil, formatErr(r.name, int64(r.off), "%v", err)
	}
	return analysis.Restore(name, numQ, ops, ftb[0] == 1, g, ig, lastWriter), nil
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

// nodeIDs reads count packed u32 node IDs, each range-checked against the
// node count.
func (r *imgReader) nodeIDs(count, numNodes int, what string) ([]qodg.NodeID, error) {
	b, err := r.need(count*4, what)
	if err != nil {
		return nil, err
	}
	out := make([]qodg.NodeID, count)
	for i := range out {
		v := binary.LittleEndian.Uint32(b[i*4:])
		if int64(v) >= int64(numNodes) {
			return nil, formatErr(r.name, int64(r.off), "%s[%d] = %d out of range [0,%d)", what, i, v, numNodes)
		}
		out[i] = qodg.NodeID(v)
	}
	return out, nil
}
