package qcbin

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"

	"repro/internal/analysis"
	"repro/internal/circuit"
)

// DigestPrefix is the scheme tag of a circuit reference ("sha256:<hex>"),
// the spelling the leqad by-reference circuit specs carry.
const DigestPrefix = "sha256:"

// digestDomain seeds the hash so a netlist digest can never collide with
// any other SHA-256 use; the trailing version digit covers future layout
// changes.
const digestDomain = "LEQA-QCD1\n"

// Digest computes the canonical content digest of a gate stream: SHA-256
// over the domain tag, each gate's canonical binary record (the same bytes
// the .qcb encoder emits), a zero terminator (no gate record starts with
// the Invalid opcode), the register size and the circuit name. The digest
// is independent of the container the stream arrived in — textual .qc,
// binary .qcb, gzipped either way — and of qubit display names, which no
// analysis product depends on. Returns the bare hex (no prefix).
//
// The stream is rewound first and left at end of stream; one full pass.
func Digest(src analysis.GateStream) (string, error) {
	return DigestContext(context.Background(), src)
}

// DigestContext is Digest polling ctx the way the analysis's counting pass
// does: before the first gate and then every analysis.CtxCheckEvery gates.
func DigestContext(ctx context.Context, src analysis.GateStream) (string, error) {
	if err := src.Rewind(); err != nil {
		return "", err
	}
	d := newDigester()
	for n := 0; ; n++ {
		if n%analysis.CtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return "", err
			}
		}
		if !src.Scan() {
			break
		}
		d.gate(src.Gate())
	}
	if err := src.Err(); err != nil {
		return "", err
	}
	return d.sum(src.NumQubits(), src.Name()), nil
}

// DigestAnalysis is the Digest of the stream an analysis was built from,
// taken from its node records: the nodes are that stream's gates, in
// order, so hashing each node's gate record, then a.Qubits and a.Name,
// gives Digest's value without reading the stream again. The store keys
// an upload by it after the upload's one analysis pass.
func DigestAnalysis(a *analysis.Analysis) string {
	d := newDigester()
	var ops [2]int
	for _, n := range a.QODG.Nodes[1 : len(a.QODG.Nodes)-1] {
		d.gate(nodeGate(n, &ops))
	}
	return d.sum(a.Qubits, a.Name)
}

// digestChunk is how many record bytes a digester gathers before each hash
// write. Records are a few bytes each, a hash write apiece cost more than
// the hashing, and the hash of the gathered bytes is the same.
const digestChunk = 4 << 10

// digester computes Digest incrementally: the domain tag, then each gate's
// record as it arrives, then the terminator, register size and name.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() digester {
	d := digester{h: sha256.New(), buf: make([]byte, 0, 2*digestChunk)}
	d.buf = append(d.buf, digestDomain...)
	return d
}

// gate appends g's record to the gathered bytes. The record is encoded
// into the buffer's spare room and the buffer re-sliced over it, so no
// pointer is stored per record (a digester may live on the heap, where a
// stored pointer costs a write barrier while the GC marks). A record wider
// than the room left is hashed after the gathered bytes instead.
func (d *digester) gate(g circuit.Gate) {
	n := len(d.buf)
	rec := appendGateRecord(d.buf[n:n], g)
	if len(rec) > cap(d.buf)-n {
		d.h.Write(d.buf)
		d.h.Write(rec)
		d.buf = d.buf[:0]
		return
	}
	d.buf = d.buf[:n+len(rec)]
	if len(d.buf) >= digestChunk {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digester) sum(numQubits int, name string) string {
	d.buf = append(d.buf, 0)
	d.buf = binary.AppendUvarint(d.buf, uint64(numQubits))
	d.buf = binary.AppendUvarint(d.buf, uint64(len(name)))
	d.buf = append(d.buf, name...)
	d.h.Write(d.buf)
	return hex.EncodeToString(d.h.Sum(nil))
}

// DigestCircuit is Digest over a materialized circuit.
func DigestCircuit(c *circuit.Circuit) (string, error) {
	return Digest(analysis.NewCircuitStream(c))
}

// ParseRef validates a "sha256:<64 hex>" circuit reference and returns the
// bare lowercase hex digest.
func ParseRef(ref string) (string, error) {
	hexPart, ok := strings.CutPrefix(ref, DigestPrefix)
	if !ok {
		return "", fmt.Errorf("qcbin: circuit ref %q must start with %q", ref, DigestPrefix)
	}
	if len(hexPart) != sha256.Size*2 {
		return "", fmt.Errorf("qcbin: circuit ref digest has %d hex chars, want %d", len(hexPart), sha256.Size*2)
	}
	hexPart = strings.ToLower(hexPart)
	if _, err := hex.DecodeString(hexPart); err != nil {
		return "", fmt.Errorf("qcbin: circuit ref %q: not hex", ref)
	}
	return hexPart, nil
}

// FormatRef renders a bare hex digest as a "sha256:<hex>" reference.
func FormatRef(digest string) string { return DigestPrefix + digest }
