package qcbin

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
	h := sha256.New()
	h.Write([]byte(digestDomain))
	var buf []byte
	for n := 0; ; n++ {
		if n%analysis.CtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return "", err
			}
		}
		if !src.Scan() {
			break
		}
		buf = appendGateRecord(buf[:0], src.Gate())
		h.Write(buf)
	}
	if err := src.Err(); err != nil {
		return "", err
	}
	buf = append(buf[:0], 0)
	buf = binary.AppendUvarint(buf, uint64(src.NumQubits()))
	name := src.Name()
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
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
