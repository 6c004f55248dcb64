package analysis

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/csr"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// GateStream is the reader-driven gate source AnalyzeStream consumes: a
// stream of validated gates, typically an ingest.Scanner over a .qc file or
// pipe. AnalyzeStream reads it once, and the analysis store takes its
// digest from the analysis; Rewind serves the consumers that need another
// pass (materialization, encoders). NumQubits may grow while a pass runs
// (auto-declared qubits) and is final once a pass has consumed the whole
// stream.
type GateStream interface {
	// Scan advances to the next gate; false at end of stream or error.
	Scan() bool
	// Gate returns the current gate. It may alias scanner-internal storage
	// valid only until the next Scan — AnalyzeStream never retains it.
	Gate() circuit.Gate
	// Err reports the terminal failure, nil at clean end of stream.
	Err() error
	// Rewind restarts the stream for another pass.
	Rewind() error
	// NumQubits reports the register size seen so far.
	NumQubits() int
	// Name labels the circuit.
	Name() string
}

// CircuitStream adapts a materialized circuit into a GateStream — the
// form in which Analyze feeds in-memory circuits to the one builder, and in
// which mixed batches (some circuits in memory, some on disk) share one
// streaming engine.
type CircuitStream struct {
	c *circuit.Circuit
	i int
}

// NewCircuitStream returns a stream over c's gate list.
func NewCircuitStream(c *circuit.Circuit) *CircuitStream {
	return &CircuitStream{c: c, i: -1}
}

func (s *CircuitStream) Scan() bool {
	if s.i+1 >= len(s.c.Gates) {
		return false
	}
	s.i++
	return true
}

func (s *CircuitStream) Gate() circuit.Gate { return s.c.Gates[s.i] }
func (s *CircuitStream) Err() error         { return nil }
func (s *CircuitStream) Rewind() error      { s.i = -1; return nil }
func (s *CircuitStream) NumQubits() int     { return s.c.NumQubits() }
func (s *CircuitStream) Name() string       { return s.c.Name }

// Register exposes the backing circuit's qubit register — the same optional
// capability ingest.Scanner offers, letting encoders recover real qubit
// names from a materialized stream.
func (s *CircuitStream) Register() *circuit.Circuit { return s.c }

// gateCursor reads one pass of a stream's gates. An in-memory circuit is
// read straight from its gate slice: the two interface calls per gate a
// stream costs made analyzing a materialized circuit about a quarter
// slower.
type gateCursor struct {
	src   GateStream
	mem   bool
	gates []circuit.Gate // the in-memory gates when mem
	i     int
	cur   circuit.Gate // the streamed gate when !mem
}

func newGateCursor(src GateStream) gateCursor {
	if s, ok := src.(*CircuitStream); ok {
		return gateCursor{src: src, mem: true, gates: s.c.Gates}
	}
	return gateCursor{src: src}
}

// next returns the pass's next gate, nil at its end. The gate is valid
// until the following call. Small enough to inline, so an in-memory gate
// costs no call at all.
func (c *gateCursor) next() *circuit.Gate {
	if c.i < len(c.gates) {
		c.i++
		return &c.gates[c.i-1]
	}
	return c.scan()
}

func (c *gateCursor) scan() *circuit.Gate {
	if c.mem || !c.src.Scan() {
		return nil
	}
	c.cur = c.src.Gate()
	return &c.cur
}

// PrevalidatedStream is an optional GateStream capability: a stream whose
// Scan contract guarantees that every yielded gate already passes
// circuit.Gate.Validate against the stream's register. The ingest text
// scanner (its line parser checks each statement as it is parsed) and
// the qcbin binary decoder (decode-time opcode, shape, range and
// distinctness checks) both qualify, so the counting pass skips the
// redundant per-gate re-validation — a meaningful share of the build on
// pre-parsed containers. The two-qubit arity cap is still enforced for
// every stream, and an out-of-range operand from a stream that lies about
// this trips a bounds panic in the IIG degree array or the sweep's
// last-writer array rather than corrupting rows silently.
type PrevalidatedStream interface {
	// PrevalidatedGates reports whether every gate the stream yields is
	// already validated against the stream's register.
	PrevalidatedGates() bool
}

// gatesPrevalidated reports whether src opts out of per-gate re-validation.
func gatesPrevalidated(src GateStream) bool {
	p, ok := src.(PrevalidatedStream)
	return ok && p.PrevalidatedGates()
}

// nodeOf packs a validated gate of at most two operands into its QODG
// node: the gate type and the operands, controls first, with B = -1 for a
// one-qubit gate. 16 bytes against a circuit.Gate's 56 plus its operand
// slices.
func nodeOf(g *circuit.Gate) qodg.Node {
	if len(g.Controls)+len(g.Targets) == 2 {
		a, b := g.QubitPair()
		return qodg.Node{Op: qodg.Op{Type: g.Type}, A: int32(a), B: int32(b)}
	}
	return qodg.Node{Op: qodg.Op{Type: g.Type}, A: int32(g.Targets[0]), B: -1}
}

// AnalyzeStream builds both graphs from one read of a gate stream: a
// counting pass (IIG incidence counts, FT tracking, validation) that
// appends every gate's 16-byte node to the QODG, then a fill pass over
// those nodes that fills the IIG. The stream is never rewound. Peak memory
// is the analysis product itself (nodes + IIG) plus one ingest chunk: the
// O(gates) heap of per-gate operand slices a materialized []Gate drags
// along is never allocated. The node slab of a stream of unknown length
// grows by doubling, up to 32 bytes per gate and about 48 while the last
// growth copies it; the returned analysis keeps an exact-size copy.
func AnalyzeStream(src GateStream) (*Analysis, error) {
	return analyzeStream(context.Background(), src, nil, false)
}

// AnalyzeStream is the arena-backed streamed analysis: same contract as
// AnalyzeStream, every buffer drawn from ar. The returned Analysis is
// borrowed until ar's next use, exactly like (*Arena).Analyze.
func (ar *Arena) AnalyzeStream(src GateStream) (*Analysis, error) {
	return analyzeStream(context.Background(), src, ar, false)
}

// AnalyzeStreamContext is AnalyzeStream, into ar when it is non-nil, with
// two checks in its counting pass. It polls ctx before the first gate and
// then every CtxCheckEvery gates, and fails with ctx's error once ctx is
// done. With ftOnly, the first gate outside the fault-tolerant set stops
// the pass with a *NonFTError naming it, before the gate's arity or
// validity is checked: a Toffoli is non-FT, not an over-wide gate.
func AnalyzeStreamContext(ctx context.Context, src GateStream, ar *Arena, ftOnly bool) (*Analysis, error) {
	return analyzeStream(ctx, src, ar, ftOnly)
}

// CtxCheckEvery is the gate interval at which the streaming passes poll
// their context: rare enough that the poll never shows on the hot path.
const CtxCheckEvery = 4096

// NonFTError reports a circuit (or gate stream) containing gates outside
// the fault-tolerant set. Its message names the circuit and the remedy;
// callers that want to react (the service's decompose fallback) detect it
// with errors.As.
type NonFTError struct {
	// Circuit names the offending netlist.
	Circuit string
	// Gate is the index of the first non-FT gate when known (streaming
	// detection), -1 otherwise.
	Gate int
	// Type is the offending gate type when known (circuit.Invalid
	// otherwise).
	Type circuit.GateType
}

func (e *NonFTError) Error() string {
	return fmt.Sprintf("leqa: circuit %q contains non-FT gates; run decompose.ToFT first", e.Circuit)
}

// growChunk is the minimum growth step of the counting pass's node slab,
// which grows with the stream rather than once per gate.
const growChunk = 1 << 12

// analyzeStream runs the counting pass over src and the fill pass over its
// nodes; ctx and ftOnly are AnalyzeStreamContext's. With a nil arena it
// allocates fresh immutable storage; otherwise every buffer is recycled
// arena state.
func analyzeStream(ctx context.Context, src GateStream, ar *Arena, ftOnly bool) (*Analysis, error) {
	var (
		nodes  []qodg.Node
		iigDeg []int32
	)
	if ar != nil {
		nodes, iigDeg = ar.nodes[:0], ar.iigDeg[:0]
	}

	// Counting pass: the start node, one node per gate, then the end node.
	// When the gate count is known (an in-memory circuit), the slab is
	// presized to it; otherwise it doubles as the stream grows.
	//
	// Each gate meets its checks in a fixed order: the context poll, the
	// stream's own errors (parse, gate cap) as it scans, the FT stop, then
	// validation and the arity cap.
	ft := true
	nGates := 0
	trusted := gatesPrevalidated(src)
	q := src.NumQubits()
	cur := newGateCursor(src)
	nodes = slices.Grow(nodes, len(cur.gates)+2)
	nodes = append(nodes, qodg.Node{})
	for {
		if nGates%CtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		g := cur.next()
		if g == nil {
			break
		}
		if !g.Type.IsFT() {
			if ftOnly {
				return nil, &NonFTError{Circuit: src.Name(), Gate: nGates, Type: g.Type}
			}
			ft = false
		}
		// A streamed register grows as qubits are auto-declared, and only a
		// gate reaching past the size last read can have grown it.
		if !cur.mem && reaches(g, q) {
			q = src.NumQubits()
		}
		// Circuit.Validate's per-gate checks, with its error shape. They
		// also shield the IIG cursors and the QODG's nodes from a
		// misbehaving stream, whose out-of-range operand would otherwise
		// corrupt rows silently. A PrevalidatedStream's decoder has run
		// them already; the arity cap is the analysis layer's own.
		if !trusted {
			if err := g.Validate(q); err != nil {
				return nil, fmt.Errorf("circuit %q: gate %d: %w", src.Name(), nGates, err)
			}
		}
		if g.Arity() > 2 {
			return nil, fmt.Errorf("analysis: gate %d (%s) touches %d qubits; decompose first",
				nGates, g.Type, g.Arity())
		}
		n := nodeOf(g)
		if n.B >= 0 {
			if q > len(iigDeg) {
				iigDeg = growKeep(iigDeg, max(2*len(iigDeg), q))
			}
			iigDeg[n.A]++
			iigDeg[n.B]++
		}
		if len(nodes) == cap(nodes) {
			nodes = slices.Grow(nodes, max(len(nodes), growChunk))
		}
		nodes = append(nodes, n)
		nGates++
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	numQ := src.NumQubits()
	nodes = append(nodes, qodg.Node{})
	iigDeg = growKeep(iigDeg, numQ+1)[:numQ+1]

	// IIG offsets, now that the stream's true size is known.
	var iigOff, iigNbr []int32
	if ar != nil {
		ar.nodes, ar.iigDeg = nodes, iigDeg
		ar.peak = max(ar.peak, len(nodes))
		ar.iigOff, ar.iigNbr = csr.OffsetsInto(iigDeg, ar.iigOff, ar.iigNbr)
		iigOff, iigNbr = ar.iigOff, ar.iigNbr
	} else {
		iigOff, iigNbr = csr.Offsets[int32](iigDeg)
		if !cur.mem {
			// A streamed slab grew by doubling, and a store may keep this
			// analysis for long: keep an exact-size copy instead.
			nodes = append(make([]qodg.Node, 0, len(nodes)), nodes...)
		}
	}

	// Fill pass over the two-qubit gates' nodes, in program order. The
	// counting pass has already fixed the register size and every row
	// offset.
	for _, n := range nodes[1 : len(nodes)-1] {
		if n.B >= 0 {
			iigNbr[iigDeg[n.A]] = n.B
			iigDeg[n.A]++
			iigNbr[iigDeg[n.B]] = n.A
			iigDeg[n.B]++
		}
	}

	if ar != nil {
		ar.qg = qodg.Graph{Nodes: nodes, NumQubits: numQ}
		ar.a = Analysis{
			Name:       src.Name(),
			Qubits:     numQ,
			Operations: nGates,
			FT:         ft,
			QODG:       &ar.qg,
			IIG:        iig.FromIncidenceScratch(numQ, iigOff, iigNbr, &ar.igs),
		}
		return &ar.a, nil
	}
	return &Analysis{
		Name:       src.Name(),
		Qubits:     numQ,
		Operations: nGates,
		FT:         ft,
		QODG:       &qodg.Graph{Nodes: nodes, NumQubits: numQ},
		IIG:        iig.FromIncidence(numQ, iigOff, iigNbr),
	}, nil
}

// reaches reports whether an operand of g is at or past q.
func reaches(g *circuit.Gate, q int) bool {
	for _, x := range g.Controls {
		if x >= q {
			return true
		}
	}
	for _, x := range g.Targets {
		if x >= q {
			return true
		}
	}
	return false
}

// growKeep extends buf to length n, preserving existing contents and
// zeroing the new tail, so counts accumulated mid-pass survive.
func growKeep(buf []int32, n int) []int32 {
	if n <= len(buf) {
		return buf
	}
	old := len(buf)
	if n <= cap(buf) {
		buf = buf[:n]
	} else {
		grown := make([]int32, n, max(2*cap(buf), n))
		copy(grown, buf[:old])
		buf = grown
	}
	clear(buf[old:])
	return buf
}
