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
// pipe. AnalyzeStream reads it once; Rewind serves the consumers that need
// another pass (digest-then-analyze, materialization). NumQubits may grow
// while a pass runs (auto-declared qubits) and is final once a pass has
// consumed the whole stream.
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
	c     *circuit.Circuit
	i     int
	valid bool // c passed Validate: the counting pass may skip per-gate checks
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

// PrevalidatedGates reports whether the circuit was validated up front
// (Analyze does so before streaming it); see PrevalidatedStream.
func (s *CircuitStream) PrevalidatedGates() bool { return s.valid }

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
// this trips a bounds panic in the degree arrays rather than corrupting
// rows silently.
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

// gateRec is one validated gate as the counting pass records it for the
// fill pass: the operands, controls first, with b = -1 for a one-qubit
// gate, and the gate type. 12 bytes against a circuit.Gate's 56 plus its
// operand slices, and the fill pass reads them without touching the source
// again.
type gateRec struct {
	a, b int32
	t    uint8
}

// recordOf packs a validated gate of at most two operands into its record.
func recordOf(g *circuit.Gate) gateRec {
	if len(g.Controls)+len(g.Targets) == 2 {
		a, b := g.QubitPair()
		return gateRec{a: int32(a), b: int32(b), t: uint8(g.Type)}
	}
	return gateRec{a: int32(g.Targets[0]), b: -1, t: uint8(g.Type)}
}

// AnalyzeStream builds both graphs from one read of a gate stream: a
// counting pass (QODG degrees, IIG incidence counts, FT tracking,
// validation) that records every gate as a 12-byte gateRec, then a fill
// pass over the records (nodes, CSR adjacency, IIG incidence). The stream
// is never rewound. QODG nodes carry operand-free gates (Type only, no
// Controls/Targets slices). Peak memory is the analysis product itself
// (nodes + CSR adjacency) plus 12 bytes of records per gate plus one ingest
// chunk: the O(gates) heap of per-gate operand slices a materialized
// []Gate drags along is never allocated. The slab of a stream of unknown
// length grows by doubling, so its capacity reaches up to 24 bytes per
// gate, and about 36 while the last growth copies it.
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

// growChunk is the minimum growth step of the counting pass's degree
// arrays and record slab, which grow with the stream rather than once per
// gate.
const growChunk = 1 << 12

// analyzeStream runs the counting pass over src and the fill pass over its
// records; ctx and ftOnly are AnalyzeStreamContext's. With a nil arena it
// allocates fresh immutable storage; otherwise every buffer is recycled
// arena state.
func analyzeStream(ctx context.Context, src GateStream, ar *Arena, ftOnly bool) (*Analysis, error) {
	var (
		succDeg, predDeg, iigDeg []int32
		recs                     []gateRec
		scan                     *qodg.DepScanner
	)
	if ar != nil {
		succDeg, predDeg, iigDeg, recs = ar.succDeg[:0], ar.predDeg[:0], ar.iigDeg[:0], ar.recs[:0]
		ar.scan.ResetFor(src.NumQubits())
		scan = &ar.scan
	} else {
		scan = qodg.NewDepScanner(src.NumQubits())
	}
	count := func(from, to qodg.NodeID) {
		succDeg[from]++
		predDeg[to]++
	}

	// Counting pass. Degree arrays grow with the stream: when gate i
	// arrives it occupies node i+1 and every edge it emits ends there, so
	// keeping the arrays at least nGates+2 long keeps all emitted indices in
	// range without knowing the gate count up front. They grow in chunks
	// (zeroed tails) and are cut to size after the pass. When the gate count
	// is known (an in-memory circuit), the degree arrays and the record slab
	// are presized to it instead; otherwise the slab doubles too.
	//
	// Each gate meets its checks in a fixed order: the context poll, the
	// stream's own errors (parse, gate cap) as it scans, the FT stop, then
	// arity and validation.
	ft := true
	nGates := 0
	trusted := gatesPrevalidated(src)
	q := src.NumQubits()
	cur := newGateCursor(src)
	if k := len(cur.gates); k > 0 {
		succDeg = growKeep(succDeg, k+3)
		predDeg = growKeep(predDeg, k+3)
		recs = slices.Grow(recs, k)
	}
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
		id := qodg.NodeID(nGates + 1)
		if nGates+2 > len(succDeg) {
			grown := max(2*len(succDeg), nGates+2, growChunk)
			succDeg = growKeep(succDeg, grown)
			predDeg = growKeep(predDeg, grown)
		}
		// A streamed register grows as qubits are auto-declared, and only a
		// gate reaching past the size last read can have grown it.
		if !cur.mem && reaches(g, q) {
			q = src.NumQubits()
			scan.GrowTo(q)
		}
		if !trusted || g.Arity() > 2 {
			if err := validateStreamGate(src, nGates, g, q, trusted); err != nil {
				return nil, err
			}
		}
		r := recordOf(g)
		if r.b >= 0 {
			if q > len(iigDeg) {
				iigDeg = growKeep(iigDeg, max(2*len(iigDeg), q))
			}
			iigDeg[r.a]++
			iigDeg[r.b]++
		}
		scan.VisitPair(id, r.a, r.b, count)
		if len(recs) == cap(recs) {
			recs = slices.Grow(recs, max(len(recs), growChunk))
		}
		recs = append(recs, r)
		nGates++
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	numQ := src.NumQubits()
	n := nGates + 2
	end := qodg.NodeID(n - 1)
	succDeg = growKeep(succDeg, n+1)[:n+1]
	predDeg = growKeep(predDeg, n+1)[:n+1]
	iigDeg = growKeep(iigDeg, numQ+1)[:numQ+1]
	scan.GrowTo(numQ)
	scan.VisitEnd(end, count)

	// Offsets + node array, now that the stream's true size is known.
	var (
		succOff, predOff []int32
		succ, pred       []qodg.NodeID
		iigOff, iigNbr   []int32
		nodes            []qodg.Node
	)
	if ar != nil {
		ar.succDeg, ar.predDeg, ar.iigDeg, ar.recs = succDeg, predDeg, iigDeg, recs
		ar.succOff, ar.succ = csr.OffsetsInto(succDeg, ar.succOff, ar.succ)
		ar.predOff, ar.pred = csr.OffsetsInto(predDeg, ar.predOff, ar.pred)
		ar.iigOff, ar.iigNbr = csr.OffsetsInto(iigDeg, ar.iigOff, ar.iigNbr)
		succOff, succ = ar.succOff, ar.succ
		predOff, pred = ar.predOff, ar.pred
		iigOff, iigNbr = ar.iigOff, ar.iigNbr
		ar.nodes = csr.Grow(ar.nodes, n)
		nodes = ar.nodes
	} else {
		succOff, succ = csr.Offsets[qodg.NodeID](succDeg)
		predOff, pred = csr.Offsets[qodg.NodeID](predDeg)
		iigOff, iigNbr = csr.Offsets[int32](iigDeg)
		nodes = make([]qodg.Node, n)
	}
	nodes[0] = qodg.Node{ID: 0, GateIndex: -1}
	nodes[n-1] = qodg.Node{ID: end, GateIndex: -1}

	// Fill pass over the records, in program order. The counting pass has
	// already fixed the gate count, register size and every row offset.
	scan.ResetFor(numQ)
	fill := func(from, to qodg.NodeID) {
		succ[succDeg[from]] = to
		succDeg[from]++
		pred[predDeg[to]] = from
		predDeg[to]++
	}
	for i, r := range recs {
		id := qodg.NodeID(i + 1)
		nodes[i+1] = qodg.Node{ID: id, Op: qodg.Op{Type: circuit.GateType(r.t)}, GateIndex: i}
		if r.b >= 0 {
			iigNbr[iigDeg[r.a]] = r.b
			iigDeg[r.a]++
			iigNbr[iigDeg[r.b]] = r.a
			iigDeg[r.b]++
		}
		scan.VisitPair(id, r.a, r.b, fill)
	}
	scan.VisitEnd(end, fill)

	if ar != nil {
		qodg.FromCSRInto(&ar.qg, nodes, numQ, succOff, succ, predOff, pred)
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
		QODG:       qodg.FromCSR(nodes, numQ, succOff, succ, predOff, pred),
		IIG:        iig.FromIncidence(numQ, iigOff, iigNbr),
	}, nil
}

// validateStreamGate applies Circuit.Validate's per-gate checks plus the
// analysis-layer arity constraint, with the same error shapes. It also
// shields the CSR cursors from a misbehaving stream: an out-of-range
// operand would otherwise corrupt rows silently. Streams that advertise
// PrevalidatedStream skip the Gate.Validate half — their decoders already
// ran the identical checks per gate — but keep the arity cap, which is an
// analysis-layer constraint, not a gate-validity one.
func validateStreamGate(src GateStream, i int, g *circuit.Gate, numQubits int, trusted bool) error {
	if !trusted {
		if err := g.Validate(numQubits); err != nil {
			return fmt.Errorf("circuit %q: gate %d: %w", src.Name(), i, err)
		}
	}
	if g.Arity() > 2 {
		return fmt.Errorf("analysis: gate %d (%s) touches %d qubits; decompose first",
			i, g.Type, g.Arity())
	}
	return nil
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
