package analysis

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/csr"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// Appender extends an analyzed circuit with an append-only gate suffix and
// re-derives the Analysis without re-analyzing the prefix — the interactive
// sizing loop's primitive: analyze once, then append a few gates and
// re-estimate as often as the design iterates.
//
// The appender detaches everything it needs from the seed Analysis (safe
// even when the seed is arena-borrowed): the node array and both CSR
// adjacency halves with the end anchor's edges stripped, the collapsed IIG,
// and the dependency scan's final per-qubit last-writer state. Append then
// continues the very same dependency scan the analysis pass ran — not a
// replay — so a Snapshot is exactly the Analysis a from-scratch pass over
// the concatenated gate stream would build: identical node IDs, identical
// CSR contents, and therefore bitwise-identical estimates. Snapshot itself
// is one merge pass (memcpy-dominated) with no re-parse, no re-validation
// and no dependency re-scan of the prefix.
//
// The register is fixed at the seed's size; appended gates must address
// existing qubits. Not safe for concurrent use. Snapshots are independent
// immutable analyses: appending more gates never mutates one.
type Appender struct {
	name      string
	qubits    int
	baseGates int
	nGates    int
	ft        bool

	// Seed topology, end edges stripped. Rows cover nodes 0..baseGates.
	nodes            []qodg.Node
	succOff, predOff []int32
	succ, pred       []qodg.NodeID
	baseIIG          *iig.Graph

	scan *qodg.DepScanner // resumed last-writer state

	// Suffix accumulators.
	types    []circuit.GateType
	extra    []qodg.NodeID // flat (from, to) dependency edges, emission order
	iigPairs []int32       // flat (a, b) two-qubit interactions
}

// NewAppender seeds an appender from an existing analysis. The analysis
// must come from this package's builders (Analyze, AnalyzeStream or an
// earlier Snapshot), which record the dependency scan state a continuation
// needs.
func NewAppender(a *Analysis) (*Appender, error) {
	if a.QODG == nil || a.lastWriter == nil {
		return nil, fmt.Errorf("analysis: appender seed %q was not built by Analyze/AnalyzeStream", a.Name)
	}
	g := a.QODG
	oldN := g.NumNodes()
	baseGates := oldN - 2
	oldEnd := g.End()
	ap := &Appender{
		name:      a.Name,
		qubits:    a.Qubits,
		baseGates: baseGates,
		nGates:    baseGates,
		ft:        a.FT,
		baseIIG:   iig.Extend(a.IIG, nil), // deep copy: detach from arena storage
		scan:      qodg.NewDepScannerAt(a.lastWriter),
	}
	ap.nodes = make([]qodg.Node, baseGates+1)
	copy(ap.nodes, g.Nodes[:baseGates+1])

	// Strip the end anchor's edges while copying the CSR halves: the end
	// node moves with every append, and its edges are regenerated from the
	// live last-writer state at snapshot time. Successor rows are sorted
	// ascending and the end ID is the maximum, so stripping drops at most
	// one trailing entry per row; predecessor rows of real nodes never
	// contain the end.
	ap.succOff = make([]int32, baseGates+2)
	ap.predOff = make([]int32, baseGates+2)
	nSucc, nPred := 0, 0
	for u := 0; u <= baseGates; u++ {
		row := g.Succ(qodg.NodeID(u))
		if k := len(row); k > 0 && row[k-1] == oldEnd {
			row = row[:k-1]
		}
		nSucc += len(row)
		nPred += len(g.Pred(qodg.NodeID(u)))
	}
	ap.succ = make([]qodg.NodeID, 0, nSucc)
	ap.pred = make([]qodg.NodeID, 0, nPred)
	for u := 0; u <= baseGates; u++ {
		ap.succOff[u] = int32(len(ap.succ))
		ap.predOff[u] = int32(len(ap.pred))
		row := g.Succ(qodg.NodeID(u))
		if k := len(row); k > 0 && row[k-1] == oldEnd {
			row = row[:k-1]
		}
		ap.succ = append(ap.succ, row...)
		ap.pred = append(ap.pred, g.Pred(qodg.NodeID(u))...)
	}
	ap.succOff[baseGates+1] = int32(len(ap.succ))
	ap.predOff[baseGates+1] = int32(len(ap.pred))
	return ap, nil
}

// NumGates reports the total gate count including the appended suffix.
func (ap *Appender) NumGates() int { return ap.nGates }

// NumQubits reports the fixed register size.
func (ap *Appender) NumQubits() int { return ap.qubits }

// Append validates and absorbs gates at the end of the circuit. Each gate
// runs the same checks the analysis pass applies (shape, operand range,
// arity ≤ 2); a failed gate is rejected without absorbing it, leaving the
// appender usable.
func (ap *Appender) Append(gs ...circuit.Gate) error {
	for _, g := range gs {
		if err := g.Validate(ap.qubits); err != nil {
			return fmt.Errorf("circuit %q: gate %d: %w", ap.name, ap.nGates, err)
		}
		if g.Arity() > 2 {
			return fmt.Errorf("analysis: gate %d (%s) touches %d qubits; decompose first",
				ap.nGates, g.Type, g.Arity())
		}
		id := qodg.NodeID(ap.nGates + 1)
		r := recordOf(&g)
		ap.scan.VisitPair(id, r.a, r.b, func(from, to qodg.NodeID) {
			ap.extra = append(ap.extra, from, to)
		})
		if r.b >= 0 {
			ap.iigPairs = append(ap.iigPairs, r.a, r.b)
		}
		ap.types = append(ap.types, g.Type)
		ap.ft = ap.ft && g.Type.IsFT()
		ap.nGates++
	}
	return nil
}

// Snapshot materializes the current state as an independent immutable
// Analysis, equal in topology (and therefore in estimates, bitwise) to a
// from-scratch analysis of the concatenated gate stream. The appender
// remains usable; later appends do not touch the snapshot.
func (ap *Appender) Snapshot() *Analysis {
	n := ap.nGates + 2
	end := qodg.NodeID(n - 1)

	nodes := make([]qodg.Node, n)
	copy(nodes, ap.nodes)
	for k, t := range ap.types {
		gi := ap.baseGates + k
		nodes[gi+1] = qodg.Node{ID: qodg.NodeID(gi + 1), Op: qodg.Op{Type: t}, GateIndex: gi}
	}
	nodes[n-1] = qodg.Node{ID: end, GateIndex: -1}

	// Counting: stripped seed rows + suffix edges + regenerated end edges.
	succDeg := make([]int32, n+1)
	predDeg := make([]int32, n+1)
	for u := 0; u <= ap.baseGates; u++ {
		succDeg[u] = ap.succOff[u+1] - ap.succOff[u]
		predDeg[u] = ap.predOff[u+1] - ap.predOff[u]
	}
	for i := 0; i < len(ap.extra); i += 2 {
		succDeg[ap.extra[i]]++
		predDeg[ap.extra[i+1]]++
	}
	count := func(from, to qodg.NodeID) {
		succDeg[from]++
		predDeg[to]++
	}
	// VisitEnd reads the last-writer state without advancing it, so
	// Snapshot can run again after further appends.
	ap.scan.VisitEnd(end, count)

	succOff, succ := csr.Offsets[qodg.NodeID](succDeg)
	predOff, pred := csr.Offsets[qodg.NodeID](predDeg)

	// Fill. A seed node's merged row stays ascending by construction: the
	// stripped seed edges target seed gates, suffix edges target appended
	// gates in append order, and the end anchor has the maximum ID.
	for u := 0; u <= ap.baseGates; u++ {
		copy(succ[succDeg[u]:], ap.succ[ap.succOff[u]:ap.succOff[u+1]])
		succDeg[u] += ap.succOff[u+1] - ap.succOff[u]
		copy(pred[predDeg[u]:], ap.pred[ap.predOff[u]:ap.predOff[u+1]])
		predDeg[u] += ap.predOff[u+1] - ap.predOff[u]
	}
	fill := func(from, to qodg.NodeID) {
		succ[succDeg[from]] = to
		succDeg[from]++
		pred[predDeg[to]] = from
		predDeg[to]++
	}
	for i := 0; i < len(ap.extra); i += 2 {
		fill(ap.extra[i], ap.extra[i+1])
	}
	ap.scan.VisitEnd(end, fill)

	return &Analysis{
		Name:       ap.name,
		Qubits:     ap.qubits,
		Operations: ap.nGates,
		FT:         ap.ft,
		QODG:       qodg.FromCSR(nodes, ap.qubits, succOff, succ, predOff, pred),
		IIG:        iig.Extend(ap.baseIIG, ap.iigPairs),
		lastWriter: append([]qodg.NodeID(nil), ap.scan.Last()...),
	}
}
