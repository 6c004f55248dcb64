// Package qodg implements the Quantum Operation Dependency Graph of the
// LEQA paper (§2, Fig. 2b): nodes are FT quantum operations, edges capture
// data dependencies through logical qubits, and dedicated start/end nodes
// anchor the first- and last-level operations. Parallel edges between the
// same node pair are merged.
//
// The graph is a DAG whose node order is already topological (gates are
// appended in program order; edges only go from earlier to later gates), so
// longest-path queries run in a single linear sweep.
//
// Adjacency is stored in compressed-sparse-row (CSR) form: one flat edge
// array per direction plus an offset array, filled by a counting pass and a
// fill pass over the gate stream. No per-node slices or maps are allocated
// and no post-hoc sort/dedup is needed — duplicate dependency edges always
// target the same node and are rejected while that node's edges are
// generated, and successor lists come out sorted because target IDs only
// grow during the scan.
package qodg

import "repro/internal/circuit"

// NodeID indexes nodes in a Graph. Start is always 0; End is always
// len(Nodes)-1; operation nodes occupy 1..len(Nodes)-2 in program order.
type NodeID int

// Node is one vertex of the QODG.
type Node struct {
	ID NodeID
	// Op is the operation this node represents. The zero Op (Type ==
	// circuit.Invalid) marks the start and end pseudo-nodes.
	Op Op
	// GateIndex is the index of Op in the source circuit, or -1 for the
	// start/end nodes.
	GateIndex int
}

// Op is what the graph keeps of a gate: its type, the only thing the
// estimator weighs. The operands live on as the dependency edges, so nodes
// hold no pointers and the node array costs the collector nothing.
type Op struct {
	Type circuit.GateType
}

// IsPseudo reports whether the node is the start or end anchor.
func (n Node) IsPseudo() bool { return n.GateIndex < 0 }

// Graph is the QODG. Edges are stored as CSR adjacency in both directions;
// merged parallel edges appear once. Use Succ/Pred to iterate a node's
// neighbors; the returned slices view the shared edge arrays, so treat them
// as read-only.
type Graph struct {
	Nodes []Node
	// NumQubits is the register size of the source circuit.
	NumQubits int

	succOff []int32 // len(Nodes)+1 offsets into succ
	succ    []NodeID
	predOff []int32 // len(Nodes)+1 offsets into pred
	pred    []NodeID
}

// Start returns the start pseudo-node's ID (always 0).
func (g *Graph) Start() NodeID { return 0 }

// End returns the end pseudo-node's ID.
func (g *Graph) End() NodeID { return NodeID(len(g.Nodes) - 1) }

// NumNodes returns |V| including the two pseudo-nodes.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns |E| after parallel-edge merging.
func (g *Graph) NumEdges() int { return len(g.succ) }

// Succ returns the successors of node u in increasing order. The slice
// aliases the graph's edge array; do not append to it.
func (g *Graph) Succ(u NodeID) []NodeID { return g.succ[g.succOff[u]:g.succOff[u+1]] }

// Pred returns the predecessors of node u in increasing order. The slice
// aliases the graph's edge array; do not append to it.
func (g *Graph) Pred(u NodeID) []NodeID { return g.pred[g.predOff[u]:g.predOff[u+1]] }

// DepScanner streams the merged dependency edges of a circuit: for each
// gate node it reports the set of distinct predecessor nodes (the last
// writers of the gate's qubits), then advances the per-qubit last-writer
// state. Running the same scan twice — a counting pass and a fill pass —
// builds CSR adjacency without any per-node allocation; the analysis layer
// (the one graph builder) fuses the IIG build into the same gate loop.
type DepScanner struct {
	last    []NodeID // last node touching each qubit; 0 = start anchor
	scratch []NodeID // VisitEnd's distinct sources
}

// NewDepScanner returns a scanner over numQubits qubits.
func NewDepScanner(numQubits int) *DepScanner {
	return &DepScanner{last: make([]NodeID, numQubits)}
}

// GrowTo extends the scanner's register to numQubits mid-scan, initializing
// the new qubits to the start anchor — the streaming path's counterpart of
// ResetFor, used when a .qc stream auto-declares qubits as it goes.
func (s *DepScanner) GrowTo(numQubits int) {
	for len(s.last) < numQubits {
		s.last = append(s.last, 0)
	}
}

// ResetFor resizes the scanner to numQubits and rewinds it — the arena path
// that reuses one scanner across circuits of different register sizes.
func (s *DepScanner) ResetFor(numQubits int) {
	if cap(s.last) < numQubits {
		s.last = make([]NodeID, numQubits)
		return
	}
	s.last = s.last[:numQubits]
	clear(s.last)
}

// VisitPair emits (from, id) once per distinct dependency source of the
// gate occupying node id, then records id as the last writer of the gate's
// qubits. The gate has at most two operands, given as indices controls
// first, with b = -1 for a one-qubit gate. Duplicate sources (both operands
// last touched by the same node) are merged here, which is exhaustive:
// every edge into id is generated by this single call, so duplicates can
// never arrive later.
func (s *DepScanner) VisitPair(id NodeID, a, b int32, emit func(from, to NodeID)) {
	fa := s.last[a]
	s.last[a] = id
	emit(fa, id)
	if b < 0 {
		return
	}
	fb := s.last[b]
	s.last[b] = id
	if fb != fa {
		emit(fb, id)
	}
}

// VisitEnd emits the final-level edges: one (last[q], end) edge per qubit,
// merged across qubits sharing a last writer. Call after every gate has
// been visited.
func (s *DepScanner) VisitEnd(end NodeID, emit func(from, to NodeID)) {
	s.scratch = s.scratch[:0]
	for q := range s.last {
		from := s.last[q]
		dup := false
		for _, f := range s.scratch {
			if f == from {
				dup = true
				break
			}
		}
		if !dup {
			s.scratch = append(s.scratch, from)
			emit(from, end)
		}
	}
}

// sortPredSegments orders each predecessor list ascending. Fill order is
// qubit order, not ID order; segments are tiny (a node's in-degree is at
// most its gate's arity; the end node's at most Q), so insertion sort wins.
func sortPredSegments(off []int32, pred []NodeID) {
	for u := 0; u < len(off)-1; u++ {
		seg := pred[off[u]:off[u+1]]
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && seg[j] < seg[j-1]; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
	}
}

// FromCSR assembles a Graph directly from prebuilt CSR arrays — the hook
// the analysis layer uses after running its counting/fill passes.
// succOff/predOff must hold len(nodes)+1 offsets; successor segments must
// already be sorted ascending (they are whenever edges were generated by a
// DepScanner run); predecessor segments are sorted here.
func FromCSR(nodes []Node, numQubits int, succOff []int32, succ []NodeID, predOff []int32, pred []NodeID) *Graph {
	g := new(Graph)
	FromCSRInto(g, nodes, numQubits, succOff, succ, predOff, pred)
	return g
}

// FromCSRInto is FromCSR into a caller-owned Graph value — the arena path,
// which keeps one Graph header alive across analyses instead of allocating
// one per circuit. The same segment requirements as FromCSR apply.
func FromCSRInto(dst *Graph, nodes []Node, numQubits int, succOff []int32, succ []NodeID, predOff []int32, pred []NodeID) {
	sortPredSegments(predOff, pred)
	FromCSRSortedInto(dst, nodes, numQubits, succOff, succ, predOff, pred)
}

// FromCSRSortedInto is FromCSRInto for callers whose predecessor segments
// are already sorted (a decoded image, an oracle-built graph); it only
// assembles the header.
func FromCSRSortedInto(dst *Graph, nodes []Node, numQubits int, succOff []int32, succ []NodeID, predOff []int32, pred []NodeID) {
	*dst = Graph{
		Nodes:     nodes,
		NumQubits: numQubits,
		succOff:   succOff,
		succ:      succ,
		predOff:   predOff,
		pred:      pred,
	}
}

// CSR exposes the graph's raw adjacency arrays — both offset tables and
// both edge arrays — for serialization (internal/qcbin writes them verbatim
// and reassembles with FromCSRSortedInto). The slices are live graph
// storage; treat them as read-only.
func (g *Graph) CSR() (succOff []int32, succ []NodeID, predOff []int32, pred []NodeID) {
	return g.succOff, g.succ, g.predOff, g.pred
}
