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

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/csr"
)

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

// OutDegree returns len(Succ(u)) without materializing the slice.
func (g *Graph) OutDegree(u NodeID) int { return int(g.succOff[u+1] - g.succOff[u]) }

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

// NewDepScannerAt returns a scanner resuming from an existing per-qubit
// last-writer state (copied) — the seed of the incremental analysis
// appender, which continues a finished scan instead of replaying it.
func NewDepScannerAt(last []NodeID) *DepScanner {
	s := &DepScanner{last: make([]NodeID, len(last))}
	copy(s.last, last)
	return s
}

// GrowTo extends the scanner's register to numQubits mid-scan, initializing
// the new qubits to the start anchor — the streaming path's counterpart of
// ResetFor, used when a .qc stream auto-declares qubits as it goes.
func (s *DepScanner) GrowTo(numQubits int) {
	for len(s.last) < numQubits {
		s.last = append(s.last, 0)
	}
}

// Last exposes the per-qubit last-writer state (0 = start anchor). The
// slice is live scanner state; treat it as read-only.
func (s *DepScanner) Last() []NodeID { return s.last }

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

// Pending is the sentinel family a shard-local scan seeds its last-writer
// state with: PendingWriter(q) marks qubit q as last written by an unknown
// node of an earlier shard. Sentinels are negative and distinct per qubit,
// so VisitPair's per-gate duplicate merging never collapses two unresolved
// operands on different qubits — they may resolve to different earlier
// nodes — while two operands on the same still-pending qubit are impossible
// (a gate's operands are distinct). Edges emitted with a pending source are
// boundary edges; the stitch resolves them against the previous shards'
// merged last-writer state and re-applies the duplicate merge there.

// PendingWriter returns the pending-last-writer sentinel for qubit q.
func PendingWriter(q int) NodeID { return -NodeID(q) - 1 }

// IsPending reports whether a dependency source is an unresolved sentinel.
func IsPending(id NodeID) bool { return id < 0 }

// PendingQubit recovers the qubit index from a PendingWriter sentinel.
func PendingQubit(id NodeID) int { return int(-id - 1) }

// ResetPending resizes the scanner to numQubits with every qubit seeded
// pending — the state a shard-local scan starts from.
func (s *DepScanner) ResetPending(numQubits int) {
	s.last = csr.Grow(s.last, numQubits)
	for q := range s.last {
		s.last[q] = PendingWriter(q)
	}
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
	SortPredRange(off, pred, 0, len(off)-1)
}

// SortPredRange orders the predecessor segments of nodes [lo, hi) ascending.
// Rows are independent, so disjoint ranges may be sorted concurrently — the
// hook the sharded analysis builder uses to parallelize the pred-sort before
// handing the arrays to FromCSRSorted.
func SortPredRange(off []int32, pred []NodeID, lo, hi int) {
	for u := lo; u < hi; u++ {
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

// FromCSRSortedInto is FromCSRInto for callers that have already sorted
// every predecessor segment (e.g. concurrently via SortPredRange); it only
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

// Weights assigns a latency to every node. Pseudo-nodes must have weight 0.
type Weights []float64

// NewWeights builds a weight vector with weightOf evaluated per operation
// node (on an operand-free gate of the node's type) and 0 at the
// pseudo-nodes.
func (g *Graph) NewWeights(weightOf func(circuit.Gate) float64) Weights {
	buf := make(Weights, len(g.Nodes))
	for i, node := range g.Nodes {
		if node.IsPseudo() {
			buf[i] = 0
		} else {
			buf[i] = weightOf(circuit.Gate{Type: node.Op.Type})
		}
	}
	return buf
}

// Levels returns each node's ASAP level (start = 0) — the unweighted depth
// used for scheduling and reporting.
func (g *Graph) Levels() []int {
	lv32 := make([]int32, len(g.Nodes))
	g.computeLevels(lv32)
	lv := make([]int, len(lv32))
	for i, v := range lv32 {
		lv[i] = int(v)
	}
	return lv
}

// computeLevels fills level (len == NumNodes, pre-zeroed by the caller or
// fresh) with each node's ASAP level via one push pass over the topological
// order, and returns the graph depth (the maximum level). The single kernel
// behind both Levels and the parallel sweep's level partitioning.
func (g *Graph) computeLevels(level []int32) int32 {
	clear(level)
	n := len(g.Nodes)
	for u := 0; u < n; u++ {
		lu := level[u] + 1
		for _, v := range g.Succ(NodeID(u)) {
			if lu > level[v] {
				level[v] = lu
			}
		}
	}
	depth := int32(0)
	for _, lv := range level {
		if lv > depth {
			depth = lv
		}
	}
	return depth
}

// CheckAcyclic verifies the topological-order invariant: every edge points
// from a lower node ID to a higher one.
func (g *Graph) CheckAcyclic() error {
	for u := range g.Nodes {
		for _, v := range g.Succ(NodeID(u)) {
			if int(v) <= u {
				return fmt.Errorf("qodg: back edge %d -> %d", u, v)
			}
		}
	}
	return nil
}
