// Package qodg implements the Quantum Operation Dependency Graph of the
// LEQA paper (§2, Fig. 2b): nodes are FT quantum operations, edges capture
// data dependencies through logical qubits, and dedicated start/end nodes
// anchor the first- and last-level operations. Parallel edges between the
// same node pair are merged.
//
// Every edge is a last-writer edge: a gate depends on the last gate that
// touched each of its one or two qubits, and the end node on the last gate
// of every qubit. So a gate's type and operands fix the whole graph, and
// the graph is stored as nothing but its records, one 16-byte Node per
// gate in program order between the two anchors. The node order is
// topological, and every traversal — the longest-path sweep, Edges, the
// DOT writer — derives the edges as it goes from one per-qubit
// last-writer array. No adjacency is stored.
package qodg

import (
	"iter"
	"slices"

	"repro/internal/circuit"
)

// NodeID indexes nodes in a Graph. Start is always 0; End is always
// len(Nodes)-1; operation nodes occupy 1..len(Nodes)-2 in program order,
// so gate i of the source circuit is node i+1.
type NodeID int

// Node is one vertex of the QODG and the record of its gate: the gate type
// and its operands, controls first, with B = -1 for a one-qubit gate. The
// start and end anchors are the zero Node, whose type is circuit.Invalid.
// Nodes hold no pointers, so the node array costs the collector nothing.
type Node struct {
	// Op is the operation this node represents.
	Op   Op
	A, B int32
}

// Op is what the graph keeps of a gate's kind: its type, the only thing
// the estimator weighs.
type Op struct {
	Type circuit.GateType
}

// IsPseudo reports whether the node is the start or end anchor. No
// decoder ever yields an Invalid gate, so only the anchors have its type.
func (n Node) IsPseudo() bool { return n.Op.Type == circuit.Invalid }

// Graph is the QODG: its node records over a register of NumQubits
// qubits.
type Graph struct {
	Nodes []Node
	// NumQubits is the register size of the source circuit.
	NumQubits int
}

// Start returns the start pseudo-node's ID (always 0).
func (g *Graph) Start() NodeID { return 0 }

// End returns the end pseudo-node's ID.
func (g *Graph) End() NodeID { return NodeID(len(g.Nodes) - 1) }

// NumNodes returns |V| including the two pseudo-nodes.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// preds returns gate node v's distinct predecessors, the last writers of
// its operands, in ascending ID order — p1 is -1 when both operands share
// one, or the gate has one — and makes v the last writer of its operands.
// last holds each qubit's last writer, 0 (the start anchor) for a qubit no
// gate has touched yet.
func preds(last []int32, n Node, v int32) (p0, p1 int32) {
	p0 = last[n.A]
	if n.B < 0 {
		last[n.A] = v
		return p0, -1
	}
	p1 = last[n.B]
	last[n.A], last[n.B] = v, v
	switch {
	case p1 == p0:
		return p0, -1
	case p1 < p0:
		return p1, p0
	}
	return p0, p1
}

// Edges yields every edge (from, to) of the graph, grouped by target in
// node order and by source in ascending order within a target, from one
// scan of the records.
func (g *Graph) Edges() iter.Seq2[NodeID, NodeID] {
	return func(yield func(NodeID, NodeID) bool) {
		last := make([]int32, g.NumQubits)
		end := len(g.Nodes) - 1
		for v := 1; v < end; v++ {
			p0, p1 := preds(last, g.Nodes[v], int32(v))
			if !yield(NodeID(p0), NodeID(v)) || p1 >= 0 && !yield(NodeID(p1), NodeID(v)) {
				return
			}
		}
		slices.Sort(last)
		for _, p := range slices.Compact(last) {
			if !yield(NodeID(p), NodeID(end)) {
				return
			}
		}
	}
}
