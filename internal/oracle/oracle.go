// Package oracle holds the reference implementations the equivalence tests
// compare the production front end and critical-path kernels against: a
// QODG builder with per-node adjacency lists (append, then sort+dedup), an
// IIG builder over per-qubit neighbor maps, and the push-based serial
// longest-path sweep over the oracle's own adjacency lists. They share no
// code with what they check and are imported only by tests.
package oracle

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// Graph is the oracle's QODG over a register of NumQubits qubits: node v's
// gate type, successors and predecessors, each adjacency list ascending
// and free of duplicates. Node 0 is the start anchor and the last node the
// end anchor; both have type circuit.Invalid.
type Graph struct {
	Types      []circuit.GateType
	Succ, Pred [][]int
	NumQubits  int
}

// End returns the end anchor's node index.
func (g *Graph) End() int { return len(g.Types) - 1 }

// QODG builds the dependency graph of c: one node per gate in program
// order between the start and end anchors, an edge from the last node that
// touched each of a gate's qubits, and one edge per qubit into the end
// anchor, with parallel edges merged. Gates of any arity are accepted.
func QODG(c *circuit.Circuit) (*Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.Gates) + 2
	g := &Graph{
		Types:     make([]circuit.GateType, n),
		Succ:      make([][]int, n),
		Pred:      make([][]int, n),
		NumQubits: c.NumQubits(),
	}
	addEdge := func(from, to int) {
		g.Succ[from] = append(g.Succ[from], to)
		g.Pred[to] = append(g.Pred[to], from)
	}
	last := make([]int, c.NumQubits())
	for i, gate := range c.Gates {
		id := i + 1
		g.Types[id] = gate.Type
		for _, q := range gate.Qubits() {
			addEdge(last[q], id)
			last[q] = id
		}
	}
	for q := range last {
		addEdge(last[q], n-1)
	}
	for v := range n {
		g.Succ[v] = slices.Compact(slices.Sorted(slices.Values(g.Succ[v])))
		g.Pred[v] = slices.Compact(slices.Sorted(slices.Values(g.Pred[v])))
	}
	return g, nil
}

// IIG builds the interaction intensity graph of c: each two-qubit gate adds
// weight 1 to the edge between its qubits. Wider gates are rejected.
func IIG(c *circuit.Circuit) (*iig.Graph, error) {
	adj := make([]map[int]int, c.NumQubits())
	for i := range adj {
		adj[i] = make(map[int]int)
	}
	for i, gate := range c.Gates {
		switch gate.Arity() {
		case 1:
		case 2:
			a, b := gate.QubitPair()
			if a == b {
				continue // no self loops
			}
			adj[a][b]++
			adj[b][a]++
		default:
			return nil, fmt.Errorf("oracle: gate %d (%s) touches %d qubits; decompose first",
				i, gate.Type, gate.Arity())
		}
	}
	off := make([]int32, len(adj)+1)
	var nbr, wt []int32
	for i, row := range adj {
		off[i] = int32(len(nbr))
		keys := make([]int, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			nbr = append(nbr, int32(k))
			wt = append(wt, int32(row[k]))
		}
	}
	off[len(adj)] = int32(len(nbr))
	return iig.FromCSRWeights(len(adj), off, nbr, wt)
}

// Relax runs the push-based serial longest-path relaxation over the
// topological node order, with one weight per node (w[v], 0 at the
// pseudo-nodes): for each node u, every successor edge (u,v) offers
// dist[u]+w[v]. A node takes its first offer, later ones only when
// strictly greater — so ties go to the lowest-ID predecessor. from[v] is
// -1 where no offer arrived.
func Relax(g *Graph, w []float64) (dist []float64, from []qodg.NodeID, err error) {
	n := len(g.Types)
	if len(w) != n {
		return nil, nil, fmt.Errorf("oracle: %d weights for %d nodes", len(w), n)
	}
	dist = make([]float64, n)
	from = make([]qodg.NodeID, n)
	for i := range from {
		from[i] = -1
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Succ[u] {
			if cand := dist[u] + w[v]; cand > dist[v] || from[v] == -1 {
				dist[v] = cand
				from[v] = qodg.NodeID(u)
			}
		}
	}
	return dist, from, nil
}

// LongestPath is the critical path of g under w: Relax, then the
// from-chain walked back from the end anchor, counting the operation
// nodes on it by gate type.
func LongestPath(g *Graph, w []float64) (qodg.CriticalPath, error) {
	dist, from, err := Relax(g, w)
	if err != nil {
		return qodg.CriticalPath{}, err
	}
	end := g.End()
	cp := qodg.CriticalPath{
		Length:      dist[end],
		CountByType: make(map[circuit.GateType]int),
	}
	for v := end; ; v = int(from[v]) {
		if t := g.Types[v]; t != circuit.Invalid {
			cp.CountByType[t]++
		}
		if v == 0 || from[v] == -1 {
			break
		}
	}
	return cp, nil
}
