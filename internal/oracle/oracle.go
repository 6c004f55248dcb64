// Package oracle holds the reference implementations the equivalence tests
// compare the production front end and critical-path kernels against: the
// pre-CSR graph builders (per-node append slices with sort+dedup for the
// QODG, per-qubit neighbor maps for the IIG) and the push-based serial
// longest-path sweep. They share no code with what they check and are
// imported only by tests.
package oracle

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// QODG builds the dependency graph of c: one node per gate in program
// order between the start and end anchors, an edge from the last node that
// touched each of a gate's qubits, and one edge per qubit into the end
// anchor, with parallel edges merged. Gates of any arity are accepted.
func QODG(c *circuit.Circuit) (*qodg.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.Gates) + 2
	nodes := make([]qodg.Node, n)
	nodes[0] = qodg.Node{ID: 0, GateIndex: -1}
	for i, gate := range c.Gates {
		nodes[i+1] = qodg.Node{ID: qodg.NodeID(i + 1), Op: qodg.Op{Type: gate.Type}, GateIndex: i}
	}
	nodes[n-1] = qodg.Node{ID: qodg.NodeID(n - 1), GateIndex: -1}
	succ := make([][]qodg.NodeID, n)
	pred := make([][]qodg.NodeID, n)
	addEdge := func(from, to qodg.NodeID) {
		succ[from] = append(succ[from], to)
		pred[to] = append(pred[to], from)
	}
	last := make([]qodg.NodeID, c.NumQubits())
	for i, gate := range c.Gates {
		id := qodg.NodeID(i + 1)
		for _, q := range gate.Qubits() {
			addEdge(last[q], id)
			last[q] = id
		}
	}
	for q := range last {
		addEdge(last[q], qodg.NodeID(n-1))
	}
	succOff, succFlat := flatten(succ)
	predOff, predFlat := flatten(pred)
	g := new(qodg.Graph)
	qodg.FromCSRSortedInto(g, nodes, c.NumQubits(), succOff, succFlat, predOff, predFlat)
	return g, nil
}

// flatten sorts and deduplicates every adjacency list and packs the lists
// into CSR offsets plus one edge array.
func flatten(adj [][]qodg.NodeID) ([]int32, []qodg.NodeID) {
	off := make([]int32, len(adj)+1)
	var flat []qodg.NodeID
	for i, list := range adj {
		off[i] = int32(len(flat))
		slices.Sort(list)
		flat = append(flat, slices.Compact(list)...)
	}
	off[len(adj)] = int32(len(flat))
	return off, flat
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
func Relax(g *qodg.Graph, w []float64) (dist []float64, from []qodg.NodeID, err error) {
	n := g.NumNodes()
	if len(w) != n {
		return nil, nil, fmt.Errorf("oracle: %d weights for %d nodes", len(w), n)
	}
	dist = make([]float64, n)
	from = make([]qodg.NodeID, n)
	for i := range from {
		from[i] = -1
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(qodg.NodeID(u)) {
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
func LongestPath(g *qodg.Graph, w []float64) (qodg.CriticalPath, error) {
	dist, from, err := Relax(g, w)
	if err != nil {
		return qodg.CriticalPath{}, err
	}
	cp := qodg.CriticalPath{
		Length:      dist[g.End()],
		CountByType: make(map[circuit.GateType]int),
	}
	for v := g.End(); ; v = from[v] {
		if node := g.Nodes[v]; !node.IsPseudo() {
			cp.CountByType[node.Op.Type]++
		}
		if v == 0 || from[v] == -1 {
			break
		}
	}
	return cp, nil
}
