package qodg

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/csr"
)

// ParallelThreshold is kept only because cmd/leqabench compiles against it:
// the critical-path sweep is serial, so no graph reaches this node count.
const ParallelThreshold = math.MaxInt

// PathScratch carries the reusable state of a critical-path sweep: the
// per-node predecessor slab, each qubit's last writer and distance, and the
// end node's distances. A zero PathScratch is ready to use; buffers grow to
// the largest sweep seen and are reused across calls, so a warm scratch
// performs no allocation. Not safe for concurrent use; pool one per worker.
type PathScratch struct {
	// MaxWorkers is ignored: the sweep is serial. It is kept only because
	// cmd/leqabench compiles against it.
	MaxWorkers int

	// Column c of node v's predecessor sits at [v*K+c] of from, and column
	// c of qubit q's distance at [q*K+c] of qdist, so K = 1 is the plain
	// layout. Predecessors are held as int32, as node operands are. Only
	// the path recovery reads a node's state back, and it reads from alone,
	// so a distance is kept per qubit, not per node: the distance of the
	// qubit's last writer so far in the sweep.
	from  []int32
	qdist []float64
	last  []int32   // each qubit's last writer so far in the sweep
	end   []float64 // the end node's distance per column
	nodes int       // node count of the largest graph swept
}

// Nodes reports the node count of the largest graph the scratch has swept;
// the scratch's slabs scale with it.
func (s *PathScratch) Nodes() int { return s.nodes }

// grow is csr.Grow under a local name: resize, reallocating only when the
// capacity is insufficient, contents unspecified.
func grow[T any](buf []T, n int) []T { return csr.Grow(buf, n) }

// CriticalPath holds the result of a longest-path query.
type CriticalPath struct {
	// Length is the total weight along the heaviest start→end path.
	Length float64
	// CountByType counts operation nodes on the path per gate type; the
	// paper's N_CNOT^critical and N_g^critical.
	CountByType map[circuit.GateType]int
}

// MissingRowError reports a node whose gate type has no row in a weight
// table: the sweep stops there rather than weigh the node as nothing.
type MissingRowError struct {
	Node NodeID
	Type circuit.GateType
	// Rows and Cols give the table's shape.
	Rows, Cols int
}

func (e *MissingRowError) Error() string {
	return fmt.Sprintf("qodg: node %d: gate type %v has no row in a %d-row × %d-column type table",
		e.Node, e.Type, e.Rows, e.Cols)
}

// LongestPath computes the critical path under one column of gate-type
// weights: every node of type t weighs tab[t]. Row 0, circuit.Invalid's,
// weighs the start and end pseudo-nodes and must be zero. This is the
// O(|V|+|E|) DAG longest-path algorithm the paper cites; the node array is
// already in topological order. A node whose type has no row fails with a
// *MissingRowError. A warm scratch makes the sweep allocation-free apart
// from the returned count map; a nil scratch allocates a temporary one.
// tab does not escape, so a caller may keep it on its stack.
func (g *Graph) LongestPath(tab []float64, s *PathScratch) (CriticalPath, error) {
	if s == nil {
		s = new(PathScratch)
	}
	if err := g.relax(weightRows{tab: tab, byType: true}, 1, s); err != nil {
		return CriticalPath{}, err
	}
	return recoverPath(g, s, 1, 0), nil
}

// weightRows locates node v's K weights in a weight source: row v of a
// per-node slab, or row n.Op.Type of a per-type table, n being v's record.
type weightRows struct {
	tab    []float64
	byType bool
}

func (w weightRows) index(n Node, v int) int {
	if w.byType {
		return int(n.Op.Type)
	}
	return v
}

// missingRow is the error of node v, whose row lies past the source's rows.
func (g *Graph) missingRow(v, rows, k int) error {
	return &MissingRowError{Node: NodeID(v), Type: g.Nodes[v].Op.Type, Rows: rows, Cols: k}
}

// relax runs the pull relaxation of all k ≥ 1 columns of w into the
// scratch: the scalar loop for one column, the row loop for more. Each pull
// writes every node's predecessor, so the from slab needs no clearing;
// every qubit starts at the start anchor, its last writer, with distance 0.
func (g *Graph) relax(w weightRows, k int, s *PathScratch) error {
	n := len(g.Nodes)
	s.nodes = max(s.nodes, n)
	s.from = grow(s.from, n*k)
	s.qdist = grow(s.qdist, g.NumQubits*k)
	s.last = grow(s.last, g.NumQubits)
	s.end = grow(s.end, k)
	clear(s.qdist)
	clear(s.last)
	clear(s.end)
	if k == 1 {
		return g.relaxScalar(w, s)
	}
	return g.relaxRows(w, k, s)
}

// relaxScalar is the one-column pull. Node IDs are topologically ordered,
// so by the time the loop reaches v every predecessor's distance is final
// and v takes the max of their offers dist[p]+w[v]. Every edge is a
// last-writer edge, so dist[p] is the distance the sweep holds for the
// operand p last wrote, and v's distance replaces it for both operands:
// one distance per qubit stands in for one per node. A gate's offers come
// in ascending predecessor order: the first is taken and the second only
// when strictly greater. The end node's offers come in qubit order, and it
// keeps the largest, the lowest ID among equal ones. Both match the order,
// float expression and tie rule of the push relaxation the tests check
// against (internal/oracle), which hands ties to the lowest-ID
// predecessor, so from and the end distance equal the push's bitwise. A
// node without predecessors gets from -1, and the end node of a register
// without qubits distance 0.
func (g *Graph) relaxScalar(w weightRows, s *PathScratch) error {
	tab, from, last, qd := w.tab, s.from, s.last, s.qdist
	end := len(g.Nodes) - 1
	for v, n := range g.Nodes {
		r := w.index(n, v)
		if uint(r) >= uint(len(tab)) {
			return g.missingRow(v, len(tab), 1)
		}
		wv := tab[r]
		switch {
		case v == 0:
			from[v] = -1
		case v < end:
			a := n.A
			pa := last[a]
			best, bestFrom := qd[a]+wv, pa
			if b := n.B; b >= 0 {
				// b's offer comes first when its writer is the older, and
				// then wins ties; one shared writer makes one offer.
				pb := last[b]
				if cand := qd[b] + wv; pb < pa && !(best > cand) || pb > pa && cand > best {
					best, bestFrom = cand, pb
				}
				qd[b], last[b] = best, int32(v)
			}
			from[v] = bestFrom
			qd[a], last[a] = best, int32(v)
		default:
			from[v] = -1
			ev := s.end[:1]
			for q, p := range last {
				if cand := qd[q] + wv; q == 0 || cand > ev[0] || cand == ev[0] && p < from[v] {
					ev[0], from[v] = cand, p
				}
			}
		}
	}
	return nil
}

// numGateTypes sizes path recovery's per-type counters: one slot per
// circuit.GateType up to the last one defined, so every node type a
// circuit can hold has one.
const numGateTypes = int(circuit.Swap) + 1

// recoverPath reads column col of a k-column sweep's critical path out of
// the scratch: node v's predecessor sits at [v*k+col], and the path's
// length is the end node's distance in column col. One walk down the
// from-chain, from the end node back to the start, counts gate types in a
// fixed array, and CountByType is built from the non-zero counts. The
// path's nodes themselves are not kept: the estimate reads only its length
// and counts.
func recoverPath(g *Graph, s *PathScratch, k, col int) CriticalPath {
	var counts [numGateTypes]int
	for v := g.End(); ; {
		if node := &g.Nodes[v]; !node.IsPseudo() {
			counts[node.Op.Type]++
		}
		p := s.from[int(v)*k+col]
		if v == 0 || p == -1 {
			break
		}
		v = NodeID(p)
	}
	types := 0
	for _, c := range counts {
		if c > 0 {
			types++
		}
	}
	cp := CriticalPath{
		Length:      s.end[col],
		CountByType: make(map[circuit.GateType]int, types),
	}
	for t, c := range counts {
		if c > 0 {
			cp.CountByType[circuit.GateType(t)] = c
		}
	}
	return cp
}
