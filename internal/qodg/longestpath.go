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
// dist/from relaxation slabs. A zero PathScratch is ready to use; buffers
// grow to the largest sweep seen and are reused across calls, so a warm
// scratch performs no allocation. Not safe for concurrent use; pool one per
// worker.
type PathScratch struct {
	// MaxWorkers is ignored: the sweep is serial. It is kept only because
	// cmd/leqabench compiles against it.
	MaxWorkers int

	// Column c of node v sits at [v*K+c] of dist and from, so K = 1 is the
	// plain per-node layout. Predecessors are held as int32: CSR offsets
	// are int32, so every node ID of a graph fits.
	dist  []float64
	from  []int32
	nodes int // node count of the largest graph swept
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

// weightRows locates a node's K weights in a weight source: row v of a
// per-node slab, or row Nodes[v].Op.Type of a per-type table.
type weightRows struct {
	tab    []float64
	byType bool
}

func (w weightRows) index(g *Graph, v int) int {
	if w.byType {
		return int(g.Nodes[v].Op.Type)
	}
	return v
}

// missingRow is the error of node v, whose row lies past the source's rows.
func (g *Graph) missingRow(v, rows, k int) error {
	return &MissingRowError{Node: NodeID(v), Type: g.Nodes[v].Op.Type, Rows: rows, Cols: k}
}

// relax runs the pull relaxation of all k ≥ 1 columns of w into the
// scratch's slabs: the scalar loop for one column, the row loop for more.
// Each pull writes every node's state, so the slabs need no clearing.
func (g *Graph) relax(w weightRows, k int, s *PathScratch) error {
	n := len(g.Nodes)
	s.nodes = max(s.nodes, n)
	s.dist = grow(s.dist, n*k)
	s.from = grow(s.from, n*k)
	if k == 1 {
		return g.relaxScalar(w, s.dist, s.from)
	}
	return g.relaxRows(w, k, s.dist, s.from)
}

// relaxScalar is the one-column pull. Node IDs are topologically ordered,
// so by the time the loop reaches v every predecessor's state is final and
// v takes the max of their offers dist[p]+w[v]. Predecessor lists ascend,
// the first offer is taken and later ones only when strictly greater: the
// order, float expression and tie rule of the push relaxation the tests
// check against (internal/oracle), which hand ties to the lowest-ID
// predecessor, so dist and from equal the push's bitwise. A node without
// predecessors gets the ground state, dist 0 and from -1.
func (g *Graph) relaxScalar(w weightRows, dist []float64, from []int32) error {
	tab, off, pred := w.tab, g.predOff, g.pred
	for v := range g.Nodes {
		r := w.index(g, v)
		if uint(r) >= uint(len(tab)) {
			return g.missingRow(v, len(tab), 1)
		}
		wv := tab[r]
		preds := pred[off[v]:off[v+1]]
		if len(preds) == 0 {
			dist[v], from[v] = 0, -1
			continue
		}
		best, bestFrom := dist[preds[0]]+wv, int32(preds[0])
		for _, p := range preds[1:] {
			if cand := dist[p] + wv; cand > best {
				best, bestFrom = cand, int32(p)
			}
		}
		dist[v], from[v] = best, bestFrom
	}
	return nil
}

// numGateTypes sizes path recovery's per-type counters: one slot per
// circuit.GateType up to the last one defined, so every node type a
// circuit can hold has one.
const numGateTypes = int(circuit.Swap) + 1

// recoverPath reads column col of a k-column sweep's critical path out of
// the scratch: node v's distance and predecessor sit at [v*k+col]. One walk
// down the from-chain, from the end node back to the start, counts gate
// types in a fixed array, and CountByType is built from the non-zero
// counts. The path's nodes themselves are not kept: the estimate reads
// only its length and counts.
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
		Length:      s.dist[int(g.End())*k+col],
		CountByType: make(map[circuit.GateType]int, types),
	}
	for t, c := range counts {
		if c > 0 {
			cp.CountByType[circuit.GateType(t)] = c
		}
	}
	return cp
}
