package qodg

import "fmt"

// Multi-weight critical-path sweep: K weight columns relaxed per node visit
// in one traversal. A circuit × K-params grid row re-weights the same QODG K
// times; K one-column sweeps would stream the CSR adjacency through cache
// once per column. The row loop keeps the sweep state in SoA layout —
// column c of node v at [v*K+c] for distance and predecessor alike — so one
// node's K states share cache lines and the inner loop is
// column-contiguous, and visits every edge exactly once, relaxing all K
// columns against it. A node's K weights are one K-row of a weight source:
// row v of a per-node slab (LongestPathMultiStrided), or row
// Nodes[v].Op.Type of a per-type table (LongestPathMultiByType) — the
// estimator's shape, whose weights depend on the gate type alone, so a
// batch reads a few hundred bytes of weights in place of an N×K slab. One
// column takes LongestPath's scalar loop instead, which runs in about half
// the row loop's time at K = 1. Each column's relaxation order, float
// expression and tie rule are the scalar loop's, so every column of the
// result is bitwise equal to a one-column sweep under that column's
// weights.

// LongestPathMultiStrided computes the critical path under each of K
// weight columns of an interleaved per-node slab: column c of node v weighs
// wm[v*K+c]. len(wm) must be at least K × the node count. K = 0 returns
// nil.
func (g *Graph) LongestPathMultiStrided(wm []float64, k int, s *PathScratch) ([]CriticalPath, error) {
	if k > 0 && len(wm)/k < len(g.Nodes) {
		return nil, fmt.Errorf("qodg: weight slab holds %d entries, want %d nodes × %d columns", len(wm), len(g.Nodes), k)
	}
	return g.sweep(weightRows{tab: wm}, k, s)
}

// LongestPathMultiByType computes the critical path under each of K
// columns of a (gate type × column) weight table: column c of every node
// of gate type t weighs tab[t*K+c]. Row 0, circuit.Invalid's, weighs the
// start and end pseudo-nodes and must be zero. A node whose type has no row
// fails with a *MissingRowError. Column c of the result is bitwise equal to
// LongestPath over the table's column c. tab does not escape, so a caller
// may keep it on its stack.
func (g *Graph) LongestPathMultiByType(tab []float64, k int, s *PathScratch) ([]CriticalPath, error) {
	return g.sweep(weightRows{tab: tab, byType: true}, k, s)
}

// sweep relaxes all k columns of w and recovers every column's path.
func (g *Graph) sweep(w weightRows, k int, s *PathScratch) ([]CriticalPath, error) {
	if k < 0 {
		return nil, fmt.Errorf("qodg: %d weight columns", k)
	}
	if k == 0 {
		return nil, nil
	}
	if s == nil {
		s = new(PathScratch)
	}
	if err := g.relax(w, k, s); err != nil {
		return nil, err
	}
	cps := make([]CriticalPath, k)
	for c := range cps {
		cps[c] = recoverPath(g, s, k, c)
	}
	return cps, nil
}

// relaxRows is the K-column pull, k ≥ 2: relaxScalar's visit order with
// one K-row of weights and state per node.
func (g *Graph) relaxRows(w weightRows, k int, dist []float64, from []int32) error {
	rows := len(w.tab) / k
	for v := range g.Nodes {
		r := w.index(g, v)
		if uint(r) >= uint(rows) {
			return g.missingRow(v, rows, k)
		}
		g.relaxNodeMulti(w.tab[r*k:r*k+k], dist, from, k, NodeID(v))
	}
	return nil
}

// relaxNodeMulti writes node v's K-column dist/from row from its finalized
// predecessors, with wv holding v's K weights, by relaxScalar's rule per
// column: the first predecessor's offer is taken unconditionally and later
// ones only when strictly greater, and a node without predecessors gets
// the ground state. Every row the loop touches — v's weights, v's state,
// each predecessor's distances — is a K-contiguous slice, so the node
// visit streams whole cache lines.
func (g *Graph) relaxNodeMulti(wv, dist []float64, from []int32, k int, v NodeID) {
	vb := int(v) * k
	dv := dist[vb : vb+k]
	fv := from[vb : vb+k]
	preds := g.Pred(v)
	if len(preds) == 0 {
		for c := range dv {
			dv[c] = 0
			fv[c] = -1
		}
		return
	}
	p0 := preds[0]
	pb := int(p0) * k
	dp := dist[pb : pb+k]
	for c, wc := range wv {
		dv[c] = dp[c] + wc
		fv[c] = int32(p0)
	}
	for _, p := range preds[1:] {
		pb := int(p) * k
		dp := dist[pb : pb+k]
		for c, wc := range wv {
			if cand := dp[c] + wc; cand > dv[c] {
				dv[c] = cand
				fv[c] = int32(p)
			}
		}
	}
}
