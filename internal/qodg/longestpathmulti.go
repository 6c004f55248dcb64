package qodg

import "fmt"

// Multi-weight critical-path sweep: K weight columns relaxed per node visit
// in one traversal. A circuit × K-params grid row re-weights the same QODG K
// times; K one-column sweeps would stream the node records through cache
// once per column. The row loop keeps the sweep state in SoA layout —
// column c of node v at [v*K+c] for distance and predecessor alike — so one
// node's K states share cache lines and the inner loop is
// column-contiguous, and derives every edge exactly once, relaxing all K
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

// relaxRows is the K-column pull, k ≥ 2: relaxScalar's visit order,
// predecessors and tie rule with one K-row of weights and state per node.
// Every row the loop touches — v's weights, v's state, each predecessor's
// distances — is a K-contiguous slice, so the node visit streams whole
// cache lines.
func (g *Graph) relaxRows(w weightRows, k int, dist []float64, from, last []int32) error {
	rows := len(w.tab) / k
	end := len(g.Nodes) - 1
	for v, n := range g.Nodes {
		r := w.index(n, v)
		if uint(r) >= uint(rows) {
			return g.missingRow(v, rows, k)
		}
		wv := w.tab[r*k : r*k+k]
		dv := dist[v*k : v*k+k]
		fv := from[v*k : v*k+k]
		switch {
		case v == 0:
			ground(dv, fv)
		case v < end:
			p0, p1 := preds(last, n, int32(v))
			dp := dist[int(p0)*k : int(p0)*k+k]
			for c, wc := range wv {
				dv[c] = dp[c] + wc
				fv[c] = p0
			}
			if p1 < 0 {
				continue
			}
			dp = dist[int(p1)*k : int(p1)*k+k]
			for c, wc := range wv {
				if cand := dp[c] + wc; cand > dv[c] {
					dv[c] = cand
					fv[c] = p1
				}
			}
		default:
			ground(dv, fv)
			for q, p := range last {
				dp := dist[int(p)*k : int(p)*k+k]
				for c, wc := range wv {
					if cand := dp[c] + wc; q == 0 || cand > dv[c] || cand == dv[c] && p < fv[c] {
						dv[c] = cand
						fv[c] = p
					}
				}
			}
		}
	}
	return nil
}

// ground gives every column of a node the state of a node without
// predecessors: dist 0, from -1.
func ground(dv []float64, fv []int32) {
	for c := range dv {
		dv[c] = 0
		fv[c] = -1
	}
}
