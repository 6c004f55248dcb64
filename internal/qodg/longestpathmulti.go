package qodg

import "fmt"

// Multi-weight critical-path sweep: K weight columns relaxed per node visit
// in one traversal. A circuit × K-params grid row re-weights the same QODG K
// times; K one-column sweeps would stream the node records through cache
// once per column. The row loop keeps the sweep state in SoA layout —
// column c of node v's predecessor at [v*K+c], column c of qubit q's
// distance at [q*K+c] — so one node's K states share cache lines and the
// inner loop is column-contiguous, and derives every edge exactly once,
// relaxing all K columns against it. A node's K weights are one K-row of
// a weight source: row v of a per-node slab (LongestPathMultiStrided), or
// row Nodes[v].Op.Type of a per-type table (LongestPathMultiByType) — the
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
// offers and tie rule with one K-row of weights and predecessors per node
// and one K-row of distances per qubit. Every row the loop touches — v's
// weights and predecessors, each operand's distances — is a K-contiguous
// slice, so the node visit streams whole cache lines, and the per-qubit
// rows stay in cache however far back a predecessor lies.
func (g *Graph) relaxRows(w weightRows, k int, s *PathScratch) error {
	from, last, qd, ev := s.from, s.last, s.qdist, s.end[:k]
	rows := len(w.tab) / k
	end := len(g.Nodes) - 1
	for v, n := range g.Nodes {
		r := w.index(n, v)
		if uint(r) >= uint(rows) {
			return g.missingRow(v, rows, k)
		}
		wv := w.tab[r*k : r*k+k]
		fv := from[v*k : v*k+k]
		switch {
		case v == 0:
			for c := range fv {
				fv[c] = -1
			}
		case v < end:
			a, b := n.A, n.B
			da, pa := qd[int(a)*k:int(a)*k+k], last[a]
			last[a] = int32(v)
			if b < 0 {
				for c, wc := range wv {
					da[c] += wc
					fv[c] = pa
				}
				continue
			}
			db, pb := qd[int(b)*k:int(b)*k+k], last[b]
			last[b] = int32(v)
			if pa == pb { // one predecessor, one merged edge
				for c, wc := range wv {
					d := da[c] + wc
					da[c], db[c], fv[c] = d, d, pa
				}
				continue
			}
			if pb < pa { // offers in ascending predecessor order
				da, db, pa, pb = db, da, pb, pa
			}
			for c, wc := range wv {
				best, bestFrom := da[c]+wc, pa
				if cand := db[c] + wc; cand > best {
					best, bestFrom = cand, pb
				}
				da[c], db[c], fv[c] = best, best, bestFrom
			}
		default:
			for c := range fv {
				fv[c] = -1
			}
			for q, p := range last {
				dq := qd[q*k : q*k+k]
				for c, wc := range wv {
					if cand := dq[c] + wc; q == 0 || cand > ev[c] || cand == ev[c] && p < fv[c] {
						ev[c], fv[c] = cand, p
					}
				}
			}
		}
	}
	return nil
}
