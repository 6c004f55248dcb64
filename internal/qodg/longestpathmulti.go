package qodg

import "fmt"

// Multi-weight critical-path sweep: K weight columns relaxed per node visit
// in one traversal. A circuit × K-params grid row re-weights the same QODG K
// times; the single-column sweep would stream the CSR adjacency (and, on the
// parallel path, the level index) through cache once per column. The multi
// kernel keeps the sweep state in SoA layout — column c of node v at
// [v*K+c] for distance and predecessor alike — so one node's K states share
// cache lines and the inner loop is column-contiguous, and visits every edge
// exactly once, relaxing all K columns against it. A node's K weights are
// one K-row of a weight source: row v of a per-node slab
// (LongestPathMultiStrided), or row Nodes[v].Op.Type of a per-type table
// (LongestPathMultiByType) — the estimator's shape, whose weights depend on
// the gate type alone, so a batch reads a few hundred bytes of weights in
// place of an N×K slab. Each column's relaxation order, float expression
// and tie rule are identical to the single-column sweep, so every column of
// the result is bitwise equal to LongestPath under that column's weights.

// LongestPathMulti computes the critical path under each of K independent
// weight columns in one traversal of the graph. Column c of the result is
// bitwise identical to LongestPath(ws[c]). The dispatch contract matches
// LongestPathInto: graphs with at least ParallelThreshold nodes on a
// multi-core budget take the level-partitioned parallel sweep. An empty ws
// returns nil.
func (g *Graph) LongestPathMulti(ws []Weights, s *PathScratch) ([]CriticalPath, error) {
	if err := g.validateColumns(ws); err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, nil
	}
	if len(ws) == 1 {
		cp, err := g.LongestPathInto(ws[0], s)
		if err != nil {
			return nil, err
		}
		return []CriticalPath{cp}, nil
	}
	if s == nil {
		s = new(PathScratch)
	}
	return g.LongestPathMultiStrided(g.packColumns(ws, s), len(ws), s)
}

// LongestPathMultiStrided is LongestPathMulti over an interleaved weight
// slab: column c of node v weighs wm[v*K+c]. Callers that assemble weights
// per node (one K-row per gate) hand the slab over directly and skip the
// column-major packing step. len(wm) must be at least K × the node count.
func (g *Graph) LongestPathMultiStrided(wm []float64, k int, s *PathScratch) ([]CriticalPath, error) {
	n := len(g.Nodes)
	if err := validateSlab(wm, n, k); err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, nil
	}
	if k == 1 {
		// A one-column slab is already a Weights vector; the specialized
		// single-column sweep avoids the strided kernel's per-node slice
		// overhead and is the bitwise definition the multi kernel chases.
		cp, err := g.LongestPathInto(Weights(wm[:n]), s)
		if err != nil {
			return nil, err
		}
		return []CriticalPath{cp}, nil
	}
	if s == nil {
		s = new(PathScratch)
	}
	return g.sweepMulti(weightRows{tab: wm}, k, s, s.autoWorkers(n)), nil
}

// LongestPathMultiByType is LongestPathMulti over a (gate type × column)
// weight table: column c of every node of gate type t weighs tab[t*K+c].
// Row 0, circuit.Invalid's, weighs the start and end pseudo-nodes and must
// be zero; every node's type needs a row. The dispatch contract and the
// bitwise guarantee are LongestPathMulti's, for the columns of weights the
// table assigns. tab does not escape, so a caller may keep it on its
// stack.
func (g *Graph) LongestPathMultiByType(tab []float64, k int, s *PathScratch) ([]CriticalPath, error) {
	if err := g.validateTable(tab, k); err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, nil
	}
	if s == nil {
		s = new(PathScratch)
	}
	return g.sweepMultiByType(tab, k, s, s.autoWorkers(len(g.Nodes))), nil
}

func (g *Graph) validateColumns(ws []Weights) error {
	for c, w := range ws {
		if len(w) != len(g.Nodes) {
			return fmt.Errorf("qodg: column %d: %d weights for %d nodes", c, len(w), len(g.Nodes))
		}
	}
	return nil
}

func validateSlab(wm []float64, n, k int) error {
	if k < 0 {
		return fmt.Errorf("qodg: %d weight columns", k)
	}
	if k > 0 && len(wm)/k < n {
		return fmt.Errorf("qodg: weight slab holds %d entries, want %d nodes × %d columns", len(wm), n, k)
	}
	return nil
}

// validateTable checks a k-column type table has a row for the type of
// every node of g.
func (g *Graph) validateTable(tab []float64, k int) error {
	if k < 0 {
		return fmt.Errorf("qodg: %d weight columns", k)
	}
	if k == 0 {
		return nil
	}
	rows := len(tab) / k
	for v := range g.Nodes {
		if t := g.Nodes[v].Op.Type; t < 0 || int(t) >= rows {
			return fmt.Errorf("qodg: node %d: gate type %v has no row in a %d-row × %d-column type table", v, t, rows, k)
		}
	}
	return nil
}

// packColumns transposes column-major weight vectors into the scratch's
// interleaved slab.
func (g *Graph) packColumns(ws []Weights, s *PathScratch) []float64 {
	s.weightM = grow(s.weightM, len(g.Nodes)*len(ws))
	packColumnsInto(ws, s.weightM)
	return s.weightM
}

func packColumnsInto(ws []Weights, wm []float64) {
	k := len(ws)
	for c, w := range ws {
		for v, wv := range w {
			wm[v*k+c] = wv
		}
	}
}

// sweepMultiByType runs the multi-column sweep over a validated type
// table. The serial pass reads tab in place. The parallel gang's closures
// may outlive the call as far as escape analysis can tell, so they read the
// scratch's copy instead: either way a caller's table can stay on its stack.
func (g *Graph) sweepMultiByType(tab []float64, k int, s *PathScratch, workers int) []CriticalPath {
	if workers == 0 {
		return g.sweepMultiSerial(weightRows{tab: tab, byType: true}, k, s)
	}
	s.typeTab = append(s.typeTab[:0], tab...)
	return g.sweepMulti(weightRows{tab: s.typeTab, byType: true}, k, s, workers)
}

// weightRows locates a node's K weights in a weight source: row v of a
// per-node slab, or row Nodes[v].Op.Type of a per-type table.
type weightRows struct {
	tab    []float64
	byType bool
}

func (w weightRows) row(g *Graph, v NodeID, k int) []float64 {
	r := int(v)
	if w.byType {
		r = int(g.Nodes[v].Op.Type)
	}
	return w.tab[r*k : r*k+k]
}

// sweepMulti relaxes all K columns of the validated weight source w and
// recovers every column's path. workers > 0 runs the level-partitioned
// relaxation with that many workers, 0 the serial pass.
func (g *Graph) sweepMulti(w weightRows, k int, s *PathScratch, workers int) []CriticalPath {
	if workers == 0 {
		return g.sweepMultiSerial(w, k, s)
	}
	g.growMulti(s, k)
	g.relaxParallelMulti(w, s, k, workers)
	return g.recoverPaths(s, k)
}

// sweepMultiSerial is sweepMulti's serial pass. Unlike sweepMulti, which
// hands w to the parallel gang, it lets no weight source escape.
func (g *Graph) sweepMultiSerial(w weightRows, k int, s *PathScratch) []CriticalPath {
	n := len(g.Nodes)
	g.growMulti(s, k)
	g.relaxRangeMulti(w, s.distM[:n*k], s.fromM[:n*k], k, 0, n)
	return g.recoverPaths(s, k)
}

func (g *Graph) growMulti(s *PathScratch, k int) {
	s.distM = grow(s.distM, len(g.Nodes)*k)
	s.fromM = grow(s.fromM, len(g.Nodes)*k)
}

// recoverPaths reads every column's critical path out of the multi-column
// slabs.
func (g *Graph) recoverPaths(s *PathScratch, k int) []CriticalPath {
	cps := make([]CriticalPath, k)
	for c := range cps {
		cps[c] = recoverPath(g, s, s.distM, s.fromM, k, c)
	}
	return cps
}

// relaxParallelMulti reuses the single-column sweep's level partition and
// worker gang verbatim — only the per-span kernel changes, so the adjacency
// and level index are built and streamed once for all K columns. Levels
// partition the node set and the span kernel writes every visited row, so
// grounding the level-0 sources explicitly (the level sweep starts at 1)
// replaces the global init pass.
func (g *Graph) relaxParallelMulti(w weightRows, s *PathScratch, k, workers int) {
	depth := g.buildLevelIndex(s, workers)
	dist := s.distM[:len(g.Nodes)*k]
	from := s.fromM[:len(g.Nodes)*k]
	g.relaxSpanMulti(w, dist, from, k, s.levelNodes[s.levelOff[0]:s.levelOff[1]])
	g.forEachLevel(s, workers, depth, func(span []NodeID) {
		g.relaxSpanMulti(w, dist, from, k, span)
	})
}

// relaxSpanMulti finalizes all K columns of a slice of same-level nodes,
// with relaxSpan's exact pull expression and tie rule per column.
func (g *Graph) relaxSpanMulti(w weightRows, dist []float64, from []int32, k int, span []NodeID) {
	for _, v := range span {
		g.relaxNodeMulti(w.row(g, v, k), dist, from, k, v)
	}
}

// relaxRangeMulti finalizes all K columns of every node in the contiguous
// ID range [lo, hi) — the serial pass. Node IDs are topologically ordered,
// so by the time the pass reaches v every predecessor's row is final and v
// can pull its own max — the same pull form relaxSpan uses, which
// reproduces relaxSerial's push byte-for-byte: predecessors arrive in the
// ascending order the push offers them in, the first offer is always taken
// and later offers only when strictly greater, with the identical
// dist[p]+w[v] expression.
func (g *Graph) relaxRangeMulti(w weightRows, dist []float64, from []int32, k, lo, hi int) {
	for v := lo; v < hi; v++ {
		g.relaxNodeMulti(w.row(g, NodeID(v), k), dist, from, k, NodeID(v))
	}
}

// relaxNodeMulti writes node v's K-column dist/from row from its finalized
// predecessors, with wv holding v's K weights. The first predecessor's
// offer is taken unconditionally and later ones only when strictly greater
// — exactly the push tie rule, which hands ties to the lowest-ID
// predecessor. A node without predecessors gets the ground state the push
// would have left untouched. Every row the loop touches — v's weights, v's
// state, each predecessor's distances — is a K-contiguous slice, so the
// node visit streams whole cache lines.
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
