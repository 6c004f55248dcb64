// Package iig implements the Interaction Intensity Graph of LEQA §3.1:
// an undirected weighted graph whose nodes are logical qubits and whose edge
// weights count the two-qubit operations between each qubit pair. The graph
// has no self loops (one-qubit operations add nothing).
//
// From the IIG the package derives the quantities LEQA consumes: per-qubit
// degree M_i, per-qubit adjacent weight sum ΣW_i, presence-zone areas
// B_i = M_i + 1 (Eq. 6) and the fabric-wide weighted average B (Eq. 7).
//
// Adjacency is stored in compressed-sparse-row form: per qubit, a sorted
// slice of distinct neighbors with a parallel weight slice. Circuits reach
// it through internal/analysis, whose passes stream the gate list into a
// flat multigraph incidence array (no per-qubit maps); FromIncidence then
// sorts the rows by a counting transpose and collapses duplicate neighbors
// into weights.
package iig

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is the interaction intensity graph over Q logical qubits. Immutable
// after construction; build one with analysis.Analyze or FromIncidence.
type Graph struct {
	// Q is the number of logical qubits (nodes), including isolated ones.
	Q int

	off []int32 // Q+1 row offsets into nbr/wt
	nbr []int32 // distinct neighbors, ascending within each row
	wt  []int32 // wt[k] = w(e) for the pair (row, nbr[k]); symmetric
	// adjw[i] caches ΣW_i, the row sum of wt — every Eq. 7/12 weighting
	// walks it, so it is precomputed once.
	adjw []int32
	// totalWeight is Σ_ij w(e_ij) over unordered pairs.
	totalWeight int
}

// Scratch holds the reusable storage of FromIncidenceScratch: the Graph
// header plus its offset/weight/degree arrays and the transpose buffer,
// recycled across circuits by the analysis arena. A zero Scratch is ready to use.
type Scratch struct {
	g      Graph
	adjw   []int32
	off    []int32
	wt     []int32
	sorted []int32
}

// FromIncidence assembles a Graph from multigraph CSR incidence data: off
// holds q+1 row offsets into nbr, and each nbr entry is one unit-weight
// interaction endpoint. The incidence must be symmetric — each two-qubit op
// appears once in either endpoint's row, so b occurs in row a exactly as
// often as a in row b — which is what lets the rows be sorted by a counting
// transpose. Duplicate neighbors are collapsed into weights, written back
// into nbr. The analysis layer calls this after its fused counting/fill
// pass.
func FromIncidence(q int, off []int32, nbr []int32) *Graph {
	return fromIncidence(q, off, nbr, new(Scratch), true)
}

// FromIncidenceScratch is FromIncidence into arena-owned storage: the
// returned graph is sc's embedded header, aliases sc's buffers plus the
// caller's nbr array, and stays valid only until the next call with the
// same scratch. Heavily collapsed rows are not cloned to tight arrays here
// — the incidence backing store is arena memory about to be reused anyway,
// so pinning it costs nothing.
func FromIncidenceScratch(q int, off []int32, nbr []int32, sc *Scratch) *Graph {
	return fromIncidence(q, off, nbr, sc, false)
}

func fromIncidence(q int, off []int32, nbr []int32, sc *Scratch, clone bool) *Graph {
	if cap(sc.adjw) < q {
		sc.adjw = make([]int32, q)
	}
	if cap(sc.off) < q+1 {
		sc.off = make([]int32, q+1)
	}
	g := &sc.g
	*g = Graph{
		Q:           q,
		adjw:        sc.adjw[:q],
		totalWeight: len(nbr) / 2,
	}
	newOff := sc.off[:q+1]
	wt := sc.wt[:0]
	if clone && cap(wt) < len(nbr) {
		wt = make([]int32, 0, len(nbr))
	}
	// Counting transpose: by symmetry, row u holds v once per entry u in
	// row v, so visiting the rows in ascending order and appending each
	// row's index to the rows of its entries lists every row in ascending
	// order, in O(E) with no comparison sort. newOff serves as the cursors.
	sorted := sc.sorted
	if cap(sorted) < len(nbr) {
		sorted = make([]int32, len(nbr))
	}
	sorted = sorted[:len(nbr)]
	if !clone {
		sc.sorted = sorted
	}
	copy(newOff, off[:q])
	for v := 0; v < q; v++ {
		for _, u := range nbr[off[v]:off[v+1]] {
			sorted[newOff[u]] = int32(v)
			newOff[u]++
		}
	}
	w := int32(0) // compaction write cursor into nbr
	for i := 0; i < q; i++ {
		newOff[i] = w
		row := sorted[off[i]:off[i+1]]
		g.adjw[i] = int32(len(row))
		for k := 0; k < len(row); {
			run := k + 1
			for run < len(row) && row[run] == row[k] {
				run++
			}
			nbr[w] = row[k]
			wt = append(wt, int32(run-k))
			w++
			k = run
		}
	}
	newOff[q] = w
	g.off = newOff
	if !clone {
		// Keep the grown wt backing array for the next scratch build; the
		// clone path must NOT do this — its Scratch is throwaway, and
		// retaining the full-length wt buffer in a struct the returned
		// Graph points into would pin it (and defeat the tight-copy below)
		// for the graph's lifetime.
		sc.wt = wt
		g.nbr = nbr[:w]
		g.wt = wt
		return g
	}
	// Duplicate collapse can shrink the row data by orders of magnitude
	// (benchmark circuits repeat the same qubit pairs heavily), and graphs
	// can outlive the build by a whole sweep — copy to tight arrays rather
	// than pin the full incidence backing store.
	if int(w) < len(nbr) {
		g.nbr = slices.Clone(nbr[:w])
		g.wt = slices.Clone(wt)
	} else {
		g.nbr = nbr
		g.wt = wt
	}
	return g
}

// FromCSRWeights assembles a Graph directly from already-collapsed CSR
// rows: off holds q+1 offsets into nbr/wt, each row's neighbors are sorted
// ascending and distinct, and weights are symmetric (w(a,b) recorded in
// both rows). The per-qubit adjacent-weight sums and the total weight are
// recomputed here, so a graph built from rows (the oracle's adjacency
// lists, in internal/oracle) carries exactly the derived quantities
// FromIncidence would have produced. The input slices are adopted, not
// copied.
func FromCSRWeights(q int, off, nbr, wt []int32) (*Graph, error) {
	if len(off) != q+1 || len(nbr) != len(wt) {
		return nil, fmt.Errorf("iig: CSR shape mismatch: %d offsets for %d qubits, %d neighbors vs %d weights",
			len(off), q, len(nbr), len(wt))
	}
	if q > 0 && int(off[q]) != len(nbr) {
		return nil, fmt.Errorf("iig: CSR offsets end at %d, want %d", off[q], len(nbr))
	}
	g := &Graph{Q: q, off: off, nbr: nbr, wt: wt, adjw: make([]int32, q)}
	total := 0
	for i := 0; i < q; i++ {
		if off[i] < 0 || off[i] > off[i+1] {
			return nil, fmt.Errorf("iig: row %d offsets [%d,%d) malformed", i, off[i], off[i+1])
		}
		sum := int32(0)
		for k := off[i]; k < off[i+1]; k++ {
			if n := nbr[k]; n < 0 || int(n) >= q || n == int32(i) {
				return nil, fmt.Errorf("iig: row %d neighbor %d out of range [0,%d)", i, n, q)
			}
			if k > off[i] && nbr[k] <= nbr[k-1] {
				return nil, fmt.Errorf("iig: row %d neighbors not sorted/distinct at %d", i, k)
			}
			if wt[k] <= 0 {
				return nil, fmt.Errorf("iig: row %d weight %d must be positive", i, wt[k])
			}
			sum += wt[k]
		}
		g.adjw[i] = sum
		total += int(sum)
	}
	// Each unordered pair's weight is recorded in both endpoint rows.
	if total%2 != 0 {
		return nil, fmt.Errorf("iig: asymmetric CSR weights (odd total %d)", total)
	}
	g.totalWeight = total / 2
	return g, nil
}

// Degree returns M_i = deg(n_i), the number of distinct interaction
// partners of qubit i.
func (g *Graph) Degree(i int) int { return int(g.off[i+1] - g.off[i]) }

// AdjWeightSum returns ΣW_i = Σ_{j ∈ adj(i)} w(e_ij).
func (g *Graph) AdjWeightSum(i int) int { return int(g.adjw[i]) }

// Weight returns w(e_ab), 0 if absent.
func (g *Graph) Weight(a, b int) int {
	row := g.nbr[g.off[a]:g.off[a+1]]
	k, ok := slices.BinarySearch(row, int32(b))
	if !ok {
		return 0
	}
	return int(g.wt[int(g.off[a])+k])
}

// TotalWeight returns the total two-qubit operation count (Σ over unordered
// pairs of w(e_ij)); equals the circuit's two-qubit gate count.
func (g *Graph) TotalWeight() int { return g.totalWeight }

// NumEdges returns the number of distinct interacting pairs.
func (g *Graph) NumEdges() int { return len(g.nbr) / 2 }

// Neighbors returns qubit i's interaction partners in ascending order. The
// result is freshly allocated; callers may reorder it.
func (g *Graph) Neighbors(i int) []int {
	row := g.nbr[g.off[i]:g.off[i+1]]
	out := make([]int, len(row))
	for k, v := range row {
		out[k] = int(v)
	}
	return out
}

// ZoneArea returns B_i = √(M_i+1) · √(M_i+1) = M_i + 1 (Eq. 6), the modeled
// presence-zone area of qubit i in ULB units.
func (g *Graph) ZoneArea(i int) float64 { return float64(g.Degree(i) + 1) }

// AverageZoneArea computes B (Eq. 7): the average of B_i over all qubits,
// weighted by each qubit's adjacent edge-weight sum ΣW_i. Qubits that never
// interact carry zero weight and drop out. Returns 1 (a single-ULB zone) if
// no qubit interacts at all, so downstream geometry stays well defined.
func (g *Graph) AverageZoneArea() float64 {
	num, den := 0.0, 0.0
	for i := 0; i < g.Q; i++ {
		w := float64(g.adjw[i])
		num += w * g.ZoneArea(i)
		den += w
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// WeightedAverage computes Σ_i ΣW_i·f(i) / Σ_i ΣW_i — the Eq. 7/Eq. 12
// weighting pattern over arbitrary per-qubit values. Returns 0 when no qubit
// interacts.
func (g *Graph) WeightedAverage(f func(i int) float64) float64 {
	num, den := 0.0, 0.0
	for i := 0; i < g.Q; i++ {
		w := float64(g.adjw[i])
		if w == 0 {
			continue
		}
		num += w * f(i)
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// InteractingQubits returns the qubits with M_i > 0, ascending.
func (g *Graph) InteractingQubits() []int {
	out := make([]int, 0, g.Q)
	for i := 0; i < g.Q; i++ {
		if g.off[i+1] > g.off[i] {
			out = append(out, i)
		}
	}
	return out
}

// Edge is one undirected IIG edge with its weight.
type Edge struct {
	A, B   int // A < B
	Weight int
}

// Edges lists all edges sorted by (A, B); deterministic for reports and
// placement seeds. The CSR rows are already sorted, so this is one linear
// walk keeping each pair's low-endpoint occurrence.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for a := 0; a < g.Q; a++ {
		for k := g.off[a]; k < g.off[a+1]; k++ {
			if b := int(g.nbr[k]); a < b {
				out = append(out, Edge{A: a, B: b, Weight: int(g.wt[k])})
			}
		}
	}
	return out
}

// BFSOrder returns all Q qubits in breadth-first order over the IIG,
// starting from the highest-ΣW qubit of each connected component, visiting
// heavier edges first. QSPR's clustered placement uses this to put strongly
// interacting qubits near each other on the fabric.
func (g *Graph) BFSOrder() []int {
	visited := make([]bool, g.Q)
	order := make([]int, 0, g.Q)

	// Component seeds: all qubits sorted by descending ΣW, ties by index.
	seeds := make([]int, g.Q)
	for i := range seeds {
		seeds[i] = i
	}
	sort.Slice(seeds, func(a, b int) bool {
		wa, wb := g.adjw[seeds[a]], g.adjw[seeds[b]]
		if wa != wb {
			return wa > wb
		}
		return seeds[a] < seeds[b]
	})

	for _, seed := range seeds {
		if visited[seed] {
			continue
		}
		queue := []int{seed}
		visited[seed] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			nbrs := g.Neighbors(u)
			row := int(g.off[u])
			weightOf := func(v int) int32 {
				k, _ := slices.BinarySearch(g.nbr[g.off[u]:g.off[u+1]], int32(v))
				return g.wt[row+k]
			}
			sort.Slice(nbrs, func(a, b int) bool {
				wa, wb := weightOf(nbrs[a]), weightOf(nbrs[b])
				if wa != wb {
					return wa > wb
				}
				return nbrs[a] < nbrs[b]
			})
			for _, v := range nbrs {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return order
}
