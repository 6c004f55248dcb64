package qodg_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/oracle"
	"repro/internal/qodg"
)

// assertPathsBitwiseEqual compares two critical paths with no float
// tolerance: the kernel must reproduce the oracle byte for byte.
func assertPathsBitwiseEqual(t *testing.T, label string, got, want qodg.CriticalPath) {
	t.Helper()
	if math.Float64bits(got.Length) != math.Float64bits(want.Length) {
		t.Fatalf("%s: length %v (bits %x), want %v (bits %x)",
			label, got.Length, math.Float64bits(got.Length), want.Length, math.Float64bits(want.Length))
	}
	if !maps.Equal(got.CountByType, want.CountByType) {
		t.Fatalf("%s: CountByType %v, want %v", label, got.CountByType, want.CountByType)
	}
}

// paperSuite returns the benchmarks the equivalence test covers: all 18
// paper circuits normally, the sub-100k-operation subset under -short.
func paperSuite(t testing.TB) []string {
	t.Helper()
	if !testing.Short() {
		return benchgen.Names()
	}
	var out []string
	for _, name := range benchgen.Names() {
		if benchgen.Paper[name].Operations < 100000 {
			out = append(out, name)
		}
	}
	return out
}

// typeRows is the row count of the type tables below: one row per gate
// type up to CNOT, which covers every FT gate and the Invalid row 0.
const typeRows = int(circuit.CNOT) + 1

// columnTable builds a K-column type table with the estimator's two-value
// shape (CNOTs 1000.5, everything else 100.25) scaled per column so the K
// critical paths genuinely differ. The values collide across path
// prefixes, so the lowest-predecessor tie rule is actually exercised.
// Column c's weights depend on c alone, not on K.
func columnTable(k int) []float64 {
	tab := make([]float64, typeRows*k)
	for c := 0; c < k; c++ {
		scale := 1 + float64(c)*0.25
		for t := circuit.X; t < circuit.CNOT; t++ {
			tab[int(t)*k+c] = 100.25 * scale
		}
		tab[int(circuit.CNOT)*k+c] = 1000.5 * scale
	}
	return tab
}

// tableColumns expands a K-column type table into the per-node weight
// columns it assigns to the oracle's graph: column c of a node of type t
// weighs tab[t*K+c].
func tableColumns(ref *oracle.Graph, tab []float64, k int) [][]float64 {
	ws := make([][]float64, k)
	for c := range ws {
		ws[c] = make([]float64, len(ref.Types))
		for v, typ := range ref.Types {
			ws[c][v] = tab[int(typ)*k+c]
		}
	}
	return ws
}

// oracleGraph is c's QODG as the oracle builds it.
func oracleGraph(t *testing.T, c *circuit.Circuit) *oracle.Graph {
	t.Helper()
	ref, err := oracle.QODG(c)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// tableSlab is tableColumns interleaved: column c of node v at [v*K+c].
func tableSlab(g *qodg.Graph, tab []float64, k int) []float64 {
	wm := make([]float64, g.NumNodes()*k)
	for v, node := range g.Nodes {
		copy(wm[v*k:(v+1)*k], tab[int(node.Op.Type)*k:])
	}
	return wm
}

// entry is one critical-path entry point at one column count, run over a
// k-column type table.
type entry struct {
	name string
	k    int
	run  func(g *qodg.Graph, tab []float64, k int, s *qodg.PathScratch) ([]qodg.CriticalPath, error)
}

// entries lists every critical-path entry point: the one-column
// LongestPath, the by-type multi entry and the per-node slab entry, the
// latter two at several widths.
func entries() []entry {
	es := []entry{{"LongestPath", 1, func(g *qodg.Graph, tab []float64, _ int, s *qodg.PathScratch) ([]qodg.CriticalPath, error) {
		cp, err := g.LongestPath(tab, s)
		if err != nil {
			return nil, err
		}
		return []qodg.CriticalPath{cp}, nil
	}}}
	for _, k := range []int{1, 2, 3, 8} {
		es = append(es, entry{fmt.Sprintf("ByType/K%d", k), k, (*qodg.Graph).LongestPathMultiByType})
	}
	for _, k := range []int{1, 2, 8} {
		es = append(es, entry{fmt.Sprintf("Strided/K%d", k), k, func(g *qodg.Graph, tab []float64, k int, s *qodg.PathScratch) ([]qodg.CriticalPath, error) {
			return g.LongestPathMultiStrided(tableSlab(g, tab, k), k, s)
		}})
	}
	return es
}

// oracleColumn is the oracle's sweep of one weight column.
type oracleColumn struct {
	dist []float64
	from []qodg.NodeID
	path qodg.CriticalPath
}

// checkEntries runs every entry over columnTable(K) on c's QODG and
// compares each column with the oracle's sweep of c bitwise: the full
// dist/from state when s is non-nil, and the recovered path. Column c's
// oracle sweep is shared by every entry, since its weights do not depend
// on K.
func checkEntries(t *testing.T, label string, c *circuit.Circuit, s *qodg.PathScratch) {
	t.Helper()
	g, ref := build(t, c), oracleGraph(t, c)
	var want []oracleColumn
	for _, e := range entries() {
		tab := columnTable(e.k)
		got, err := e.run(g, tab, e.k, s)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, e.name, err)
		}
		if len(got) != e.k {
			t.Fatalf("%s/%s: %d paths for %d columns", label, e.name, len(got), e.k)
		}
		for c, w := range tableColumns(ref, tab, e.k) {
			if c == len(want) {
				dist, from, err := oracle.Relax(ref, w)
				if err != nil {
					t.Fatal(err)
				}
				path, err := oracle.LongestPath(ref, w)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, oracleColumn{dist, from, path})
			}
			at := fmt.Sprintf("%s/%s col %d", label, e.name, c)
			if s != nil {
				dist, from := s.SweepState()
				for v := range want[c].dist {
					if math.Float64bits(dist[v*e.k+c]) != math.Float64bits(want[c].dist[v]) {
						t.Fatalf("%s: dist[%d] = %v, oracle %v", at, v, dist[v*e.k+c], want[c].dist[v])
					}
					if from[v*e.k+c] != want[c].from[v] {
						t.Fatalf("%s: from[%d] = %d, oracle %d", at, v, from[v*e.k+c], want[c].from[v])
					}
				}
			}
			assertPathsBitwiseEqual(t, at, got[c], want[c].path)
		}
	}
}

// randomCircuit builds a synthetic circuit with rng-driven structure: some
// are wide and shallow, some deep and narrow.
func randomCircuit(rng *rand.Rand, qubits, gates int) *circuit.Circuit {
	c := circuit.New("rand", qubits)
	oneQ := []circuit.GateType{circuit.H, circuit.T, circuit.Tdg, circuit.X}
	for i := 0; i < gates; i++ {
		if rng.Intn(3) == 0 {
			c.Append(circuit.Gate{Type: oneQ[rng.Intn(len(oneQ))], Targets: []int{rng.Intn(qubits)}})
			continue
		}
		a := rng.Intn(qubits)
		b := rng.Intn(qubits)
		for b == a {
			b = rng.Intn(qubits)
		}
		c.Append(circuit.Gate{Type: circuit.CNOT, Controls: []int{a}, Targets: []int{b}})
	}
	return c
}

// TestLongestPathMultiMatchesSerialOnPaperBenchmarks is the critical-path
// contract: on every paper benchmark, every entry point at every width —
// LongestPath, and the by-type and per-node slab entries at K columns —
// reproduces the serial push oracle bitwise: dist, from, path nodes,
// length and per-type counts. One scratch serves every graph and width in
// turn; the pull writes every node instead of clearing first, so stale
// state from a wider sweep must not leak into a narrower one.
func TestLongestPathMultiMatchesSerialOnPaperBenchmarks(t *testing.T) {
	shared := new(qodg.PathScratch)
	for _, name := range paperSuite(t) {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		checkEntries(t, name, c, shared)
	}
}

// specialShapes are the circuits whose shapes the record kernel handles
// apart from the common gate: a zero-gate register, whose end node's only
// predecessor is the start; idle qubits, each a start→end edge; CNOTs
// whose two operands share a last writer, one merged edge; and an end node
// whose maximum ties between last writers met in descending ID order
// (qubit 0's writer is node 2, qubit 1's node 1), so the lowest ID must
// win. Under a type table or a tie-heavy slab the tied nodes weigh alike.
func specialShapes() []*circuit.Circuit {
	zero := circuit.New("zero-gate", 3)
	idle := circuit.New("idle-qubits", 5)
	idle.Append(circuit.NewOneQubit(circuit.H, 1), circuit.NewCNOT(1, 3), circuit.NewOneQubit(circuit.T, 3))
	shared := circuit.New("shared-writer", 2)
	shared.Append(circuit.NewCNOT(0, 1), circuit.NewCNOT(1, 0), circuit.NewOneQubit(circuit.H, 0))
	tie := circuit.New("end-tie", 3)
	tie.Append(circuit.NewOneQubit(circuit.H, 1), circuit.NewOneQubit(circuit.H, 0), circuit.NewOneQubit(circuit.X, 2))
	return []*circuit.Circuit{zero, idle, shared, tie}
}

// TestLongestPathMultiMatchesSerialOnRandomDAGs runs the same contract on
// seeded random DAGs of varied shape, on a one-gate circuit and on the
// special shapes, with one scratch reused from larger graphs to smaller
// ones (the 20,000-gate DAG of seed 3 precedes the 40-gate one of seed 4,
// and the small circuits come last), and once with no scratch at all.
func TestLongestPathMultiMatchesSerialOnRandomDAGs(t *testing.T) {
	shared := new(qodg.PathScratch)
	shapes := []struct{ qubits, gates int }{
		{3, 40},      // tiny
		{200, 3000},  // wide and shallow
		{16, 5000},   // deep and narrow
		{512, 20000}, // wide
	}
	for seed := int64(1); seed <= 6; seed++ {
		shape := shapes[int(seed)%len(shapes)]
		c := randomCircuit(rand.New(rand.NewSource(seed)), shape.qubits, shape.gates)
		checkEntries(t, fmt.Sprintf("rand/seed%d", seed), c, shared)
	}
	one := circuit.New("one", 1)
	one.Append(circuit.NewOneQubit(circuit.H, 0))
	checkEntries(t, "one-gate", one, shared)
	checkEntries(t, "one-gate/nil-scratch", one, nil)
	for _, c := range specialShapes() {
		checkEntries(t, c.Name, c, shared)
	}
}

// tieSlab draws a K-column per-node weight slab from a tiny value set, so
// exact max-ties between predecessors are common. Unlike a type table it
// weighs two nodes of one gate type differently. The start and end
// pseudo-nodes weigh zero, as they do in every estimator table.
func tieSlab(rng *rand.Rand, g *qodg.Graph, k int) []float64 {
	values := []float64{1, 1, 2, 2.5} // duplicates make exact ties likely
	wm := make([]float64, g.NumNodes()*k)
	for v, node := range g.Nodes {
		if node.Op.Type == circuit.Invalid {
			continue
		}
		for c := 0; c < k; c++ {
			wm[v*k+c] = values[rng.Intn(len(values))]
		}
	}
	return wm
}

// checkGangs runs LongestPathMultiStrided over the K-column slab wm once
// per gang size, through one shared scratch whose MaxWorkers asks for that
// many workers, and compares every column with the serial oracle's sweep
// of ref bitwise: the full dist/from state and the recovered path.
func checkGangs(t *testing.T, label string, g *qodg.Graph, ref *oracle.Graph, wm []float64, k int, gangs []int, s *qodg.PathScratch) {
	t.Helper()
	want := make([]oracleColumn, k)
	for c := range want {
		w := make([]float64, g.NumNodes())
		for v := range w {
			w[v] = wm[v*k+c]
		}
		dist, from, err := oracle.Relax(ref, w)
		if err != nil {
			t.Fatal(err)
		}
		path, err := oracle.LongestPath(ref, w)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = oracleColumn{dist, from, path}
	}
	for _, gang := range gangs {
		s.MaxWorkers = gang
		got, err := g.LongestPathMultiStrided(wm, k, s)
		if err != nil {
			t.Fatalf("%s/K%d/gang%d: %v", label, k, gang, err)
		}
		dist, from := s.SweepState()
		for c := range want {
			at := fmt.Sprintf("%s/K%d/gang%d col %d", label, k, gang, c)
			for v := range want[c].dist {
				if math.Float64bits(dist[v*k+c]) != math.Float64bits(want[c].dist[v]) {
					t.Fatalf("%s: dist[%d] = %v, oracle %v", at, v, dist[v*k+c], want[c].dist[v])
				}
				if from[v*k+c] != want[c].from[v] {
					t.Fatalf("%s: from[%d] = %d, oracle %d", at, v, from[v*k+c], want[c].from[v])
				}
			}
			assertPathsBitwiseEqual(t, at, got[c], want[c].path)
		}
	}
}

// TestLongestPathParallelMatchesSerialOnPaperBenchmarks: cmd/leqabench's
// replay hands LongestPathMultiStrided a scratch whose MaxWorkers is its
// gang size. The sweep is serial and ignores the field, so on every paper
// benchmark, with per-node tie-heavy weights, a scratch asking for 1, 2, 4
// or 7 workers gives the serial oracle's dist, from and path bitwise. One
// scratch is shared across every circuit, so stale state must not leak.
func TestLongestPathParallelMatchesSerialOnPaperBenchmarks(t *testing.T) {
	shared := new(qodg.PathScratch)
	for i, name := range paperSuite(t) {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		g := build(t, c)
		wm := tieSlab(rand.New(rand.NewSource(int64(i))), g, 1)
		checkGangs(t, name, g, oracleGraph(t, c), wm, 1, []int{1, 2, 4, 7}, shared)
	}
}

// TestLongestPathParallelMatchesSerialOnRandomDAGs runs the same contract
// on seeded random DAGs of varied shape and on the special shapes, at one
// and three per-node tie-heavy columns, with gang sizes 2, 3 and 8 and one
// scratch shared across every graph.
func TestLongestPathParallelMatchesSerialOnRandomDAGs(t *testing.T) {
	shared := new(qodg.PathScratch)
	shapes := []struct{ qubits, gates int }{
		{3, 40},      // tiny
		{200, 3000},  // wide and shallow
		{16, 5000},   // deep and narrow
		{512, 20000}, // wide
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[int(seed)%len(shapes)]
		c := randomCircuit(rng, shape.qubits, shape.gates)
		g, ref := build(t, c), oracleGraph(t, c)
		for _, k := range []int{1, 3} {
			checkGangs(t, fmt.Sprintf("rand/seed%d", seed), g, ref, tieSlab(rng, g, k), k, []int{2, 3, 8}, shared)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range specialShapes() {
		g, ref := build(t, c), oracleGraph(t, c)
		for _, k := range []int{1, 3} {
			checkGangs(t, c.Name, g, ref, tieSlab(rng, g, k), k, []int{2}, shared)
		}
	}
}

// TestLongestPathWeightLengthMismatch: a weight source too short for the
// graph fails every entry with an error, never a panic — a slab short of K
// rows per node, and a type table shorter than one row.
func TestLongestPathWeightLengthMismatch(t *testing.T) {
	g := build(t, randomCircuit(rand.New(rand.NewSource(7)), 4, 10))
	if _, err := g.LongestPath(columnTable(1)[:0], nil); err == nil {
		t.Error("LongestPath accepted an empty table")
	}
	for _, k := range []int{1, 2} {
		slab := tableSlab(g, columnTable(k), k)
		if got, err := g.LongestPathMultiStrided(slab[:len(slab)-1], k, nil); err == nil || got != nil {
			t.Errorf("K=%d: LongestPathMultiStrided accepted a short slab", k)
		}
		var mr *qodg.MissingRowError
		if got, err := g.LongestPathMultiByType(columnTable(k)[:k-1], k, nil); !errors.As(err, &mr) || got != nil {
			t.Errorf("K=%d: LongestPathMultiByType on a table shorter than one row: err %v, want a MissingRowError", k, err)
		}
	}
}
