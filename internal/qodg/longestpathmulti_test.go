package qodg_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/oracle"
	"repro/internal/qodg"
)

// typeRows is the row count of the type tables below: one row per gate
// type up to CNOT, which covers every FT gate and the Invalid row 0.
const typeRows = int(circuit.CNOT) + 1

// columnTable builds a K-column type table with the estimator's two-value
// shape (CNOTs one latency, everything else another) scaled per column so
// the K critical paths genuinely differ. The values still collide across
// path prefixes, keeping the tie rule exercised.
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
// columns it assigns: column c of a node of type t weighs tab[t*K+c].
func tableColumns(g *qodg.Graph, tab []float64, k int) []qodg.Weights {
	ws := make([]qodg.Weights, k)
	for c := range ws {
		ws[c] = make(qodg.Weights, g.NumNodes())
		for v, node := range g.Nodes {
			ws[c][v] = tab[int(node.Op.Type)*k+c]
		}
	}
	return ws
}

// assertByTypeMatchesSerial runs LongestPathMultiByType on tab serially
// (through serial, a MaxWorkers=1 scratch) and forced-parallel at each
// worker count (through shared), checking the relaxation state and every
// recovered column against the single-column serial oracle on the weights
// the table assigns.
func assertByTypeMatchesSerial(t *testing.T, label string, g *qodg.Graph, tab []float64, k int, serial, shared *qodg.PathScratch, workers []int) {
	t.Helper()
	ws := tableColumns(g, tab, k)
	got, err := g.LongestPathMultiByType(tab, k, serial)
	if err != nil {
		t.Fatal(err)
	}
	assertMultiMatchesSerial(t, label+"/bytype", g, ws, got)
	assertMultiSweepStateEqual(t, label+"/bytype", g, ws, serial)
	for _, w := range workers {
		got, err := g.LongestPathMultiByTypeParallel(tab, k, shared, w)
		if err != nil {
			t.Fatal(err)
		}
		assertMultiMatchesSerial(t, label+"/bytype-parallel", g, ws, got)
		assertMultiSweepStateEqual(t, label+"/bytype-parallel", g, ws, shared)
	}
}

// assertMultiSweepStateEqual recomputes each column's dist/from with the
// serial single-column oracle and compares it bitwise against the scratch's
// SoA slabs — strictly stronger than comparing recovered paths.
func assertMultiSweepStateEqual(t *testing.T, label string, g *qodg.Graph, ws []qodg.Weights, s *qodg.PathScratch) {
	t.Helper()
	k := len(ws)
	distM, fromM := s.MultiSweepState()
	for c, w := range ws {
		dist, from, err := oracle.Relax(g, w)
		if err != nil {
			t.Fatal(err)
		}
		for v := range dist {
			if math.Float64bits(dist[v]) != math.Float64bits(distM[v*k+c]) {
				t.Fatalf("%s: col %d: dist[%d] = %v, serial %v", label, c, v, distM[v*k+c], dist[v])
			}
			if from[v] != fromM[v*k+c] {
				t.Fatalf("%s: col %d: from[%d] = %d, serial %d", label, c, v, fromM[v*k+c], from[v])
			}
		}
	}
}

// assertMultiMatchesSerial checks every column of a multi-sweep result
// against the single-column serial oracle.
func assertMultiMatchesSerial(t *testing.T, label string, g *qodg.Graph, ws []qodg.Weights, got []qodg.CriticalPath) {
	t.Helper()
	if len(got) != len(ws) {
		t.Fatalf("%s: %d paths for %d columns", label, len(got), len(ws))
	}
	for c, w := range ws {
		want, err := oracle.LongestPath(g, w)
		if err != nil {
			t.Fatal(err)
		}
		assertPathsBitwiseEqual(t, label, got[c], want)
	}
}

// TestLongestPathMultiMatchesSerialOnPaperBenchmarks is the batched kernel's
// contract: on every paper benchmark, each column of the multi-weight sweep —
// strided and by-type, serial, forced-parallel at several worker counts, and
// auto-dispatched — must reproduce the per-column serial oracle bitwise
// (dist, from, path nodes, length, per-type counts), with one scratch shared
// across all circuits and column counts so stale slab state cannot leak
// through.
func TestLongestPathMultiMatchesSerialOnPaperBenchmarks(t *testing.T) {
	shared := new(qodg.PathScratch)
	serial := &qodg.PathScratch{MaxWorkers: 1}
	workers := []int{1, 2, 4, 7}
	for _, name := range paperSuite(t) {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		g := build(t, c)
		for _, k := range []int{1, 2, 3, 8} {
			tab := columnTable(k)
			ws := tableColumns(g, tab, k)
			for _, w := range workers {
				got, err := g.LongestPathMultiParallel(ws, shared, w)
				if err != nil {
					t.Fatal(err)
				}
				assertMultiMatchesSerial(t, name, g, ws, got)
				assertMultiSweepStateEqual(t, name, g, ws, shared)
			}
			got, err := g.LongestPathMulti(ws, shared)
			if err != nil {
				t.Fatal(err)
			}
			assertMultiMatchesSerial(t, name+"/auto", g, ws, got)
			assertByTypeMatchesSerial(t, name, g, tab, k, serial, shared, workers)
		}
	}
}

// TestLongestPathMultiMatchesSerialOnRandomDAGs fuzzes the multi-column
// equivalence over randomized layered DAGs with tie-heavy weights: values
// drawn from a tiny set per column (per node for the strided kernel, per
// gate type for the by-type one), so exact max-ties are common and any
// deviation from the lowest-predecessor tie rule shows up immediately.
func TestLongestPathMultiMatchesSerialOnRandomDAGs(t *testing.T) {
	shared := new(qodg.PathScratch)
	serial := &qodg.PathScratch{MaxWorkers: 1}
	shapes := []struct{ qubits, gates int }{
		{3, 40},      // tiny, near-serial
		{200, 3000},  // wide and shallow
		{16, 5000},   // deep and narrow
		{512, 20000}, // wide, spans many chunks at small grains
	}
	tieValues := []float64{1, 1, 2, 2.5} // duplicates make exact ties likely
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[int(seed)%len(shapes)]
		c := randomCircuit(rng, shape.qubits, shape.gates)
		g := build(t, c)
		k := 1 + int(seed)%4
		ws := make([]qodg.Weights, k)
		for col := range ws {
			ws[col] = g.NewWeights(func(gt circuit.Gate) float64 {
				return tieValues[rng.Intn(len(tieValues))]
			})
		}
		workers := []int{1, 2, 3, 8}
		for _, w := range workers {
			got, err := g.LongestPathMultiParallel(ws, shared, w)
			if err != nil {
				t.Fatal(err)
			}
			assertMultiMatchesSerial(t, c.Name, g, ws, got)
			assertMultiSweepStateEqual(t, c.Name, g, ws, shared)
		}
		// The by-type kernel gets a tie-heavy table of its own: weights
		// here depend on the gate type alone, so they come per (type,
		// column) rather than per node.
		tab := make([]float64, typeRows*k)
		for i := k; i < len(tab); i++ {
			tab[i] = tieValues[rng.Intn(len(tieValues))]
		}
		assertByTypeMatchesSerial(t, c.Name, g, tab, k, serial, shared, workers)
	}
}

// TestLongestPathMultiAutoThreshold pins the dispatch contract: both auto
// entry points (weight columns and type table) agree with the oracle
// whichever side of qodg.ParallelThreshold the graph lands on, and
// MaxWorkers=1 forces the serial multi kernel.
func TestLongestPathMultiAutoThreshold(t *testing.T) {
	defer func(old int) { qodg.ParallelThreshold = old }(qodg.ParallelThreshold)
	c := randomCircuit(rand.New(rand.NewSource(42)), 64, 2000)
	g := build(t, c)
	tab := columnTable(3)
	ws := tableColumns(g, tab, 3)
	check := func(label string, s *qodg.PathScratch) {
		t.Helper()
		got, err := g.LongestPathMulti(ws, s)
		if err != nil {
			t.Fatal(err)
		}
		assertMultiMatchesSerial(t, label, g, ws, got)
		if got, err = g.LongestPathMultiByType(tab, 3, s); err != nil {
			t.Fatal(err)
		}
		assertMultiMatchesSerial(t, label+"/bytype", g, ws, got)
	}
	for _, threshold := range []int{1, 1 << 30} {
		qodg.ParallelThreshold = threshold
		check("auto", nil)
	}
	qodg.ParallelThreshold = 1
	for _, maxWorkers := range []int{1, 2} {
		check("maxworkers", &qodg.PathScratch{MaxWorkers: maxWorkers})
	}
}

// TestLongestPathMultiValidation covers the error and edge paths of every
// multi entry point: a short column anywhere rejects the whole call, as do
// a short slab, a negative column count, a node type with no table row and
// a table too short for one row — each an error, never a panic — and an
// empty column set is a no-op.
func TestLongestPathMultiValidation(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(7)), 4, 10)
	g := build(t, c)
	good := coreWeights(g)
	bad := make(qodg.Weights, g.NumNodes()-1)
	for _, ws := range [][]qodg.Weights{{bad}, {good, bad}} {
		if _, err := g.LongestPathMulti(ws, nil); err == nil {
			t.Error("LongestPathMulti accepted a short weight column")
		}
		if _, err := g.LongestPathMultiParallel(ws, nil, 4); err == nil {
			t.Error("LongestPathMultiParallel accepted a short weight column")
		}
	}
	const k = 2
	slab := make([]float64, g.NumNodes()*k)
	tab := columnTable(k)
	swapped := build(t, c)
	swapped.Nodes[1].Op.Type = circuit.Swap // a type past the table's rows
	for _, tc := range []struct {
		name string
		call func() ([]qodg.CriticalPath, error)
	}{
		{"strided short slab", func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiStrided(slab[:len(slab)-1], k, nil) }},
		{"strided negative k", func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiStrided(slab, -1, nil) }},
		{"by-type negative k", func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiByType(tab, -1, nil) }},
		{"by-type node type without a row", func() ([]qodg.CriticalPath, error) { return swapped.LongestPathMultiByType(tab, k, nil) }},
		{"by-type table shorter than one row", func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiByType(tab[:k-1], k, nil) }},
		{"by-type table missing the CNOT row", func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiByType(tab[:len(tab)-1], k, nil) }},
		{"by-type parallel negative k", func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiByTypeParallel(tab, -1, nil, 4) }},
		{"by-type parallel node type without a row", func() ([]qodg.CriticalPath, error) {
			return swapped.LongestPathMultiByTypeParallel(tab, k, nil, 4)
		}},
	} {
		if got, err := tc.call(); err == nil || got != nil {
			t.Errorf("%s: got %d paths, err %v; want an error", tc.name, len(got), err)
		}
	}
	for _, fn := range []func() ([]qodg.CriticalPath, error){
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMulti(nil, nil) },
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiParallel(nil, nil, 4) },
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiStrided(nil, 0, nil) },
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiByType(nil, 0, nil) },
	} {
		got, err := fn()
		if err != nil || got != nil {
			t.Errorf("empty column set: got %v, %v; want nil, nil", got, err)
		}
	}
}
