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

// columnWeights builds K distinct weight vectors for g, each with the
// estimator's two-value shape (CNOTs one latency, everything else another)
// scaled per column so the K critical paths genuinely differ. The values
// still collide across path prefixes, keeping the tie rule exercised.
func columnWeights(g *qodg.Graph, k int) []qodg.Weights {
	ws := make([]qodg.Weights, k)
	for c := 0; c < k; c++ {
		scale := 1 + float64(c)*0.25
		ws[c] = g.NewWeights(func(gt circuit.Gate) float64 {
			if gt.Type == circuit.CNOT {
				return 1000.5 * scale
			}
			return 100.25 * scale
		})
	}
	return ws
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
// serial, forced-parallel at several worker counts, and auto-dispatched —
// must reproduce the per-column serial oracle bitwise (dist, from, path
// nodes, length, per-type counts), with one scratch shared across all
// circuits and column counts so stale slab state cannot leak through.
func TestLongestPathMultiMatchesSerialOnPaperBenchmarks(t *testing.T) {
	shared := new(qodg.PathScratch)
	for _, name := range paperSuite(t) {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		g := build(t, c)
		for _, k := range []int{1, 2, 3, 8} {
			ws := columnWeights(g, k)
			for _, workers := range []int{1, 2, 4, 7} {
				got, err := g.LongestPathMultiParallel(ws, shared, workers)
				if err != nil {
					t.Fatal(err)
				}
				label := name
				assertMultiMatchesSerial(t, label, g, ws, got)
				assertMultiSweepStateEqual(t, label, g, ws, shared)
			}
			got, err := g.LongestPathMulti(ws, shared)
			if err != nil {
				t.Fatal(err)
			}
			assertMultiMatchesSerial(t, name+"/auto", g, ws, got)
		}
	}
}

// TestLongestPathMultiMatchesSerialOnRandomDAGs fuzzes the multi-column
// equivalence over randomized layered DAGs with tie-heavy weights: values
// drawn from a tiny set per column, so exact max-ties are common and any
// deviation from the lowest-predecessor tie rule in the strided kernels
// shows up immediately.
func TestLongestPathMultiMatchesSerialOnRandomDAGs(t *testing.T) {
	shared := new(qodg.PathScratch)
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
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := g.LongestPathMultiParallel(ws, shared, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertMultiMatchesSerial(t, c.Name, g, ws, got)
			assertMultiSweepStateEqual(t, c.Name, g, ws, shared)
		}
	}
}

// TestLongestPathMultiAutoThreshold pins the dispatch contract: the auto
// entry point agrees with the oracle whichever side of qodg.ParallelThreshold the
// graph lands on, and MaxWorkers=1 forces the serial multi kernel.
func TestLongestPathMultiAutoThreshold(t *testing.T) {
	defer func(old int) { qodg.ParallelThreshold = old }(qodg.ParallelThreshold)
	c := randomCircuit(rand.New(rand.NewSource(42)), 64, 2000)
	g := build(t, c)
	ws := columnWeights(g, 3)
	for _, threshold := range []int{1, 1 << 30} {
		qodg.ParallelThreshold = threshold
		got, err := g.LongestPathMulti(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertMultiMatchesSerial(t, "auto", g, ws, got)
	}
	qodg.ParallelThreshold = 1
	for _, maxWorkers := range []int{1, 2} {
		s := &qodg.PathScratch{MaxWorkers: maxWorkers}
		got, err := g.LongestPathMulti(ws, s)
		if err != nil {
			t.Fatal(err)
		}
		assertMultiMatchesSerial(t, "maxworkers", g, ws, got)
	}
}

// TestLongestPathMultiValidation covers the error and edge paths of every
// multi entry point: a short column anywhere rejects the whole call, and an
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
	for _, fn := range []func() ([]qodg.CriticalPath, error){
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMulti(nil, nil) },
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiParallel(nil, nil, 4) },
	} {
		got, err := fn()
		if err != nil || got != nil {
			t.Errorf("empty column set: got %v, %v; want nil, nil", got, err)
		}
	}
}
