package qodg_test

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/oracle"
	"repro/internal/qodg"
)

// pathsBitwiseEqual compares two critical paths with no float tolerance:
// the parallel sweep must reproduce the serial oracle byte for byte.
func assertPathsBitwiseEqual(t *testing.T, label string, got, want qodg.CriticalPath) {
	t.Helper()
	if math.Float64bits(got.Length) != math.Float64bits(want.Length) {
		t.Fatalf("%s: length %v (bits %x), want %v (bits %x)",
			label, got.Length, math.Float64bits(got.Length), want.Length, math.Float64bits(want.Length))
	}
	if !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("%s: path nodes diverge: %d vs %d nodes (first few: %v vs %v)",
			label, len(got.Nodes), len(want.Nodes), head(got.Nodes), head(want.Nodes))
	}
	if !maps.Equal(got.CountByType, want.CountByType) {
		t.Fatalf("%s: CountByType %v, want %v", label, got.CountByType, want.CountByType)
	}
}

func head(n []qodg.NodeID) []qodg.NodeID {
	if len(n) > 8 {
		return n[:8]
	}
	return n
}

// assertSweepStateEqual compares the full dist/from relaxation state, which
// is strictly stronger than comparing recovered paths.
func assertSweepStateEqual(t *testing.T, label string, g *qodg.Graph, w qodg.Weights, s *qodg.PathScratch) {
	t.Helper()
	dist, from, err := oracle.Relax(g, w)
	if err != nil {
		t.Fatal(err)
	}
	gotDist, gotFrom := s.SweepState()
	for i := range dist {
		if math.Float64bits(dist[i]) != math.Float64bits(gotDist[i]) {
			t.Fatalf("%s: dist[%d] = %v, serial %v", label, i, gotDist[i], dist[i])
		}
		if from[i] != gotFrom[i] {
			t.Fatalf("%s: from[%d] = %d, serial %d", label, i, gotFrom[i], from[i])
		}
	}
}

// paperSuite returns the benchmarks the equivalence test covers: all 18
// paper circuits normally, the sub-100k-operation subset under -short (the
// CI race step runs -short, so the parallel machinery is race-checked
// there on the smaller rows plus the randomized DAGs below).
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

// coreWeights mimics the estimator's re-weighting: CNOTs get one latency,
// everything else another — both chosen so different path prefixes can tie
// exactly and the lowest-predecessor tie rule is actually exercised.
func coreWeights(g *qodg.Graph) qodg.Weights {
	return g.NewWeights(func(gt circuit.Gate) float64 {
		if gt.Type == circuit.CNOT {
			return 1000.5
		}
		return 100.25
	})
}

// TestLongestPathParallelMatchesSerialOnPaperBenchmarks is the tentpole's
// contract: on every paper benchmark, the level-partitioned parallel sweep
// must reproduce the serial oracle bitwise — dist, from, path nodes, length
// and per-type counts — across worker counts, with one shared scratch
// reused across all circuits to prove stale state cannot leak through.
func TestLongestPathParallelMatchesSerialOnPaperBenchmarks(t *testing.T) {
	shared := new(qodg.PathScratch)
	for _, name := range paperSuite(t) {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		g := build(t, c)
		w := coreWeights(g)
		want, err := oracle.LongestPath(g, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, err := g.LongestPathParallel(w, shared, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertPathsBitwiseEqual(t, name, got, want)
			assertSweepStateEqual(t, name, g, w, shared)
		}
		// The auto dispatcher (whatever path it picks on this machine)
		// must agree too, including through a reused scratch.
		got, err := g.LongestPathInto(w, shared)
		if err != nil {
			t.Fatal(err)
		}
		assertPathsBitwiseEqual(t, name+"/auto", got, want)
	}
}

// randomCircuit builds a synthetic circuit with rng-driven structure: some
// are wide and shallow (many qubits, wide levels — the parallel sweep's
// target shape), some deep and narrow.
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

// TestLongestPathParallelMatchesSerialOnRandomDAGs fuzzes the equivalence
// over randomized layered DAGs: varied shapes, tie-heavy weight vectors
// (drawn from a tiny value set so max-ties are common), varied worker
// counts, one scratch shared across every graph.
func TestLongestPathParallelMatchesSerialOnRandomDAGs(t *testing.T) {
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
		w := g.NewWeights(func(gt circuit.Gate) float64 {
			return tieValues[rng.Intn(len(tieValues))]
		})
		want, err := oracle.LongestPath(g, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := g.LongestPathParallel(w, shared, workers)
			if err != nil {
				t.Fatal(err)
			}
			label := c.Name
			assertPathsBitwiseEqual(t, label, got, want)
			assertSweepStateEqual(t, label, g, w, shared)
		}
	}
}

// TestLongestPathAutoThreshold pins the dispatch contract: below the
// threshold (or on one CPU) the serial sweep runs; either way results match
// the oracle, including when the threshold is forced down to drive every
// graph through the parallel path.
func TestLongestPathAutoThreshold(t *testing.T) {
	defer func(old int) { qodg.ParallelThreshold = old }(qodg.ParallelThreshold)
	c := randomCircuit(rand.New(rand.NewSource(42)), 64, 2000)
	g := build(t, c)
	w := coreWeights(g)
	want, err := oracle.LongestPath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []int{1, 1 << 30} {
		qodg.ParallelThreshold = threshold
		got, err := g.LongestPath(w)
		if err != nil {
			t.Fatal(err)
		}
		assertPathsBitwiseEqual(t, "auto", got, want)
	}
	// MaxWorkers caps the fan-out (1 forces the serial sweep even above
	// threshold); results stay identical at every setting.
	qodg.ParallelThreshold = 1
	for _, maxWorkers := range []int{1, 2} {
		s := &qodg.PathScratch{MaxWorkers: maxWorkers}
		got, err := g.LongestPathInto(w, s)
		if err != nil {
			t.Fatal(err)
		}
		assertPathsBitwiseEqual(t, "maxworkers", got, want)
	}
}

// TestLongestPathWeightLengthMismatch covers the error path of every
// entry point.
func TestLongestPathWeightLengthMismatch(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(7)), 4, 10)
	g := build(t, c)
	bad := make(qodg.Weights, g.NumNodes()-1)
	if _, err := g.LongestPath(bad); err == nil {
		t.Error("LongestPath accepted a short weight vector")
	}
	if _, err := g.LongestPathParallel(bad, nil, 4); err == nil {
		t.Error("LongestPathParallel accepted a short weight vector")
	}
}
