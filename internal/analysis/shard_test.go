package analysis_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fabric"
)

// shardCounts is the forced shard-count sweep of the equivalence suite:
// degenerate (1), the Appender case (2), odd splits, and more shards than
// most hosts have cores.
var shardCounts = []int{1, 2, 3, 7, 16}

// assertAnalysisEqual asserts two analyses are bitwise interchangeable:
// identical graphs, metadata, last-writer state, and — through the
// estimator — identical latency estimates.
func assertAnalysisEqual(t *testing.T, name string, got, want *analysis.Analysis) {
	t.Helper()
	if got.Name != want.Name || got.Qubits != want.Qubits ||
		got.Operations != want.Operations || got.FT != want.FT {
		t.Fatalf("%s: metadata (%q,%d,%d,%v), want (%q,%d,%d,%v)", name,
			got.Name, got.Qubits, got.Operations, got.FT,
			want.Name, want.Qubits, want.Operations, want.FT)
	}
	assertQODGEqual(t, name, got.QODG, want.QODG)
	assertIIGEqual(t, name, got.IIG, want.IIG)
	if !slices.Equal(got.LastWriterState(), want.LastWriterState()) {
		t.Fatalf("%s: last-writer state %v, want %v",
			name, got.LastWriterState(), want.LastWriterState())
	}
}

// TestAnalyzeShardedMatchesSerialOnPaperBenchmarks drives the forced-shard
// fill across every paper benchmark and shard count and demands graphs and
// estimates bitwise identical to the serial fill.
func TestAnalyzeShardedMatchesSerialOnPaperBenchmarks(t *testing.T) {
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range suite(t) {
		c := ftCircuit(t, name)
		want, err := analysis.AnalyzeSharded(c, nil, 1)
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		wantRes, err := est.EstimateAnalysis(want, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range shardCounts {
			got, err := analysis.AnalyzeSharded(c, nil, k)
			if err != nil {
				t.Fatalf("%s/k=%d: %v", name, k, err)
			}
			assertAnalysisEqual(t, name, got, want)
			gotRes, err := est.EstimateAnalysis(got, nil)
			if err != nil {
				t.Fatalf("%s/k=%d: %v", name, k, err)
			}
			if gotRes.EstimatedLatency != wantRes.EstimatedLatency {
				t.Fatalf("%s/k=%d: latency %v, want %v (bitwise)",
					name, k, gotRes.EstimatedLatency, wantRes.EstimatedLatency)
			}
		}
	}
}

// TestAnalyzeShardedArenaReuse runs the arena-backed forced-shard fill
// repeatedly across circuits of different shapes, checking each result
// against a fresh serial analysis — stale per-shard scratch must never leak
// between calls.
func TestAnalyzeShardedArenaReuse(t *testing.T) {
	ar := analysis.NewArena()
	names := suite(t)
	for round := 0; round < 2; round++ {
		for _, name := range names {
			c := ftCircuit(t, name)
			want, err := analysis.AnalyzeSharded(c, nil, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := analysis.AnalyzeSharded(c, ar, 3+round)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertAnalysisEqual(t, name, got, want)
		}
	}
}

// randomShardCircuit generates a circuit stacked with the patterns the
// stitch must get exactly right: long same-pair CNOT runs (duplicate-edge
// merging across shard cuts), swaps, idle qubits, and bursts on one qubit.
func randomShardCircuit(rng *rand.Rand, name string, numQ, nGates int) *circuit.Circuit {
	c := circuit.New(name, numQ)
	for len(c.Gates) < nGates {
		switch rng.Intn(5) {
		case 0:
			c.Append(circuit.NewOneQubit(circuit.H, rng.Intn(numQ)))
		case 1:
			a := rng.Intn(numQ)
			b := rng.Intn(numQ)
			for b == a {
				b = rng.Intn(numQ)
			}
			c.Append(circuit.NewSwap(a, b))
		case 2:
			// Same-pair CNOT run: consecutive gates whose dependency edges
			// merge, so a cut inside the run forks mid-merge.
			a := rng.Intn(numQ)
			b := rng.Intn(numQ)
			for b == a {
				b = rng.Intn(numQ)
			}
			for i, run := 0, 2+rng.Intn(4); i < run && len(c.Gates) < nGates; i++ {
				c.Append(circuit.NewCNOT(a, b))
			}
		case 3:
			// Single-qubit burst: one qubit written many times in a row.
			q := rng.Intn(numQ)
			for i, run := 0, 2+rng.Intn(4); i < run && len(c.Gates) < nGates; i++ {
				c.Append(circuit.NewOneQubit(circuit.T, q))
			}
		default:
			a := rng.Intn(numQ)
			b := rng.Intn(numQ)
			for b == a {
				b = rng.Intn(numQ)
			}
			c.Append(circuit.NewCNOT(a, b))
		}
	}
	return c
}

// TestAnalyzeShardedFuzzCuts fuzzes shard boundaries on randomized circuits:
// even cuts at every suite shard count plus adversarial cut tables —
// empty leading/middle/trailing shards, suffix-only shards, cuts landing
// inside same-pair runs — all compared against the serial fill.
func TestAnalyzeShardedFuzzCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	ar := analysis.NewArena()
	for round := 0; round < rounds; round++ {
		numQ := 2 + rng.Intn(12)
		nGates := 1 + rng.Intn(400)
		c := randomShardCircuit(rng, "fuzz", numQ, nGates)
		n := len(c.Gates)
		want, err := analysis.AnalyzeSharded(c, nil, 1)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		for _, k := range shardCounts {
			got, err := analysis.AnalyzeSharded(c, nil, k)
			if err != nil {
				t.Fatalf("round %d k=%d: %v", round, k, err)
			}
			assertAnalysisEqual(t, c.Name, got, want)
		}

		cutTables := [][]int{
			{0, 0, n},            // empty leading shard
			{0, n, n},            // empty trailing shard
			{0, 0, 0, n},         // two empty leading shards
			{0, n / 2, n / 2, n}, // empty middle shard
			{0, n - n/8, n},      // suffix-only second shard
		}
		// Random monotone cut tables, biased to land inside gate runs.
		for i := 0; i < 4; i++ {
			k := 2 + rng.Intn(5)
			cuts := make([]int, k+1)
			for j := 1; j < k; j++ {
				cuts[j] = rng.Intn(n + 1)
			}
			cuts[k] = n
			slices.Sort(cuts)
			cutTables = append(cutTables, cuts)
		}
		for _, cuts := range cutTables {
			got, err := analysis.AnalyzeAtCuts(analysis.NewCircuitStream(c), nil, cuts)
			if err != nil {
				t.Fatalf("round %d cuts %v: %v", round, cuts, err)
			}
			assertAnalysisEqual(t, c.Name, got, want)
			got, err = analysis.AnalyzeAtCuts(analysis.NewCircuitStream(c), ar, cuts)
			if err != nil {
				t.Fatalf("round %d cuts %v (arena): %v", round, cuts, err)
			}
			assertAnalysisEqual(t, c.Name, got, want)
		}
	}
}

// TestAnalyzeStreamShardedMatchesSerial drives the forced-shard streamed
// fill pass over unvalidated circuit streams — every gate re-checked by the
// counting pass — across the paper benchmarks and fuzz circuits: graphs
// must be node/edge-identical to the serial streamed analysis.
func TestAnalyzeStreamShardedMatchesSerial(t *testing.T) {
	check := func(t *testing.T, c *circuit.Circuit, ar *analysis.Arena) {
		t.Helper()
		want, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c))
		if err != nil {
			t.Fatalf("%s: serial stream: %v", c.Name, err)
		}
		for _, k := range shardCounts {
			if k < 2 {
				continue
			}
			got, err := analysis.AnalyzeStreamSharded(analysis.NewCircuitStream(c), ar, k)
			if err != nil {
				t.Fatalf("%s/k=%d: %v", c.Name, k, err)
			}
			assertAnalysisEqual(t, c.Name, got, want)
		}
	}
	for _, name := range suite(t) {
		check(t, ftCircuit(t, name), nil)
	}
	ar := analysis.NewArena()
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 12; round++ {
		c := randomShardCircuit(rng, "fuzz-stream", 2+rng.Intn(10), 1+rng.Intn(300))
		check(t, c, nil)
		check(t, c, ar)
	}
}

// TestAnalyzeShardedErrorSemantics checks a sharded analysis reports the
// same error, for the same gate, as the serial one — including the
// validate-outranks-arity priority when the two failures would land in
// different shards.
func TestAnalyzeShardedErrorSemantics(t *testing.T) {
	numQ := 4
	base := func(n int) *circuit.Circuit {
		c := circuit.New("err", numQ)
		for i := 0; i < n; i++ {
			c.Append(circuit.NewCNOT(i%numQ, (i+1)%numQ))
		}
		return c
	}

	t.Run("invalid-operand", func(t *testing.T) {
		c := base(100)
		c.Gates[70] = circuit.Gate{Type: circuit.CNOT, Controls: []int{0}, Targets: []int{99}}
		_, wantErr := analysis.AnalyzeSharded(c, nil, 1)
		for _, k := range shardCounts {
			_, err := analysis.AnalyzeSharded(c, nil, k)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("k=%d: error %v, want %v", k, err, wantErr)
			}
		}
	})

	t.Run("wide-gate", func(t *testing.T) {
		c := base(100)
		c.Gates[70] = circuit.NewToffoli(0, 1, 2)
		_, wantErr := analysis.AnalyzeSharded(c, nil, 1)
		for _, k := range shardCounts {
			_, err := analysis.AnalyzeSharded(c, nil, k)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("k=%d: error %v, want %v", k, err, wantErr)
			}
		}
	})

	t.Run("validation-outranks-arity", func(t *testing.T) {
		// Wide gate early, invalid operand late: Analyze's up-front Validate
		// reports the late invalid gate before the scan ever meets the early
		// wide one, whatever the shard count.
		c := base(100)
		c.Gates[10] = circuit.NewToffoli(0, 1, 2)
		c.Gates[90] = circuit.Gate{Type: circuit.CNOT, Controls: []int{0}, Targets: []int{99}}
		_, wantErr := analysis.AnalyzeSharded(c, nil, 1)
		for _, k := range shardCounts {
			_, err := analysis.AnalyzeSharded(c, nil, k)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("k=%d: error %v, want %v", k, err, wantErr)
			}
		}
	})
}

// TestAnalyzeAutoShardDispatch lowers ShardThreshold so plain Analyze takes
// the sharded path on a real benchmark and still matches the oracle, and
// checks MaxShards=1 and GOMAXPROCS=1 keep it serial (trivially, by
// matching too — the dispatch itself is not observable, which is the
// point).
func TestAnalyzeAutoShardDispatch(t *testing.T) {
	origThreshold := analysis.ShardThreshold
	defer func() { analysis.ShardThreshold = origThreshold }()
	analysis.ShardThreshold = 1

	names := suite(t)
	name := names[len(names)-1]
	c := ftCircuit(t, name)
	want, err := analysis.AnalyzeSharded(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}

	got, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysisEqual(t, name, got, want)

	ar := analysis.NewArena()
	ar.MaxShards = 4
	got, err = ar.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysisEqual(t, name, got, want)

	ar.MaxShards = 1 // forces the serial pass regardless of threshold
	got, err = ar.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysisEqual(t, name, got, want)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	got, err = analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysisEqual(t, name, got, want)
}
