package analysis_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/iig"
	"repro/internal/oracle"
	"repro/internal/qodg"
)

// suite returns the paper benchmarks the equivalence tests cover: all 18
// normally, the sub-100k-operation subset under -short.
func suite(t testing.TB) []string {
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

var ftCache = map[string]*circuit.Circuit{}

func ftCircuit(t testing.TB, name string) *circuit.Circuit {
	t.Helper()
	if c, ok := ftCache[name]; ok {
		return c
	}
	c, err := benchgen.GenerateFT(name)
	if err != nil {
		t.Fatal(err)
	}
	ftCache[name] = c
	return c
}

// assertQODGEqual compares two QODGs node by node: same nodes (ID, gate
// type, gate index), same successor and predecessor lists everywhere.
func assertQODGEqual(t *testing.T, name string, got, want *qodg.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: QODG shape %d nodes/%d edges, want %d/%d",
			name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got.NumQubits != want.NumQubits {
		t.Fatalf("%s: NumQubits %d, want %d", name, got.NumQubits, want.NumQubits)
	}
	for u := 0; u < got.NumNodes(); u++ {
		id := qodg.NodeID(u)
		if got.Nodes[u] != want.Nodes[u] {
			t.Fatalf("%s: node %d = %+v, want %+v", name, u, got.Nodes[u], want.Nodes[u])
		}
		if !slices.Equal(got.Succ(id), want.Succ(id)) {
			t.Fatalf("%s: node %d succ %v, want %v", name, u, got.Succ(id), want.Succ(id))
		}
		if !slices.Equal(got.Pred(id), want.Pred(id)) {
			t.Fatalf("%s: node %d pred %v, want %v", name, u, got.Pred(id), want.Pred(id))
		}
	}
}

// assertIIGEqual compares two IIGs: same node count, per-qubit degrees and
// weight sums, and identical sorted edge lists.
func assertIIGEqual(t *testing.T, name string, got, want *iig.Graph) {
	t.Helper()
	if got.Q != want.Q || got.TotalWeight() != want.TotalWeight() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: IIG shape Q=%d/%d W=%d/%d E=%d/%d", name,
			got.Q, want.Q, got.TotalWeight(), want.TotalWeight(), got.NumEdges(), want.NumEdges())
	}
	for i := 0; i < got.Q; i++ {
		if got.Degree(i) != want.Degree(i) || got.AdjWeightSum(i) != want.AdjWeightSum(i) {
			t.Fatalf("%s: qubit %d degree/ΣW %d/%d, want %d/%d", name, i,
				got.Degree(i), got.AdjWeightSum(i), want.Degree(i), want.AdjWeightSum(i))
		}
	}
	ge, we := got.Edges(), want.Edges()
	for k := range ge {
		if ge[k] != we[k] {
			t.Fatalf("%s: edge %d = %+v, want %+v", name, k, ge[k], we[k])
		}
	}
}

// estimate runs Algorithm 1 on c through Analyze and EstimateAnalysis, in
// ar's buffers when ar is non-nil.
func estimate(t testing.TB, est *core.Estimator, c *circuit.Circuit, ar *analysis.Arena) *core.Result {
	t.Helper()
	var a *analysis.Analysis
	var err error
	if ar != nil {
		a, err = ar.Analyze(c)
	} else {
		a, err = analysis.Analyze(c)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	res, err := est.EstimateAnalysis(a, ar)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return res
}

// TestAnalyzeMatchesReferenceBuilders is the structural half of the
// equivalence suite: across the paper benchmarks, the fused CSR passes must
// produce graphs node/edge/weight-identical to the reference builders.
func TestAnalyzeMatchesReferenceBuilders(t *testing.T) {
	for _, name := range suite(t) {
		c := ftCircuit(t, name)
		a, err := analysis.Analyze(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refG, err := oracle.QODG(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refIG, err := oracle.IIG(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertQODGEqual(t, name, a.QODG, refG)
		assertIIGEqual(t, name, a.IIG, refIG)
	}
}

// TestEstimateMatchesReferenceGraphs is the numerical half: estimates
// through the fused front end must be bitwise-identical to estimates over
// the reference-built graphs on every paper benchmark.
func TestEstimateMatchesReferenceGraphs(t *testing.T) {
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range suite(t) {
		c := ftCircuit(t, name)
		fused := estimate(t, est, c, nil)
		refG, err := oracle.QODG(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refIG, err := oracle.IIG(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refA := analysis.Restore(c.Name, c.NumQubits(), c.NumGates(), c.IsFT(), refG, refIG, nil)
		ref, err := est.EstimateAnalysis(refA, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(fused, ref) {
			t.Errorf("%s: fused estimate differs from reference-graph estimate:\nfused: %.17g µs\nref:   %.17g µs",
				name, fused.EstimatedLatency, ref.EstimatedLatency)
		}
	}
}

func TestAnalyzeRejectsWideGates(t *testing.T) {
	c := circuit.New("wide", 3)
	c.Append(circuit.NewToffoli(0, 1, 2))
	if _, err := analysis.Analyze(c); err == nil {
		t.Error("want error for 3-qubit gate")
	}
}

func TestAnalyzeRejectsInvalidCircuit(t *testing.T) {
	c := circuit.New("bad", 2)
	c.Append(circuit.Gate{Type: circuit.CNOT, Controls: []int{0}, Targets: []int{5}})
	if _, err := analysis.Analyze(c); err == nil {
		t.Error("want validation error for out-of-range operand")
	}
}

// TestAnalyzeEdgeCases exercises the construction corners the generators
// never hit: empty circuits, idle qubits, duplicate-pair CNOT runs and
// swap gates.
func TestAnalyzeEdgeCases(t *testing.T) {
	cases := []*circuit.Circuit{
		circuit.New("empty", 1),
		circuit.New("idle", 4),
	}
	dup := circuit.New("dup-pairs", 3)
	dup.Append(
		circuit.NewCNOT(0, 1), circuit.NewCNOT(1, 0), circuit.NewCNOT(0, 1),
		circuit.NewSwap(1, 2), circuit.NewOneQubit(circuit.H, 2),
	)
	cases = append(cases, dup)
	for _, c := range cases {
		a, err := analysis.Analyze(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		refG, err := oracle.QODG(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		refIG, err := oracle.IIG(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		assertQODGEqual(t, c.Name, a.QODG, refG)
		assertIIGEqual(t, c.Name, a.IIG, refIG)
		if err := a.QODG.CheckAcyclic(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}
