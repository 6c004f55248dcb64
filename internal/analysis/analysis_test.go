package analysis_test

import (
	"math"
	"reflect"
	"slices"
	"strings"
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

// assertQODGEqual compares a QODG with the oracle's: the same gate type at
// every node, and Edges yielding exactly the oracle's merged edges, grouped
// by target in node order and by source in ascending order.
func assertQODGEqual(t *testing.T, name string, got *qodg.Graph, want *oracle.Graph) {
	t.Helper()
	if got.NumNodes() != len(want.Types) || got.NumQubits != want.NumQubits {
		t.Fatalf("%s: QODG has %d nodes on %d qubits, want %d on %d",
			name, got.NumNodes(), got.NumQubits, len(want.Types), want.NumQubits)
	}
	for v, n := range got.Nodes {
		if n.Op.Type != want.Types[v] {
			t.Fatalf("%s: node %d has type %v, want %v", name, v, n.Op.Type, want.Types[v])
		}
	}
	var gotEdges, wantEdges [][2]int
	for from, to := range got.Edges() {
		gotEdges = append(gotEdges, [2]int{int(from), int(to)})
	}
	for to, preds := range want.Pred {
		for _, from := range preds {
			wantEdges = append(wantEdges, [2]int{from, to})
		}
	}
	if !slices.Equal(gotEdges, wantEdges) {
		t.Fatalf("%s: %d edges %v, want %d %v", name, len(gotEdges), head(gotEdges), len(wantEdges), head(wantEdges))
	}
}

// head is the start of a long edge list, for failure messages.
func head(edges [][2]int) [][2]int { return edges[:min(len(edges), 8)] }

// assertSameQODG compares two QODGs built by the production passes: the
// same register and the same node records, which fix every edge.
func assertSameQODG(t *testing.T, name string, got, want *qodg.Graph) {
	t.Helper()
	if got.NumQubits != want.NumQubits || !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("%s: QODG of %d nodes on %d qubits differs from the %d nodes on %d qubits wanted",
			name, got.NumNodes(), got.NumQubits, want.NumNodes(), want.NumQubits)
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
// equivalence suite: across the paper benchmarks, the fused passes must
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

// TestEstimateMatchesReferenceGraphs is the numerical half: on every paper
// benchmark, estimates through the fused front end must be
// bitwise-identical to estimates over the reference-built IIG, and their
// critical path must equal the oracle's sweep of the reference QODG under
// the estimate's own weights (Algorithm 1 lines 19–20: d_CNOT + L_CNOT^avg
// per CNOT, d_g + L_g^avg per one-qubit gate).
func TestEstimateMatchesReferenceGraphs(t *testing.T) {
	p := fabric.Default()
	est, err := core.New(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range suite(t) {
		c := ftCircuit(t, name)
		fused := estimate(t, est, c, nil)
		a, err := analysis.Analyze(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refIG, err := oracle.IIG(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refA := &analysis.Analysis{Name: c.Name, Qubits: c.NumQubits(), Operations: c.NumGates(), FT: c.IsFT(), QODG: a.QODG, IIG: refIG}
		ref, err := est.EstimateAnalysis(refA, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(fused, ref) {
			t.Errorf("%s: fused estimate differs from reference-IIG estimate:\nfused: %.17g µs\nref:   %.17g µs",
				name, fused.EstimatedLatency, ref.EstimatedLatency)
		}
		refG, err := oracle.QODG(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := make([]float64, len(refG.Types)) // 0 at the pseudo-nodes
		for v, typ := range refG.Types {
			switch typ {
			case circuit.Invalid:
			case circuit.CNOT:
				w[v] = p.DCNOT + fused.LCNOTAvg
			default:
				d, err := p.DelayOf(typ)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				w[v] = d + fused.LOneQubitAvg
			}
		}
		cp, err := oracle.LongestPath(refG, w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(cp.Length) != math.Float64bits(fused.EstimatedLatency) || !reflect.DeepEqual(cp, fused.CriticalPath) {
			t.Errorf("%s: critical path %v %v, oracle %v %v", name,
				fused.EstimatedLatency, fused.CriticalPath.CountByType, cp.Length, cp.CountByType)
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

	// A wide gate early and an out-of-range operand late: Analyze validates
	// every gate before its scan meets the wide one, so the late gate's
	// validation error outranks the early gate's arity error.
	late := circuit.New("late", 4)
	for i := 0; i < 100; i++ {
		late.Append(circuit.NewCNOT(i%4, (i+1)%4))
	}
	late.Gates[10] = circuit.NewToffoli(0, 1, 2)
	late.Gates[90] = circuit.Gate{Type: circuit.CNOT, Controls: []int{0}, Targets: []int{99}}
	want := late.Validate()
	if want == nil || !strings.Contains(want.Error(), "gate 90") {
		t.Fatalf("Validate = %v, want gate 90's error", want)
	}
	if _, err := analysis.Analyze(late); err == nil || err.Error() != want.Error() {
		t.Errorf("Analyze error %v, want %v", err, want)
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
		for u, v := range a.QODG.Edges() { // node order is topological
			if v <= u {
				t.Errorf("%s: back edge %d -> %d", c.Name, u, v)
			}
		}
	}
}
