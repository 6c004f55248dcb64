package iig_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/iig"
	"repro/internal/oracle"
)

// buildFrom builds c's IIG the way the estimator does: through the fused
// analysis.
func buildFrom(t *testing.T, c *circuit.Circuit) *iig.Graph {
	t.Helper()
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	return a.IIG
}

func TestBuildBasic(t *testing.T) {
	c := circuit.New("t", 3)
	c.Append(
		circuit.NewCNOT(0, 1),
		circuit.NewCNOT(0, 1),
		circuit.NewCNOT(1, 2),
		circuit.NewOneQubit(circuit.H, 0),
	)
	g := buildFrom(t, c)
	if g.Q != 3 {
		t.Fatalf("Q = %d", g.Q)
	}
	if w := g.Weight(0, 1); w != 2 {
		t.Errorf("w(0,1) = %d, want 2", w)
	}
	if w := g.Weight(1, 0); w != 2 {
		t.Errorf("w(1,0) = %d, want 2 (symmetric)", w)
	}
	if w := g.Weight(0, 2); w != 0 {
		t.Errorf("w(0,2) = %d, want 0", w)
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 || g.Degree(2) != 1 {
		t.Errorf("degrees: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if g.TotalWeight() != 3 {
		t.Errorf("TotalWeight = %d, want 3", g.TotalWeight())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestBuildRejectsWideGates(t *testing.T) {
	c := circuit.New("t", 3)
	c.Append(circuit.NewToffoli(0, 1, 2))
	if _, err := analysis.Analyze(c); err == nil {
		t.Error("want error for 3-qubit gate")
	}
	if _, err := oracle.IIG(c); err == nil {
		t.Error("reference builder should also reject 3-qubit gates")
	}
}

func TestBuildRejectsOutOfRangeQubit(t *testing.T) {
	// Qubit index == Q would land in the CSR cursor slot and silently
	// corrupt rows if unvalidated (the map-based code panicked here).
	c := circuit.New("oob", 2)
	c.Append(circuit.NewCNOT(0, 1), circuit.Gate{Type: circuit.CNOT, Controls: []int{0}, Targets: []int{2}})
	if _, err := analysis.Analyze(c); err == nil {
		t.Error("want validation error for out-of-range operand")
	}
}

func TestBuildMatchesReference(t *testing.T) {
	// The analysis's CSR build and the map-based reference must agree on a
	// circuit exercising duplicates, both operand orders, and isolated
	// qubits.
	c := circuit.New("eq", 6)
	c.Append(
		circuit.NewCNOT(0, 1), circuit.NewCNOT(1, 0), circuit.NewCNOT(4, 2),
		circuit.NewCNOT(2, 4), circuit.NewCNOT(0, 5), circuit.NewOneQubit(circuit.H, 3),
		circuit.NewSwap(1, 5),
	)
	got := buildFrom(t, c)
	want, err := oracle.IIG(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Q != want.Q || got.TotalWeight() != want.TotalWeight() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape mismatch: Q %d/%d W %d/%d E %d/%d",
			got.Q, want.Q, got.TotalWeight(), want.TotalWeight(), got.NumEdges(), want.NumEdges())
	}
	ge, we := got.Edges(), want.Edges()
	for i := range ge {
		if ge[i] != we[i] {
			t.Errorf("edge %d: %+v != %+v", i, ge[i], we[i])
		}
	}
}
