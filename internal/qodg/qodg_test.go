package qodg_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/qodg"
)

// ham3ft builds the paper's Fig. 2(a) FT netlist shape: 4 simple gates plus
// a 15-gate Toffoli network = 19 operations on 3 qubits.
func linearChain(n int) *circuit.Circuit {
	c := circuit.New("chain", 2)
	for i := 0; i < n; i++ {
		c.Append(circuit.NewOneQubit(circuit.H, 0))
	}
	return c
}

func TestBuildAnchors(t *testing.T) {
	c := circuit.New("t", 2)
	c.Append(circuit.NewCNOT(0, 1), circuit.NewOneQubit(circuit.H, 0))
	g := build(t, c)
	if g.Start() != 0 || int(g.End()) != g.NumNodes()-1 {
		t.Errorf("anchors wrong: start=%d end=%d n=%d", g.Start(), g.End(), g.NumNodes())
	}
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if !g.Nodes[0].IsPseudo() || !g.Nodes[g.End()].IsPseudo() {
		t.Error("anchor nodes must be pseudo")
	}
	if g.Nodes[1].IsPseudo() {
		t.Error("op node misflagged pseudo")
	}
}

func TestBuildDependencies(t *testing.T) {
	// CNOT(0,1); H(0); CNOT(0,1): H depends on first CNOT; second CNOT on
	// H (via q0) and first CNOT (via q1).
	c := circuit.New("t", 2)
	c.Append(circuit.NewCNOT(0, 1), circuit.NewOneQubit(circuit.H, 0), circuit.NewCNOT(0, 1))
	g := build(t, c)
	hasEdge := func(u, v qodg.NodeID) bool {
		for from, to := range g.Edges() {
			if from == u && to == v {
				return true
			}
		}
		return false
	}
	if !hasEdge(0, 1) {
		t.Error("start should feed gate 1")
	}
	if !hasEdge(1, 2) || !hasEdge(1, 3) || !hasEdge(2, 3) {
		t.Error("dependency edges missing")
	}
	if hasEdge(0, 3) {
		t.Error("gate 3 should not depend directly on start")
	}
}

func TestParallelEdgeMerging(t *testing.T) {
	// Two consecutive CNOTs on the same pair: the QODG merges the two
	// qubit-dependency edges into one.
	c := circuit.New("t", 2)
	c.Append(circuit.NewCNOT(0, 1), circuit.NewCNOT(1, 0))
	g := build(t, c)
	count, edges := 0, 0
	for from, to := range g.Edges() {
		if from == 1 && to == 2 {
			count++
		}
		edges++
	}
	if count != 1 {
		t.Errorf("parallel edges not merged: %d copies", count)
	}
	// start->1 (merged from two qubit chains), 1->2 (merged), 2->end
	// (merged): 3 edges total.
	if edges != 3 {
		t.Errorf("%d edges, want 3", edges)
	}
}

func TestIsolatedQubitEdge(t *testing.T) {
	// A qubit with no gates contributes a direct start->end edge.
	c := circuit.New("t", 2)
	c.Append(circuit.NewOneQubit(circuit.H, 0))
	g := build(t, c)
	found := false
	for from, to := range g.Edges() {
		if from == g.Start() && to == g.End() {
			found = true
		}
	}
	if !found {
		t.Error("idle qubit should add start->end edge")
	}
}

func TestLongestPathChain(t *testing.T) {
	c := linearChain(5)
	g := build(t, c)
	tab := make([]float64, typeRows)
	tab[circuit.H] = 2
	cp, err := g.LongestPath(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Length != 10 {
		t.Errorf("chain length = %v, want 10", cp.Length)
	}
	if cp.CountByType[circuit.H] != 5 {
		t.Errorf("critical H count = %d, want 5", cp.CountByType[circuit.H])
	}
}

func TestLongestPathPicksHeavierBranch(t *testing.T) {
	// Two parallel chains: q0 has 3 T gates (heavy), q1 has 5 H gates
	// with lighter weight.
	c := circuit.New("t", 2)
	for i := 0; i < 3; i++ {
		c.Append(circuit.NewOneQubit(circuit.T, 0))
	}
	for i := 0; i < 5; i++ {
		c.Append(circuit.NewOneQubit(circuit.H, 1))
	}
	g := build(t, c)
	tab := make([]float64, typeRows)
	tab[circuit.T], tab[circuit.H] = 100, 10
	cp, err := g.LongestPath(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Length != 300 {
		t.Errorf("length = %v, want 300", cp.Length)
	}
	if cp.CountByType[circuit.T] != 3 || cp.CountByType[circuit.H] != 0 {
		t.Errorf("critical counts = %v", cp.CountByType)
	}
	// Flip the weights: the H chain should win.
	tab[circuit.T], tab[circuit.H] = 10, 100
	cp2, _ := g.LongestPath(tab, nil)
	if cp2.Length != 500 || cp2.CountByType[circuit.H] != 5 {
		t.Errorf("flipped: length=%v counts=%v", cp2.Length, cp2.CountByType)
	}
}

// TestLongestPathWeightLenMismatch: a one-column table without a row for
// the chain's H gates fails with an error naming the first H node.
func TestLongestPathWeightLenMismatch(t *testing.T) {
	g := build(t, linearChain(2))
	var mr *qodg.MissingRowError
	if _, err := g.LongestPath(make([]float64, circuit.H), nil); !errors.As(err, &mr) {
		t.Fatalf("err %v, want a MissingRowError", err)
	}
	if mr.Node != 1 || mr.Type != circuit.H {
		t.Errorf("error names node %d of type %v, want node 1 of type H", mr.Node, mr.Type)
	}
}

func TestQODGRandomProperties(t *testing.T) {
	// Properties over random circuits: node order topological; edge count
	// ≤ sum of gate arities + Q; longest path under unit weights equals
	// circuit depth.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		c := circuit.New("p", n)
		gates := rng.Intn(40)
		for i := 0; i < gates; i++ {
			if rng.Intn(2) == 0 {
				a, b := rng.Intn(n), rng.Intn(n)
				if a == b {
					b = (a + 1) % n
				}
				c.Append(circuit.NewCNOT(a, b))
			} else {
				c.Append(circuit.NewOneQubit(circuit.H, rng.Intn(n)))
			}
		}
		a, err := analysis.Analyze(c)
		if err != nil {
			return false
		}
		g := a.QODG
		for u, v := range g.Edges() {
			if v <= u {
				return false
			}
		}
		unit := make([]float64, typeRows) // row 0 weighs the pseudo-nodes: 0
		for t := 1; t < typeRows; t++ {
			unit[t] = 1
		}
		cp, err := g.LongestPath(unit, nil)
		if err != nil {
			return false
		}
		return int(cp.Length) == c.ComputeStats().Depth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHam3QODGShape(t *testing.T) {
	// The paper's Fig. 2(b): 19 operation nodes + start + end.
	c := circuit.New("ham3ft", 3)
	// 4 leading simple ops.
	c.Append(
		circuit.NewCNOT(1, 2),
		circuit.NewCNOT(0, 1),
		circuit.NewOneQubit(circuit.X, 0),
		circuit.NewCNOT(2, 0),
	)
	// 15-op Toffoli network placeholder: same operand pattern.
	for i := 0; i < 15; i++ {
		c.Append(circuit.NewOneQubit(circuit.T, i%3))
	}
	g := build(t, c)
	if g.NumNodes() != 21 {
		t.Errorf("NumNodes = %d, want 21 (19 ops + start + end)", g.NumNodes())
	}
}

func TestWriteDOT(t *testing.T) {
	g := build(t, linearChain(2))
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "chain"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "start", "end", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
