package qodg_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qodg"
)

func TestScheduleChain(t *testing.T) {
	c := circuit.New("chain", 1)
	for i := 0; i < 3; i++ {
		c.Append(circuit.NewOneQubit(circuit.H, 0))
	}
	g := build(t, c)
	w := g.NewWeights(func(circuit.Gate) float64 { return 5 })
	s, err := g.ComputeSchedule(w)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 15 {
		t.Fatalf("makespan = %v, want 15", s.Makespan)
	}
	// A pure chain has zero slack everywhere.
	for u, sl := range s.Slack {
		if math.Abs(sl) > 1e-12 {
			t.Errorf("node %d slack %v, want 0", u, sl)
		}
	}
	if got := len(s.CriticalNodes(g, 1e-9)); got != 3 {
		t.Errorf("critical nodes = %d, want 3", got)
	}
}

func TestScheduleSlackOnShortBranch(t *testing.T) {
	// q0: three T gates (weight 10 each → 30); q1: one H gate (weight 10)
	// → slack 20 on the H node.
	c := circuit.New("branch", 2)
	for i := 0; i < 3; i++ {
		c.Append(circuit.NewOneQubit(circuit.T, 0))
	}
	c.Append(circuit.NewOneQubit(circuit.H, 1))
	g := build(t, c)
	w := g.NewWeights(func(circuit.Gate) float64 { return 10 })
	s, err := g.ComputeSchedule(w)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 30 {
		t.Fatalf("makespan = %v", s.Makespan)
	}
	hNode := 4 // gates 1..3 are T, gate 4 is H
	if math.Abs(s.Slack[hNode]-20) > 1e-12 {
		t.Errorf("H slack = %v, want 20", s.Slack[hNode])
	}
	for u := 1; u <= 3; u++ {
		if math.Abs(s.Slack[u]) > 1e-12 {
			t.Errorf("T node %d slack = %v, want 0", u, s.Slack[u])
		}
	}
	crit := s.CriticalNodes(g, 1e-9)
	if len(crit) != 3 {
		t.Errorf("critical nodes = %v", crit)
	}
}

func TestScheduleMatchesLongestPath(t *testing.T) {
	c := circuit.New("mix", 4)
	c.Append(
		circuit.NewCNOT(0, 1),
		circuit.NewOneQubit(circuit.T, 1),
		circuit.NewCNOT(1, 2),
		circuit.NewOneQubit(circuit.H, 3),
		circuit.NewCNOT(2, 3),
	)
	g := build(t, c)
	w := g.NewWeights(func(gt circuit.Gate) float64 {
		if gt.Type == circuit.CNOT {
			return 7
		}
		return 3
	})
	s, err := g.ComputeSchedule(w)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := g.LongestPath(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Makespan-cp.Length) > 1e-12 {
		t.Errorf("schedule makespan %v != longest path %v", s.Makespan, cp.Length)
	}
	// Every node on the recovered critical path must have zero slack.
	for _, id := range cp.Nodes {
		if s.Slack[id] > 1e-9 {
			t.Errorf("critical node %d has slack %v", id, s.Slack[id])
		}
	}
}

func TestScheduleInvariants(t *testing.T) {
	c := circuit.New("rand", 5)
	for i := 0; i < 30; i++ {
		a, b := i%5, (i*2+1)%5
		if a != b {
			c.Append(circuit.NewCNOT(a, b))
		}
		c.Append(circuit.NewOneQubit(circuit.T, (i*3)%5))
	}
	g := build(t, c)
	w := g.NewWeights(func(gt circuit.Gate) float64 { return float64(2 + int(gt.Type)) })
	s, err := g.ComputeSchedule(w)
	if err != nil {
		t.Fatal(err)
	}
	for u := range g.Nodes {
		if s.Slack[u] < -1e-9 {
			t.Fatalf("node %d negative slack %v", u, s.Slack[u])
		}
		if s.ALAP[u] > s.Makespan+1e-9 {
			t.Fatalf("node %d ALAP beyond makespan", u)
		}
		// Precedence: a node finishes before its successors must start.
		for _, v := range g.Succ(qodg.NodeID(u)) {
			if s.ASAP[u] > s.ASAP[v]-w[v]+1e-9 {
				t.Fatalf("ASAP precedence violated %d -> %d", u, v)
			}
		}
	}
}

func TestScheduleWeightMismatch(t *testing.T) {
	c := circuit.New("x", 1)
	c.Append(circuit.NewOneQubit(circuit.H, 0))
	g := build(t, c)
	if _, err := g.ComputeSchedule(make(qodg.Weights, 1)); err == nil {
		t.Error("want weight-length error")
	}
}

func TestSlackHistogram(t *testing.T) {
	c := circuit.New("branch", 2)
	for i := 0; i < 3; i++ {
		c.Append(circuit.NewOneQubit(circuit.T, 0))
	}
	c.Append(circuit.NewOneQubit(circuit.H, 1))
	g := build(t, c)
	w := g.NewWeights(func(circuit.Gate) float64 { return 10 })
	s, _ := g.ComputeSchedule(w)
	hist := s.SlackHistogram(g, []float64{0, 5, 50})
	// 3 zero-slack T nodes in bucket 0; the H node (slack 20) in bucket 1.
	if hist[0] != 3 || hist[1] != 1 || hist[2] != 0 {
		t.Errorf("histogram = %v", hist)
	}
}
