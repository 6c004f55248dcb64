package analysis_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fabric"
)

// arenaSuite is a small circuit set with deliberately different register
// sizes and gate counts, so arena reuse crosses both growth and shrink
// boundaries.
var arenaSuite = []string{"ham7", "8bitadder", "gf2^16mult", "ham3"}

// TestArenaAnalyzeMatchesFresh proves one reused arena reproduces the
// fresh-allocation analysis graph for graph on a sequence of circuits of
// different shapes — the stale-state hazard the arena design must exclude.
func TestArenaAnalyzeMatchesFresh(t *testing.T) {
	ar := analysis.NewArena()
	for _, name := range arenaSuite {
		c := ftCircuit(t, name)
		want, err := analysis.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ar.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		assertSameQODG(t, name, got.QODG, want.QODG)
		assertIIGEqual(t, name, got.IIG, want.IIG)
	}
}

// TestArenaEstimateBitwiseIdenticalToFresh is the satellite acceptance
// check: sequential estimates of different circuits through one pooled
// scratch must equal fresh-allocation runs bitwise, and a Result returned
// earlier must not change when the arena is recycled for the next circuit
// (nothing in a Result may alias arena memory).
func TestArenaEstimateBitwiseIdenticalToFresh(t *testing.T) {
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ar := analysis.NewArena()
	fresh := make([]*core.Result, len(arenaSuite))
	arena := make([]*core.Result, len(arenaSuite))
	for i, name := range arenaSuite {
		c := ftCircuit(t, name)
		fresh[i] = estimate(t, est, c, nil)
		arena[i] = estimate(t, est, c, ar)
	}
	// Every arena result must match its fresh twin bitwise — compared only
	// after ALL estimates ran, so aliasing of earlier results by later
	// arena reuse would be caught here.
	for i, name := range arenaSuite {
		if !reflect.DeepEqual(arena[i], fresh[i]) {
			t.Errorf("%s: arena estimate diverges from fresh estimate\narena: %+v\nfresh: %+v",
				name, arena[i], fresh[i])
		}
	}
}

// TestArenaEstimateAnalysisArena covers the grid path: a shared immutable
// analysis estimated through an arena that only donates estimate-phase
// scratch (weights + longest-path state).
func TestArenaEstimateAnalysisArena(t *testing.T) {
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ar := analysis.NewArena()
	for _, name := range arenaSuite {
		c := ftCircuit(t, name)
		a, err := analysis.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := est.EstimateAnalysis(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.EstimateAnalysis(a, ar)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: arena-scratch estimate diverges from fresh", name)
		}
	}
}
