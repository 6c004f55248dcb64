package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/fabric"
	"repro/internal/oracle"
)

// batchParamSets returns six distinct fabric configurations — the §4.2
// design-space-exploration shape — plus helpers below build their
// estimators.
func batchParamSets(t *testing.T) []fabric.Params {
	t.Helper()
	var sets []fabric.Params
	for _, mut := range []func(*fabric.Params){
		func(p *fabric.Params) {},
		func(p *fabric.Params) { p.Grid = fabric.Grid{Width: 90, Height: 90} },
		func(p *fabric.Params) { p.ChannelCapacity = 2 },
		func(p *fabric.Params) { p.QubitSpeed = 0.002 },
		func(p *fabric.Params) { p.TMove = 150 },
		func(p *fabric.Params) { p.DCNOT = 6000 },
	} {
		p := fabric.Default()
		mut(&p)
		sets = append(sets, p)
	}
	return sets
}

func batchEstimators(t *testing.T, sets []fabric.Params, opt Options) []*Estimator {
	t.Helper()
	ests := make([]*Estimator, len(sets))
	for i, p := range sets {
		e, err := New(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		ests[i] = e
	}
	return ests
}

// assertOraclePath checks res's critical path against the oracle sweep over
// c's reference QODG re-weighted the way Algorithm 1 lines 19–20 define:
// d_CNOT + L_CNOT^avg per CNOT, d_g + L_g^avg per one-qubit gate.
func assertOraclePath(t *testing.T, label string, p fabric.Params, c *circuit.Circuit, res *Result) {
	t.Helper()
	g, err := oracle.QODG(c)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(g.Types)) // 0 at the pseudo-nodes
	for v, typ := range g.Types {
		switch typ {
		case circuit.Invalid:
		case circuit.CNOT:
			w[v] = p.DCNOT + res.LCNOTAvg
		default:
			d, err := p.DelayOf(typ)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			w[v] = d + res.LOneQubitAvg
		}
	}
	cp, err := oracle.LongestPath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cp.Length) != math.Float64bits(res.EstimatedLatency) ||
		!reflect.DeepEqual(cp, res.CriticalPath) {
		t.Fatalf("%s: critical path %v %v, oracle %v %v", label,
			res.EstimatedLatency, res.CriticalPath.CountByType, cp.Length, cp.CountByType)
	}
}

// assertResultsBitwiseEqual compares two Results field by field with no
// float tolerance — a column's Result must not depend on its batch.
func assertResultsBitwiseEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.EstimatedLatency) != math.Float64bits(want.EstimatedLatency) {
		t.Fatalf("%s: EstimatedLatency %v, want %v", label, got.EstimatedLatency, want.EstimatedLatency)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: batched Result diverges from serial:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestEstimateAnalysisBatchMatchesPerColumn is the batch contract: for every
// paper benchmark (the small subset under -short) and six parameter columns,
// every Result of one EstimateAnalysisBatch call must be bitwise identical
// to its one-column EstimateAnalysis twin — arena and fresh-allocation
// variants both — whose critical path in turn matches the oracle sweep over
// the column's re-weighted QODG.
func TestEstimateAnalysisBatchMatchesPerColumn(t *testing.T) {
	sets := batchParamSets(t)
	ests := batchEstimators(t, sets, Options{})
	names := []string{"ham7", "4bitadder", "mod16adder"}
	if !testing.Short() {
		names = append(names, "gf2^16mult", "hwb100ps")
	}
	ar := analysis.NewArena()
	for _, name := range names {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := analysis.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*Result, len(ests))
		for j, e := range ests {
			want[j], err = e.EstimateAnalysis(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertOraclePath(t, name, e.Params, c, want[j])
		}
		results, errs := EstimateAnalysisBatch(ests, a, ar)
		for j := range ests {
			if errs[j] != nil {
				t.Fatalf("%s col %d: %v", name, j, errs[j])
			}
			assertResultsBitwiseEqual(t, name, results[j], want[j])
		}
		fresh, errs := EstimateAnalysisBatch(ests, a, nil)
		for j := range ests {
			if errs[j] != nil {
				t.Fatalf("%s col %d (fresh): %v", name, j, errs[j])
			}
			assertResultsBitwiseEqual(t, name+"/fresh", fresh[j], want[j])
		}
	}
}

// TestEstimateAnalysisBatchLongPath: an 8-column batch of hwb50ps, whose
// critical path holds about half of its nodes (14,797 of 28,807), equals
// eight single-column estimates bitwise — the by-type kernel's path
// recovery on a path long enough that its per-column walk dominates.
func TestEstimateAnalysisBatchLongPath(t *testing.T) {
	sets := batchParamSets(t)
	for _, mut := range []func(*fabric.Params){
		func(p *fabric.Params) { p.Grid = fabric.Grid{Width: 120, Height: 120} },
		func(p *fabric.Params) { p.ChannelCapacity = 6 },
	} {
		p := fabric.Default()
		mut(&p)
		sets = append(sets, p)
	}
	ests := batchEstimators(t, sets, Options{})
	c, err := benchgen.GenerateFT("hwb50ps")
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := EstimateAnalysisBatch(ests, a, analysis.NewArena())
	for j, e := range ests {
		if errs[j] != nil {
			t.Fatalf("col %d: %v", j, errs[j])
		}
		want, err := e.EstimateAnalysis(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := want.CriticalCNOTs + want.CriticalOneQubit; 3*n < a.QODG.NumNodes() {
			t.Fatalf("col %d: critical path of %d of %d nodes is too short to exercise recovery", j, n, a.QODG.NumNodes())
		}
		assertResultsBitwiseEqual(t, "hwb50ps", results[j], want)
	}
}

// TestEstimateRejectsNonFTNodeInFTAnalysis: an analysis flagged FT that
// holds a non-FT node fails every column with a NonFTError naming the gate
// and its type — one column and batched, with and without an arena —
// rather than weighing the node 0 or panicking.
func TestEstimateRejectsNonFTNodeInFTAnalysis(t *testing.T) {
	c, err := benchgen.GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	a.QODG.Nodes[1].Op.Type = circuit.Swap // the FT flag now lies
	check := func(label string, err error, res *Result) {
		t.Helper()
		var nf *NonFTError
		if !errors.As(err, &nf) || res != nil {
			t.Fatalf("%s: err %v, Result returned: %v; want a NonFTError", label, err, res != nil)
		}
		if nf.Type != circuit.Swap || nf.Gate != 0 {
			t.Fatalf("%s: NonFTError names gate %d of type %v, want gate 0 of type SWAP", label, nf.Gate, nf.Type)
		}
	}
	for _, ar := range []*analysis.Arena{nil, analysis.NewArena()} {
		res, err := batchEstimators(t, []fabric.Params{fabric.Default()}, Options{})[0].EstimateAnalysis(a, ar)
		check("one column", err, res)
		results, errs := EstimateAnalysisBatch(batchEstimators(t, batchParamSets(t), Options{}), a, ar)
		for j := range errs {
			check(fmt.Sprintf("col %d", j), errs[j], results[j])
		}
	}
}

// TestEstimateAnalysisBatchPerColumnErrors pins the error isolation: a
// column whose params lack a gate delay fails with exactly the error it
// reports alone, while its neighbor columns estimate normally.
func TestEstimateAnalysisBatchPerColumnErrors(t *testing.T) {
	c, err := benchgen.GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	good := fabric.Default()
	broken := fabric.Default()
	delete(broken.GateDelay, circuit.H) // ham7 uses H; weight build must fail
	ests := batchEstimators(t, []fabric.Params{good, broken, good}, Options{})

	results, errs := EstimateAnalysisBatch(ests, a, analysis.NewArena())
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good columns failed: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("broken column succeeded")
	}
	if results[1] != nil {
		t.Fatal("broken column returned a Result")
	}
	_, wantErr := ests[1].EstimateAnalysis(a, nil)
	if wantErr == nil || errs[1].Error() != wantErr.Error() {
		t.Fatalf("batch error %q, serial error %q", errs[1], wantErr)
	}
	want, err := ests[0].EstimateAnalysis(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitwiseEqual(t, "good-around-broken", results[0], want)
	assertResultsBitwiseEqual(t, "good-around-broken", results[2], want)
}

// TestEstimateAnalysisBatchNonFT: a non-FT analysis fails every column with
// a NonFTError.
func TestEstimateAnalysisBatchNonFT(t *testing.T) {
	c, err := benchgen.GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	real, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	na := *real
	na.FT = false // the precondition EstimateAnalysis guards on
	a := &na
	ests := batchEstimators(t, []fabric.Params{fabric.Default(), fabric.Default()}, Options{})
	results, errs := EstimateAnalysisBatch(ests, a, nil)
	for j := range ests {
		var nf *NonFTError
		if !errors.As(errs[j], &nf) {
			t.Fatalf("col %d: %v, want NonFTError", j, errs[j])
		}
		if results[j] != nil {
			t.Fatalf("col %d returned a Result", j)
		}
	}
}

// TestEstimateAnalysisBatchEmpty: zero columns is a no-op.
func TestEstimateAnalysisBatchEmpty(t *testing.T) {
	c, err := benchgen.GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := EstimateAnalysisBatch(nil, a, nil)
	if len(results) != 0 || len(errs) != 0 {
		t.Fatalf("got %d results, %d errs", len(results), len(errs))
	}
}
