package analysis_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ingest"
)

// prefixCircuit clones c truncated to its first k gates.
func prefixCircuit(c *circuit.Circuit, k int) *circuit.Circuit {
	p := c.Clone()
	p.Gates = p.Gates[:k]
	return p
}

// TestAppenderMatchesBatch is the incremental half of the equivalence
// suite: seeding an appender with a 70% prefix analysis and appending the
// remaining 30% gate suffix must snapshot into graphs topology-identical to
// the full batch analysis, with bitwise-identical estimates — across the
// paper benchmarks.
func TestAppenderMatchesBatch(t *testing.T) {
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range suite(t) {
		c := ftCircuit(t, name)
		want, err := analysis.Analyze(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRes, err := est.EstimateAnalysis(want, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k := len(c.Gates) * 7 / 10
		seed, err := analysis.Analyze(prefixCircuit(c, k))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ap, err := analysis.NewAppender(seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ap.Append(c.Gates[k:]...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := ap.Snapshot()
		if got.Qubits != want.Qubits || got.Operations != want.Operations || got.FT != want.FT {
			t.Fatalf("%s: snapshot metadata %d/%d/%v, want %d/%d/%v", name,
				got.Qubits, got.Operations, got.FT, want.Qubits, want.Operations, want.FT)
		}
		assertQODGEqual(t, name, got.QODG, want.QODG)
		assertIIGEqual(t, name, got.IIG, want.IIG)
		gotRes, err := est.EstimateAnalysis(got, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: incremental estimate diverges from batch:\nincremental: %.17g µs\nbatch:       %.17g µs",
				name, gotRes.EstimatedLatency, wantRes.EstimatedLatency)
		}
	}
}

// TestAppenderIncrementalChunks appends one circuit in several chunks,
// snapshotting between them: every intermediate snapshot must equal the
// batch analysis of the corresponding prefix, and earlier snapshots must
// stay untouched by later appends.
func TestAppenderIncrementalChunks(t *testing.T) {
	c := ftCircuit(t, "ham7")
	seed, err := analysis.Analyze(prefixCircuit(c, 0))
	if err != nil {
		t.Fatal(err)
	}
	ap, err := analysis.NewAppender(seed)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{1, len(c.Gates) / 3, len(c.Gates) / 2, len(c.Gates)}
	prev := 0
	var snaps []*analysis.Analysis
	var wantRes []*core.Result
	for _, cut := range cuts {
		if err := ap.Append(c.Gates[prev:cut]...); err != nil {
			t.Fatal(err)
		}
		prev = cut
		snap := ap.Snapshot()
		want, err := analysis.Analyze(prefixCircuit(c, cut))
		if err != nil {
			t.Fatal(err)
		}
		assertQODGEqual(t, c.Name, snap.QODG, want.QODG)
		assertIIGEqual(t, c.Name, snap.IIG, want.IIG)
		res, err := est.EstimateAnalysis(want, nil)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		wantRes = append(wantRes, res)
	}
	// Re-estimate every retained snapshot after all appends: later appends
	// must not have mutated earlier snapshots.
	for i, snap := range snaps {
		got, err := est.EstimateAnalysis(snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRes[i]) {
			t.Errorf("snapshot %d (cut %d) changed after later appends", i, cuts[i])
		}
	}
}

// TestAppenderFromStreamedSeed chains the two halves of the tentpole: a
// streamed (never materialized) analysis seeds the appender, and the
// combined result still matches batch bitwise.
func TestAppenderFromStreamedSeed(t *testing.T) {
	c := ftCircuit(t, "8bitadder")
	k := len(c.Gates) / 2
	var buf bytes.Buffer
	if err := circuit.WriteQC(&buf, prefixCircuit(c, k)); err != nil {
		t.Fatal(err)
	}
	sc := ingest.NewScanner(bytes.NewReader(buf.Bytes()), c.Name, ingest.Options{})
	defer sc.Close()
	seed, err := analysis.AnalyzeStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := analysis.NewAppender(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Append(c.Gates[k:]...); err != nil {
		t.Fatal(err)
	}
	got := ap.Snapshot()
	want, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	assertQODGEqual(t, c.Name, got.QODG, want.QODG)
	assertIIGEqual(t, c.Name, got.IIG, want.IIG)
}

// TestAppenderRejectsBadGates covers the validation surface: out-of-range
// operands, duplicate operands and wide gates are rejected without
// corrupting the appender.
func TestAppenderRejectsBadGates(t *testing.T) {
	c := circuit.New("seedling", 3)
	c.Append(circuit.NewCNOT(0, 1))
	seed, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := analysis.NewAppender(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Append(circuit.NewCNOT(0, 7)); err == nil {
		t.Error("want error for out-of-range operand")
	}
	if err := ap.Append(circuit.NewCNOT(2, 2)); err == nil {
		t.Error("want error for duplicate operand")
	}
	if err := ap.Append(circuit.NewToffoli(0, 1, 2)); err == nil {
		t.Error("want error for 3-qubit gate")
	}
	// The appender must still work after rejections.
	if err := ap.Append(circuit.NewCNOT(1, 2)); err != nil {
		t.Fatal(err)
	}
	c.Append(circuit.NewCNOT(1, 2))
	want, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	got := ap.Snapshot()
	assertQODGEqual(t, c.Name, got.QODG, want.QODG)
	assertIIGEqual(t, c.Name, got.IIG, want.IIG)
}
