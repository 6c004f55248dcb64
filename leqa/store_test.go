package leqa_test

import (
	"context"
	"reflect"
	"testing"

	"repro/leqa"
)

// storeRunner builds a small runner with a fresh analysis store attached.
func storeRunner(t *testing.T, opt leqa.AnalysisStoreOptions) (*leqa.Runner, *leqa.AnalysisStore) {
	t.Helper()
	r, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := leqa.NewAnalysisStore(opt)
	if err != nil {
		t.Fatal(err)
	}
	r.SetAnalysisStore(st)
	return r, st
}

// TestRunSourcesWithStore proves the store-backed source sweep is bitwise
// identical to the plain streaming one, and that re-running the same
// sources turns analyses into store hits.
func TestRunSourcesWithStore(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder")
	paths := writeQCFiles(t, circuits)
	sources := func() []leqa.Source {
		return []leqa.Source{
			leqa.FileSource(paths[0], leqa.IngestOptions{}),
			leqa.FileSource(paths[1], leqa.IngestOptions{}),
		}
	}

	cols := []leqa.Params{leqa.DefaultParams()}
	plain, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.SweepGridSources(context.Background(), sources(), cols)
	if err != nil {
		t.Fatal(err)
	}

	r, st := storeRunner(t, leqa.AnalysisStoreOptions{Dir: t.TempDir()})
	got, err := r.SweepGridSources(context.Background(), sources(), cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("row %d errs: store %v, plain %v", i, got[i].Err, want[i].Err)
		}
		if !reflect.DeepEqual(got[i].Result, want[i].Result) {
			t.Errorf("row %d: store-backed estimate diverges from streaming", i)
		}
	}
	if s := st.Stats(); s.Misses != 2 {
		t.Fatalf("first run misses = %d, want 2 (%s)", s.Misses, s)
	}

	again, err := r.SweepGridSources(context.Background(), sources(), cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(again[i].Result, want[i].Result) {
			t.Errorf("row %d: store-hit estimate diverges", i)
		}
	}
	s := st.Stats()
	if s.Hits < 2 {
		t.Errorf("second run hits = %d, want >= 2 (%s)", s.Hits, s)
	}
	if s.Misses != 2 {
		t.Errorf("second run added misses: %d, want still 2 (%s)", s.Misses, s)
	}
}

// TestGridSourcesWithStoreAndAnalysisSource proves a grid mixing streamed,
// in-memory and Analysis-backed (by-reference) sources over a store matches
// the storeless engine cell for cell, with one column and with two.
func TestGridSourcesWithStoreAndAnalysisSource(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder", "mod16adder")
	paths := writeQCFiles(t, circuits)
	p1 := leqa.DefaultParams()
	p1.Grid = leqa.Grid{Width: 16, Height: 16}
	p2 := leqa.DefaultParams()
	p2.Grid = leqa.Grid{Width: 24, Height: 24}

	for _, cols := range [][]leqa.Params{{p1}, {p1, p2}} {
		r, st := storeRunner(t, leqa.AnalysisStoreOptions{})
		plain, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.SweepGridSources(context.Background(), leqa.CircuitSources(circuits), cols)
		if err != nil {
			t.Fatal(err)
		}

		// Seed the store with circuit 2's analysis, then reference it.
		a, digest, err := st.GetOrAnalyze(leqa.NewCircuitStream(circuits[2]))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := st.Get(digest)
		if err != nil || ref != a {
			t.Fatalf("Get(%s) = %p, %v; want the seeded analysis %p", digest, ref, err, a)
		}
		sources := []leqa.Source{
			leqa.FileSource(paths[0], leqa.IngestOptions{}),
			leqa.CircuitSource(circuits[1]),
			leqa.AnalysisSource(circuits[2].Name, a),
		}
		got, err := r.SweepGridSources(context.Background(), sources, cols)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d cells, want %d", len(got), len(want))
		}
		for k := range want {
			if got[k].Err != nil || want[k].Err != nil {
				t.Fatalf("cols=%d cell %d errs: store %v, plain %v", len(cols), k, got[k].Err, want[k].Err)
			}
			if !reflect.DeepEqual(got[k].Result, want[k].Result) {
				t.Errorf("cols=%d cell %d: store-backed grid diverges", len(cols), k)
			}
		}
	}
}

// TestDigestHelpers covers the public digest plumbing: circuit and stream
// digests agree, refs round-trip, and malformed refs are rejected.
func TestDigestHelpers(t *testing.T) {
	c := streamTestCircuits(t, "ham7")[0]
	d1, err := leqa.CircuitDigest(c)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := leqa.StreamDigest(leqa.NewCircuitStream(c))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("circuit digest %s != stream digest %s", d1, d2)
	}
	ref := leqa.FormatDigestRef(d1)
	back, err := leqa.ParseDigestRef(ref)
	if err != nil || back != d1 {
		t.Fatalf("ParseDigestRef(%s) = %q, %v", ref, back, err)
	}
	if _, err := leqa.ParseDigestRef("md5:abc"); err == nil {
		t.Fatal("bad ref accepted")
	}
}
