package leqa_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/leqa"
)

// writeQCFiles renders benchmark circuits to .qc files for the file-backed
// streaming paths.
func writeQCFiles(t *testing.T, circuits []*leqa.Circuit) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, len(circuits))
	for i, c := range circuits {
		paths[i] = filepath.Join(dir, c.Name+".qc")
		if err := leqa.Save(paths[i], c); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestSweepGridSourcesMatchesBatch proves a grid mixing file-backed streams
// and in-memory circuits produces cells bitwise identical to the all-in-
// memory grid across a multi-column parameter matrix.
func TestSweepGridSourcesMatchesBatch(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder", "mod16adder")
	paths := writeQCFiles(t, circuits)
	p1 := leqa.DefaultParams()
	p1.Grid = leqa.Grid{Width: 16, Height: 16}
	p2 := leqa.DefaultParams()
	p2.Grid = leqa.Grid{Width: 24, Height: 24}
	paramSets := []leqa.Params{p1, p2}

	runner, err := leqa.NewRunner(p1, leqa.EstimateOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.SweepGridSources(context.Background(), leqa.CircuitSources(circuits), paramSets)
	if err != nil {
		t.Fatal(err)
	}
	sources := []leqa.Source{
		leqa.FileSource(paths[0], leqa.IngestOptions{}),
		leqa.CircuitSource(circuits[1]),
		leqa.FileSource(paths[2], leqa.IngestOptions{}),
	}
	got, err := runner.SweepGridSources(context.Background(), sources, paramSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for k := range want {
		w, g := want[k], got[k]
		if g.CircuitIndex != w.CircuitIndex || g.ParamsIndex != w.ParamsIndex || g.Name != w.Name {
			t.Fatalf("cell %d labeled (%d,%d,%q), want (%d,%d,%q)", k,
				g.CircuitIndex, g.ParamsIndex, g.Name, w.CircuitIndex, w.ParamsIndex, w.Name)
		}
		if g.Err != nil || w.Err != nil {
			t.Fatalf("cell %d errs: source %v, batch %v", k, g.Err, w.Err)
		}
		if !reflect.DeepEqual(g.Result, w.Result) {
			t.Errorf("cell %d: source-engine estimate diverges from batch", k)
		}
	}
}

// TestRunSourcesSingleColumn covers single-column sweeps of streamed
// sources (whole stream analyzed and estimated in one worker arena) and
// per-source error isolation: a missing file becomes one error row, not a
// batch failure.
func TestRunSourcesSingleColumn(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder")
	paths := writeQCFiles(t, circuits)
	runner, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cols := []leqa.Params{leqa.DefaultParams()}
	want, err := runner.SweepGridSources(context.Background(), leqa.CircuitSources(circuits), cols)
	if err != nil {
		t.Fatal(err)
	}
	sources := []leqa.Source{
		leqa.FileSource(paths[0], leqa.IngestOptions{}),
		leqa.FileSource(filepath.Join(t.TempDir(), "missing.qc"), leqa.IngestOptions{}),
		leqa.FileSource(paths[1], leqa.IngestOptions{}),
	}
	got, err := runner.SweepGridSources(context.Background(), sources, cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d results, want 3", len(got))
	}
	if !reflect.DeepEqual(got[0].Result, want[0].Result) || !reflect.DeepEqual(got[2].Result, want[1].Result) {
		t.Error("streamed estimates diverge from batch")
	}
	if got[1].Err == nil || !os.IsNotExist(got[1].Err) {
		t.Errorf("missing file error = %v", got[1].Err)
	}
}

// TestEstimateStreamCancellation checks ctx cancellation surfaces as the
// stream error instead of wedging the scan.
func TestEstimateStreamCancellation(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7")
	runner, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := leqa.CircuitSource(circuits[0]).Open()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runner.EstimateStreamWith(ctx, src, leqa.DefaultParams()); err == nil {
		t.Fatal("want cancellation error")
	}
}
