package main

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/leqa"
)

// TestGoldenBaselineCSV regenerates testdata/golden_baseline.csv through
// the exact pipeline `leqa -csv -grid 16x16 -grid 24x24 -capacity 3
// -capacity 5 ham7 4bitadder mod16adder` uses (generate → decompose →
// SweepGrid → WriteResultsCSV) and fails on any drift — the in-tree guard
// behind CI's baseline-diff step. Regenerate the file with that command if
// an estimator change is intentional.
func TestGoldenBaselineCSV(t *testing.T) {
	names := []string{"ham7", "4bitadder", "mod16adder"}
	circuits := make([]*leqa.Circuit, len(names))
	for i, name := range names {
		raw, err := leqa.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		if circuits[i], err = leqa.Decompose(raw); err != nil {
			t.Fatal(err)
		}
	}

	// The CLI's matrix order: grids outermost, then capacities, speeds.
	base := leqa.DefaultParams()
	var paramSets []leqa.Params
	for _, g := range []leqa.Grid{{Width: 16, Height: 16}, {Width: 24, Height: 24}} {
		for _, nc := range []int{3, 5} {
			p := base.Clone()
			p.Grid = g
			p.ChannelCapacity = nc
			paramSets = append(paramSets, p)
		}
	}

	runner, err := leqa.NewRunner(paramSets[0], leqa.EstimateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := runner.SweepGridSources(context.Background(), leqa.CircuitSources(circuits), paramSets)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := leqa.WriteResultsCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile("testdata/golden_baseline.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("golden baseline drifted; if intentional, regenerate with\n"+
			"  go run ./cmd/leqa -csv -grid 16x16 -grid 24x24 -capacity 3 -capacity 5 ham7 4bitadder mod16adder > cmd/leqa/testdata/golden_baseline.csv\n"+
			"got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
