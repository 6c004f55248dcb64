package leqa_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/leqa"
)

func streamTestCircuits(t *testing.T, names ...string) []*leqa.Circuit {
	t.Helper()
	circuits := make([]*leqa.Circuit, len(names))
	for i, name := range names {
		c, err := leqa.GenerateFT(name)
		if err != nil {
			t.Fatalf("generating %s: %v", name, err)
		}
		circuits[i] = c
	}
	return circuits
}

func streamTestParams() []leqa.Params {
	small := leqa.DefaultParams()
	small.Grid = leqa.Grid{Width: 20, Height: 20}
	large := leqa.DefaultParams()
	large.Grid = leqa.Grid{Width: 35, Height: 35}
	large.ChannelCapacity = 3
	return []leqa.Params{small, large}
}

// TestSweepGridStreamMatchesSweepGrid pins the contract the HTTP service
// relies on: the streamed cells are bitwise identical to the collected
// batch, and arrive in circuit-major input order.
func TestSweepGridStreamMatchesSweepGrid(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder", "mod16adder")
	paramSets := streamTestParams()
	r, err := leqa.NewRunner(paramSets[0], leqa.EstimateOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}

	want, err := r.SweepGridSources(context.Background(), leqa.CircuitSources(circuits), paramSets)
	if err != nil {
		t.Fatal(err)
	}

	var got []leqa.GridCell
	err = r.SweepGridSourcesStream(context.Background(), leqa.CircuitSources(circuits), paramSets, func(cell leqa.GridCell) error {
		got = append(got, cell)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(circuits)*len(paramSets) {
		t.Fatalf("streamed %d cells, want %d", len(got), len(circuits)*len(paramSets))
	}
	for k, cell := range got {
		i, j := k/len(paramSets), k%len(paramSets)
		if cell.CircuitIndex != i || cell.ParamsIndex != j {
			t.Fatalf("cell %d is (%d,%d), want (%d,%d): stream must keep circuit-major input order",
				k, cell.CircuitIndex, cell.ParamsIndex, i, j)
		}
		if !reflect.DeepEqual(cell, want[k]) {
			t.Fatalf("cell %d differs between stream and batch:\nstream: %+v\nbatch:  %+v", k, cell, want[k])
		}
	}
}

func TestSweepGridStreamEmitErrorStopsStream(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder", "mod16adder")
	paramSets := streamTestParams()
	r, err := leqa.NewRunner(paramSets[0], leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("client went away")
	emitted := 0
	err = r.SweepGridSourcesStream(context.Background(), leqa.CircuitSources(circuits), paramSets, func(leqa.GridCell) error {
		emitted++
		if emitted == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if emitted != 2 {
		t.Fatalf("emit ran %d times after failing on the 2nd row", emitted)
	}
}

func TestSweepGridStreamCancelledContext(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder")
	paramSets := streamTestParams()
	r, err := leqa.NewRunner(paramSets[0], leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got []leqa.GridCell
	err = r.SweepGridSourcesStream(ctx, leqa.CircuitSources(circuits), paramSets, func(cell leqa.GridCell) error {
		got = append(got, cell)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every slot is still accounted for; the cells carry the cancellation.
	if len(got) != len(circuits)*len(paramSets) {
		t.Fatalf("streamed %d cells, want %d error rows", len(got), len(circuits)*len(paramSets))
	}
	for _, cell := range got {
		if !errors.Is(cell.Err, context.Canceled) {
			t.Fatalf("cell (%d,%d) err = %v, want context.Canceled", cell.CircuitIndex, cell.ParamsIndex, cell.Err)
		}
	}
}

func TestSweepGridStreamRejectsBadParams(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7")
	bad := leqa.DefaultParams()
	bad.Grid = leqa.Grid{Width: 0, Height: 0}
	r, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = r.SweepGridSourcesStream(context.Background(), leqa.CircuitSources(circuits), []leqa.Params{bad}, func(leqa.GridCell) error {
		t.Fatal("emit must not run when a parameter set fails validation")
		return nil
	})
	if err == nil {
		t.Fatal("want a validation error")
	}
}

func TestRunStreamMatchesRun(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "mod16adder")
	r, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cols := []leqa.Params{leqa.DefaultParams()}
	want, err := r.SweepGridSources(context.Background(), leqa.CircuitSources(circuits), cols)
	if err != nil {
		t.Fatal(err)
	}
	var got []leqa.GridCell
	err = r.SweepGridSourcesStream(context.Background(), leqa.CircuitSources(circuits), cols, func(cell leqa.GridCell) error {
		got = append(got, cell)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed results differ from batch:\nstream: %+v\nbatch:  %+v", got, want)
	}
}

func TestRunNamedStreamPerRowErrors(t *testing.T) {
	names := []string{"ham7", "no-such-benchmark", "mod16adder"}
	r, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]leqa.Source, len(names))
	for i, name := range names {
		sources[i] = leqa.BenchmarkSource(name)
	}
	var got []leqa.GridCell
	err = r.SweepGridSourcesStream(context.Background(), sources, []leqa.Params{leqa.DefaultParams()}, func(cell leqa.GridCell) error {
		got = append(got, cell)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("streamed %d rows, want 3", len(got))
	}
	if got[0].Err != nil || got[2].Err != nil {
		t.Fatalf("good rows failed: %v / %v", got[0].Err, got[2].Err)
	}
	if got[1].Err == nil {
		t.Fatal("bad generator spec must fail its own row only")
	}
}
