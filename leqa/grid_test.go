package leqa

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// gridParamSets builds the ≥3-parameter-set matrix the acceptance criteria
// name: the default fabric, a larger fabric, and a narrow-channel/faster
// variant.
func gridParamSets() []Params {
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.Grid = Grid{Width: 90, Height: 90}
	p3 := DefaultParams()
	p3.ChannelCapacity = 2
	p3.QubitSpeed = 0.002
	return []Params{p1, p2, p3}
}

// TestSweepGridMatchesSequential is the grid-engine correctness anchor:
// over the built-in benchmarks × three parameter sets, every cell must be
// bitwise-identical to a sequential Estimate call for that (circuit,
// Params) pair.
func TestSweepGridMatchesSequential(t *testing.T) {
	names := sweepSuite(t)
	paramSets := gridParamSets()

	circuits := make([]*Circuit, len(names))
	for i, name := range names {
		c, err := GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits[i] = c
	}

	cells, err := sweepGrid(context.Background(), circuits, paramSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(circuits)*len(paramSets) {
		t.Fatalf("got %d cells, want %d", len(cells), len(circuits)*len(paramSets))
	}
	for k, cell := range cells {
		i, j := k/len(paramSets), k%len(paramSets)
		if cell.CircuitIndex != i || cell.ParamsIndex != j || cell.Name != names[i] {
			t.Fatalf("cell %d is (%d,%d,%q), want (%d,%d,%q)",
				k, cell.CircuitIndex, cell.ParamsIndex, cell.Name, i, j, names[i])
		}
		if cell.Err != nil {
			t.Fatalf("%s under params %d: %v", cell.Name, j, cell.Err)
		}
		seq, err := Estimate(circuits[i], paramSets[j])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cell.Result, seq) {
			t.Errorf("%s under params %d: grid cell differs from sequential estimate (%.17g vs %.17g µs)",
				cell.Name, j, cell.Result.EstimatedLatency, seq.EstimatedLatency)
		}
	}
}

func TestSweepGridPerCellErrors(t *testing.T) {
	good, err := GenerateFT("8bitadder")
	if err != nil {
		t.Fatal(err)
	}
	bad := circuit.New("raw-toffoli", 3)
	bad.Append(circuit.NewToffoli(0, 1, 2))

	paramSets := gridParamSets()
	cells, err := sweepGrid(context.Background(), []*Circuit{good, bad}, paramSets)
	if err != nil {
		t.Fatal(err)
	}
	for k, cell := range cells {
		wantErr := cell.CircuitIndex == 1
		if (cell.Err != nil) != wantErr {
			t.Errorf("cell %d (circuit %d): err = %v, want error: %v", k, cell.CircuitIndex, cell.Err, wantErr)
		}
		if wantErr && cell.Result != nil {
			t.Errorf("cell %d carries a result despite the analysis error", k)
		}
	}
}

func TestSweepGridRejectsBadParams(t *testing.T) {
	good, err := GenerateFT("8bitadder")
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.TMove = 0
	if _, err := sweepGrid(context.Background(), []*Circuit{good}, []Params{DefaultParams(), bad}); err == nil {
		t.Error("want validation error for the broken parameter set")
	}
}

func TestSweepGridCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := GenerateFT("8bitadder")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweepGrid(ctx, []*Circuit{c, c}, gridParamSets())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6 (every slot must be accounted for)", len(cells))
	}
	for k, cell := range cells {
		if !errors.Is(cell.Err, context.Canceled) {
			t.Errorf("cell %d: err = %v, want context.Canceled", k, cell.Err)
		}
		if cell.Result != nil {
			t.Errorf("cell %d carries a result despite pre-cancelled context", k)
		}
	}
}

// smallestFirstGrid builds a five-row grid whose sources arrive
// smallest-first: by-ref analyses at both ends, in-memory circuits at 1
// and 3, and one streamed .qc body in the middle, the only source whose
// size is unknown until it is read. fresh makes the sources again, since a
// streamed source can be opened once.
func smallestFirstGrid(t *testing.T) (fresh func() []Source, wantStart []int) {
	t.Helper()
	circuits := make([]*Circuit, 0, 5)
	for _, name := range []string{"ham7", "4bitadder", "mod16adder", "8bitadder", "gf2^16mult"} {
		c, err := GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	slices.SortStableFunc(circuits, func(a, b *Circuit) int { return cmp.Compare(a.NumGates(), b.NumGates()) })
	var body bytes.Buffer
	if err := circuit.WriteQC(&body, circuits[2]); err != nil {
		t.Fatal(err)
	}
	byRef := func(c *Circuit) Source {
		a, err := Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		return AnalysisSource(c.Name, a)
	}
	first, last := byRef(circuits[0]), byRef(circuits[4])
	return func() []Source {
		return []Source{
			first,
			CircuitSource(circuits[1]),
			ReaderSource(circuits[2].Name, bytes.NewReader(body.Bytes()), IngestOptions{}),
			CircuitSource(circuits[3]),
			last,
		}
	}, []int{2, 4, 3, 1, 0}
}

// TestSweepGridLargestFirstMatchesRowsAlone: rows start largest-first —
// the unread stream first, then by size — and the grid still emits, in
// input order, the cells each row gives when it is estimated alone,
// bitwise, with one worker and with two.
func TestSweepGridLargestFirstMatchesRowsAlone(t *testing.T) {
	fresh, wantStart := smallestFirstGrid(t)
	if got := startOrder(fresh()); !slices.Equal(got, wantStart) {
		t.Fatalf("start order %v, want %v", got, wantStart)
	}
	paramSets := gridParamSets()
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		r, err := NewRunner(DefaultParams(), EstimateOptions{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		var cells []GridCell
		err = r.SweepGridSourcesStream(ctx, fresh(), paramSets, func(c GridCell) error {
			cells = append(cells, c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		alone := fresh()
		if len(cells) != len(alone)*len(paramSets) {
			t.Fatalf("%d workers: %d cells, want %d", workers, len(cells), len(alone)*len(paramSets))
		}
		for i, src := range alone {
			want, err := r.SweepGridSources(ctx, []Source{src}, paramSets)
			if err != nil {
				t.Fatal(err)
			}
			for j, w := range want {
				g := cells[i*len(paramSets)+j]
				if g.CircuitIndex != i || g.ParamsIndex != j || g.Name != src.Name {
					t.Fatalf("%d workers: cell %d is (%d,%d,%q), want (%d,%d,%q)", workers,
						i*len(paramSets)+j, g.CircuitIndex, g.ParamsIndex, g.Name, i, j, src.Name)
				}
				if g.Err != nil || w.Err != nil {
					t.Fatalf("%d workers: %s col %d: grid err %v, alone err %v", workers, src.Name, j, g.Err, w.Err)
				}
				if math.Float64bits(g.Result.EstimatedLatency) != math.Float64bits(w.Result.EstimatedLatency) ||
					!reflect.DeepEqual(g.Result, w.Result) {
					t.Errorf("%d workers: %s col %d: grid cell differs from the row alone (%.17g vs %.17g µs)",
						workers, src.Name, j, g.Result.EstimatedLatency, w.Result.EstimatedLatency)
				}
			}
		}
	}
}

// TestSweepGridLargestFirstCancellation: a grid cancelled as its first
// row starts, when the streamed source opens, still accounts for every
// cell, in input order, each with a result or the context's error, and
// returns that error.
func TestSweepGridLargestFirstCancellation(t *testing.T) {
	fresh, wantStart := smallestFirstGrid(t)
	paramSets := gridParamSets()
	for _, workers := range []int{1, 2} {
		r, err := NewRunner(DefaultParams(), EstimateOptions{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sources := fresh()
		stream := &sources[wantStart[0]]
		open := stream.Open
		stream.Open = func() (GateStream, error) {
			cancel()
			return open()
		}
		var cells []GridCell
		err = r.SweepGridSourcesStream(ctx, sources, paramSets, func(c GridCell) error {
			cells = append(cells, c)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: err = %v, want context.Canceled", workers, err)
		}
		if want := 5 * len(paramSets); len(cells) != want {
			t.Fatalf("%d workers: %d cells, want %d (every slot must be accounted for)", workers, len(cells), want)
		}
		cancelled := 0
		for k, cell := range cells {
			if cell.CircuitIndex != k/len(paramSets) || cell.ParamsIndex != k%len(paramSets) {
				t.Fatalf("%d workers: cell %d is (%d,%d), out of input order", workers, k, cell.CircuitIndex, cell.ParamsIndex)
			}
			switch {
			case cell.Err == nil && cell.Result != nil:
			case errors.Is(cell.Err, context.Canceled) && cell.Result == nil:
				cancelled++
			default:
				t.Errorf("%d workers: cell %d: result %v, err %v; want a result or context.Canceled", workers, k, cell.Result != nil, cell.Err)
			}
		}
		if cancelled == 0 {
			t.Errorf("%d workers: no cell carries the cancellation", workers)
		}
	}
}

func TestSweepGridEmptyInputs(t *testing.T) {
	cells, err := sweepGrid(context.Background(), nil, gridParamSets())
	if err != nil || len(cells) != 0 {
		t.Errorf("empty circuits: cells=%d err=%v", len(cells), err)
	}
	c, genErr := GenerateFT("8bitadder")
	if genErr != nil {
		t.Fatal(genErr)
	}
	cells, err = sweepGrid(context.Background(), []*Circuit{c}, nil)
	if err != nil || len(cells) != 0 {
		t.Errorf("empty params: cells=%d err=%v", len(cells), err)
	}
}

func TestWriteResultsEmitters(t *testing.T) {
	c, err := GenerateFT("8bitadder")
	if err != nil {
		t.Fatal(err)
	}
	bad := circuit.New("raw-toffoli", 3)
	bad.Append(circuit.NewToffoli(0, 1, 2))
	cells, err := sweepGrid(context.Background(), []*Circuit{c, bad}, []Params{DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}

	var jb strings.Builder
	if err := WriteResultsJSON(&jb, cells); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"circuit": "8bitadder"`, `"estimatedLatencyUs"`, `"error"`, `"gridWidth": 60`} {
		if !strings.Contains(jb.String(), want) {
			t.Errorf("JSON output missing %q:\n%s", want, jb.String())
		}
	}

	var cb strings.Builder
	if err := WriteResultsCSV(&cb, cells); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), cb.String())
	}
	if !strings.HasPrefix(lines[0], "circuit,circuit_index") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "8bitadder") || !strings.Contains(lines[2], "non-FT") {
		t.Errorf("CSV rows wrong:\n%s", cb.String())
	}
}
