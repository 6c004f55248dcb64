package leqa

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// sweepSuite picks the benchmark set: every built-in circuit normally, a
// small subset under -short.
func sweepSuite(t *testing.T) []string {
	t.Helper()
	if testing.Short() {
		return []string{"8bitadder", "gf2^16mult", "ham15"}
	}
	return Benchmarks()
}

// sweep runs sources under one parameter set through a GOMAXPROCS Runner —
// the single-column shape of the one engine.
func sweep(ctx context.Context, sources []Source, p Params) ([]GridCell, error) {
	r, err := NewRunner(p, EstimateOptions{}, 0)
	if err != nil {
		return nil, err
	}
	return r.SweepGridSources(ctx, sources, []Params{p})
}

// sweepGrid runs circuits × paramSets through a GOMAXPROCS Runner.
func sweepGrid(ctx context.Context, circuits []*Circuit, paramSets []Params) ([]GridCell, error) {
	r, err := NewRunner(DefaultParams(), EstimateOptions{}, 0)
	if err != nil {
		return nil, err
	}
	return r.SweepGridSources(ctx, CircuitSources(circuits), paramSets)
}

// benchmarkSources names built-in benchmarks as sources.
func benchmarkSources(names []string) []Source {
	srcs := make([]Source, len(names))
	for i, name := range names {
		srcs[i] = BenchmarkSource(name)
	}
	return srcs
}

// TestSweepMatchesSequential is the batch-engine correctness anchor: the
// concurrent sweep over the built-in benchmarks must return estimates
// bitwise-identical to sequential Estimate calls.
func TestSweepMatchesSequential(t *testing.T) {
	names := sweepSuite(t)
	p := DefaultParams()

	circuits := make([]*Circuit, len(names))
	sequential := make([]*EstimateResult, len(names))
	for i, name := range names {
		c, err := GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits[i] = c
		sequential[i], err = Estimate(c, p)
		if err != nil {
			t.Fatal(err)
		}
	}

	results, err := sweep(context.Background(), CircuitSources(circuits), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(names) {
		t.Fatalf("got %d results, want %d", len(results), len(names))
	}
	for i, sr := range results {
		if sr.Err != nil {
			t.Fatalf("%s: %v", names[i], sr.Err)
		}
		if sr.CircuitIndex != i || sr.Name != names[i] {
			t.Errorf("result %d is %q (index %d), want %q", i, sr.Name, sr.CircuitIndex, names[i])
		}
		seq := sequential[i]
		if sr.Result.EstimatedLatency != seq.EstimatedLatency {
			t.Errorf("%s: sweep latency %v != sequential %v",
				names[i], sr.Result.EstimatedLatency, seq.EstimatedLatency)
		}
		if sr.Result.LCNOTAvg != seq.LCNOTAvg {
			t.Errorf("%s: sweep L_CNOT %v != sequential %v",
				names[i], sr.Result.LCNOTAvg, seq.LCNOTAvg)
		}
		if sr.Result.DUncong != seq.DUncong {
			t.Errorf("%s: sweep d_uncong %v != sequential %v",
				names[i], sr.Result.DUncong, seq.DUncong)
		}
	}
}

func TestSweepNamedMatchesSweep(t *testing.T) {
	names := []string{"8bitadder", "ham15"}
	p := DefaultParams()
	byName, err := sweep(context.Background(), benchmarkSources(names), p)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		c, err := GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Estimate(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if byName[i].Err != nil {
			t.Fatalf("%s: %v", name, byName[i].Err)
		}
		if byName[i].Result.EstimatedLatency != seq.EstimatedLatency {
			t.Errorf("%s: named sweep %v != sequential %v",
				name, byName[i].Result.EstimatedLatency, seq.EstimatedLatency)
		}
	}
}

func TestSweepPerCircuitErrors(t *testing.T) {
	// One bad circuit must not sink the batch: its slot carries the error,
	// the others succeed.
	good, err := GenerateFT("8bitadder")
	if err != nil {
		t.Fatal(err)
	}
	bad := circuit.New("raw-toffoli", 3)
	bad.Append(circuit.NewToffoli(0, 1, 2))

	results, err := sweep(context.Background(), CircuitSources([]*Circuit{good, bad, good}), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("good circuits failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("non-FT circuit did not report an error")
	}
}

func TestSweepBadGeneratorName(t *testing.T) {
	results, err := sweep(context.Background(), benchmarkSources([]string{"8bitadder", "no-such-bench"}), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("8bitadder failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("unknown generator name did not report an error")
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	c, err := GenerateFT("8bitadder")
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep(ctx, CircuitSources([]*Circuit{c, c, c}), DefaultParams())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 (every slot must be accounted for)", len(results))
	}
	for i, sr := range results {
		if sr.CircuitIndex != i || sr.Name != c.Name {
			t.Errorf("slot %d: index %d name %q", i, sr.CircuitIndex, sr.Name)
		}
		// The context was cancelled before the sweep, so no slot can have been
		// estimated: each must carry the cancellation error.
		if !errors.Is(sr.Err, context.Canceled) {
			t.Errorf("slot %d: err = %v, want context.Canceled", i, sr.Err)
		}
		if sr.Result != nil {
			t.Errorf("slot %d carries a result despite pre-cancelled context", i)
		}
	}
}

func TestSweepEmptyInput(t *testing.T) {
	results, err := sweep(context.Background(), nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("got %d results for empty input", len(results))
	}
}

func TestNewRunnerValidatesParams(t *testing.T) {
	p := DefaultParams()
	p.TMove = 0
	if _, err := NewRunner(p, EstimateOptions{}, 2); err == nil {
		t.Error("want validation error")
	}
}

func TestRunnerSingleWorkerDeterministic(t *testing.T) {
	// A 1-worker pool is plain sequential execution through the same code
	// path; two runs must agree bitwise.
	r, err := NewRunner(DefaultParams(), EstimateOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"8bitadder", "ham15"}
	a, err := r.SweepGridSources(context.Background(), benchmarkSources(names), []Params{DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SweepGridSources(context.Background(), benchmarkSources(names), []Params{DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatal(a[i].Err, b[i].Err)
		}
		if a[i].Result.EstimatedLatency != b[i].Result.EstimatedLatency {
			t.Errorf("%s: runs disagree: %v vs %v",
				names[i], a[i].Result.EstimatedLatency, b[i].Result.EstimatedLatency)
		}
	}
}

// TestRunnerArenaFreeList pins the arena free list: release keeps at most
// Workers idle arenas and drops the rest, checkout takes the most recently
// released one, and idle arenas survive garbage collection, so a request
// after a GC cycle finds its slabs already grown.
func TestRunnerArenaFreeList(t *testing.T) {
	r, err := NewRunner(DefaultParams(), EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := r.arena(), r.arena(), r.arena()
	r.release(a)
	r.release(b)
	r.release(c) // over the bound: dropped
	if len(r.free) != 2 {
		t.Fatalf("%d idle arenas, want the 2-worker bound", len(r.free))
	}
	runtime.GC()
	runtime.GC()
	if got := r.arena(); got != b {
		t.Fatal("checkout did not return the most recently kept arena after GC")
	}
	if got := r.arena(); got != a {
		t.Fatal("second checkout did not return the older idle arena")
	}
}

// TestRunnerDropsOversizedArenas pins the free list's size cap: an arena
// that analyzed maxIdleArenaGates gates goes back to the list, one that
// analyzed a gate more is dropped on release, and so is one that only swept
// a larger analysis built outside it, so a huge upload's or stored
// circuit's slabs do not outlive its estimate.
func TestRunnerDropsOversizedArenas(t *testing.T) {
	p := DefaultParams()
	body := func(gates int) string {
		return ".v a\nBEGIN\n" + strings.Repeat("T a\n", gates) + "END\n"
	}
	big, err := AnalyzeReader(strings.NewReader(body(maxIdleArenaGates+1)), "big", IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  Source
		kept bool
	}{
		{"analyzed at the cap", ReaderSource("cap", strings.NewReader(body(maxIdleArenaGates)), IngestOptions{}), true},
		{"analyzed past the cap", ReaderSource("big", strings.NewReader(body(maxIdleArenaGates+1)), IngestOptions{}), false},
		{"swept past the cap", AnalysisSource("big", big), false},
	} {
		r, err := NewRunner(p, EstimateOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := r.SweepGridSources(context.Background(), []Source{tc.src}, []Params{p})
		if err != nil {
			t.Fatal(err)
		}
		if cells[0].Err != nil {
			t.Fatal(cells[0].Err)
		}
		if kept := len(r.free) == 1; kept != tc.kept {
			t.Errorf("%s: arena kept = %v, want %v", tc.name, kept, tc.kept)
		}
	}
}
