package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/fabric"
)

func defaultEstimator(t *testing.T, opt Options) *Estimator {
	t.Helper()
	e, err := New(fabric.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// estimateCircuit is Algorithm 1 end to end on a materialized circuit: the
// FT-guarded analysis, then the estimate.
func estimateCircuit(e *Estimator, c *circuit.Circuit) (*Result, error) {
	a, err := e.AnalyzeStreamFT(analysis.NewCircuitStream(c), nil)
	if err != nil {
		return nil, err
	}
	return e.EstimateAnalysis(a, nil)
}

func TestNewRejectsBadParams(t *testing.T) {
	p := fabric.Default()
	p.TMove = 0
	if _, err := New(p, Options{}); err == nil {
		t.Error("want validation error")
	}
}

func TestEstimateRejectsNonFT(t *testing.T) {
	c := circuit.New("t", 3)
	c.Append(circuit.NewToffoli(0, 1, 2))
	e := defaultEstimator(t, Options{})
	if _, err := estimateCircuit(e, c); err == nil {
		t.Error("want non-FT rejection")
	}
}

func TestEstimateOneQubitChain(t *testing.T) {
	// 5 sequential H gates on one qubit, no CNOTs: D = 5·(d_H + 2·T_move).
	c := circuit.New("chain", 1)
	for i := 0; i < 5; i++ {
		c.Append(circuit.NewOneQubit(circuit.H, 0))
	}
	e := defaultEstimator(t, Options{})
	res, err := estimateCircuit(e, c)
	if err != nil {
		t.Fatal(err)
	}
	want := 5 * (5440.0 + 200.0)
	if math.Abs(res.EstimatedLatency-want) > 1e-9 {
		t.Errorf("D = %v, want %v", res.EstimatedLatency, want)
	}
	if res.LCNOTAvg != 0 {
		t.Errorf("no CNOTs but L_CNOT = %v", res.LCNOTAvg)
	}
	if res.CriticalOneQubit != 5 || res.CriticalCNOTs != 0 {
		t.Errorf("critical counts: %d 1q, %d cnot", res.CriticalOneQubit, res.CriticalCNOTs)
	}
}

func TestEstimateParallelChains(t *testing.T) {
	// Two independent qubits: 3 T gates vs 2 H gates. Critical path is the
	// T chain (T is the slowest gate in Table 1).
	c := circuit.New("par", 2)
	for i := 0; i < 3; i++ {
		c.Append(circuit.NewOneQubit(circuit.T, 0))
	}
	for i := 0; i < 2; i++ {
		c.Append(circuit.NewOneQubit(circuit.H, 1))
	}
	e := defaultEstimator(t, Options{})
	res, err := estimateCircuit(e, c)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * (10940.0 + 200.0)
	if math.Abs(res.EstimatedLatency-want) > 1e-9 {
		t.Errorf("D = %v, want %v", res.EstimatedLatency, want)
	}
}

func TestEstimateWithCNOTs(t *testing.T) {
	c := circuit.New("pair", 2)
	c.Append(circuit.NewCNOT(0, 1), circuit.NewCNOT(0, 1))
	e := defaultEstimator(t, Options{})
	res, err := estimateCircuit(e, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.LCNOTAvg <= 0 {
		t.Fatalf("L_CNOT = %v, want > 0", res.LCNOTAvg)
	}
	want := 2 * (4930.0 + res.LCNOTAvg)
	if math.Abs(res.EstimatedLatency-want) > 1e-6 {
		t.Errorf("D = %v, want %v", res.EstimatedLatency, want)
	}
	if res.CriticalCNOTs != 2 {
		t.Errorf("critical CNOTs = %d", res.CriticalCNOTs)
	}
	if res.DUncong <= 0 {
		t.Errorf("d_uncong = %v", res.DUncong)
	}
}

func TestCoverageProbabilityEq5(t *testing.T) {
	grid := fabric.Grid{Width: 10, Height: 10}
	// Zone side 3 on a 10×10 grid: denominator (10−3+1)² = 64.
	// Center cell (5,5): numerator min(5,6,3,8)·min(5,6,3,8) = 9 → 9/64.
	got := CoverageProbability(grid, 3, 5, 5)
	if math.Abs(got-9.0/64.0) > 1e-12 {
		t.Errorf("P(5,5) = %v, want %v", got, 9.0/64.0)
	}
	// Corner (1,1): numerator 1 → 1/64.
	got = CoverageProbability(grid, 3, 1, 1)
	if math.Abs(got-1.0/64.0) > 1e-12 {
		t.Errorf("P(1,1) = %v, want %v", got, 1.0/64.0)
	}
	// Symmetry: P(x,y) = P(a−x+1, b−y+1).
	for x := 1; x <= 10; x++ {
		for y := 1; y <= 10; y++ {
			p1 := CoverageProbability(grid, 3, x, y)
			p2 := CoverageProbability(grid, 3, 11-x, 11-y)
			if math.Abs(p1-p2) > 1e-12 {
				t.Errorf("symmetry broken at (%d,%d)", x, y)
			}
		}
	}
}

func TestCoverageProbabilityBounds(t *testing.T) {
	grid := fabric.Grid{Width: 8, Height: 6}
	for s := 1; s <= 6; s++ {
		for x := 1; x <= 8; x++ {
			for y := 1; y <= 6; y++ {
				p := CoverageProbability(grid, s, x, y)
				if p < 0 || p > 1 {
					t.Fatalf("P out of range: s=%d (%d,%d) = %v", s, x, y, p)
				}
			}
		}
	}
	// Full-fabric zone on a square grid: probability 1 everywhere (the
	// zone is square, so a non-square grid can never be fully covered).
	sq := fabric.Grid{Width: 6, Height: 6}
	for x := 1; x <= 6; x++ {
		for y := 1; y <= 6; y++ {
			if p := CoverageProbability(sq, 6, x, y); math.Abs(p-1) > 1e-12 {
				t.Errorf("full zone P(%d,%d) = %v", x, y, p)
			}
		}
	}
}

func TestCoverageSumIdentity(t *testing.T) {
	// Σ_{x,y} P_{x,y} must equal the expected zone coverage area: every
	// placement covers exactly s² cells when s divides cleanly... in
	// general Σ P = s² (average over placements of covered cells).
	grid := fabric.Grid{Width: 12, Height: 9}
	for s := 1; s <= 9; s++ {
		sum := 0.0
		for x := 1; x <= grid.Width; x++ {
			for y := 1; y <= grid.Height; y++ {
				sum += CoverageProbability(grid, s, x, y)
			}
		}
		if math.Abs(sum-float64(s*s)) > 1e-9 {
			t.Errorf("s=%d: ΣP = %v, want %d", s, sum, s*s)
		}
	}
}

func TestExpectedSurfaceEq3Constraint(t *testing.T) {
	// Σ_{q=0..Q} E[S_q] = A (Eq. 3).
	grid := fabric.Grid{Width: 12, Height: 12}
	for _, qubits := range []int{1, 3, 8} {
		total := 0.0
		for q := 0; q <= qubits; q++ {
			total += ExpectedSurfaceExact(grid, 3, qubits, q)
		}
		if math.Abs(total-float64(grid.Area())) > 1e-6 {
			t.Errorf("Q=%d: ΣE[S_q] = %v, want %d", qubits, total, grid.Area())
		}
	}
}

func TestTruncationConvergence(t *testing.T) {
	// With the default 20-term truncation vs the full sum, L_CNOT must
	// agree closely (the paper's claim that 20 terms suffice).
	c := circuit.New("mesh", 30)
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j += 3 {
			c.Append(circuit.NewCNOT(i, j))
		}
	}
	p := fabric.Default()
	eTrunc, _ := New(p, Options{})              // 20 terms
	eFull, _ := New(p, Options{Truncation: -1}) // all Q terms
	rTrunc, err := estimateCircuit(eTrunc, c)
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := estimateCircuit(eFull, c)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(rTrunc.LCNOTAvg-rFull.LCNOTAvg) / rFull.LCNOTAvg
	if rel > 0.01 {
		t.Errorf("truncation changes L_CNOT by %.2f%%", rel*100)
	}
}

func TestDisableCongestionLowersOrEqualLatency(t *testing.T) {
	c := circuit.New("mesh", 40)
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j += 2 {
			c.Append(circuit.NewCNOT(i, j))
		}
	}
	p := fabric.Default()
	// Shrink the fabric so zones overlap heavily and congestion matters.
	p.Grid = fabric.Grid{Width: 8, Height: 8}
	eOn, _ := New(p, Options{})
	eOff, _ := New(p, Options{DisableCongestion: true})
	rOn, err := estimateCircuit(eOn, c)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := estimateCircuit(eOff, c)
	if err != nil {
		t.Fatal(err)
	}
	if rOff.EstimatedLatency > rOn.EstimatedLatency+1e-9 {
		t.Errorf("disabling congestion increased latency: %v > %v",
			rOff.EstimatedLatency, rOn.EstimatedLatency)
	}
	if math.Abs(rOff.LCNOTAvg-rOff.DUncong) > 1e-9*rOff.DUncong {
		t.Errorf("without congestion L_CNOT (%v) should equal d_uncong (%v)",
			rOff.LCNOTAvg, rOff.DUncong)
	}
}

func TestLCNOTBetweenDuncongAndMaxDq(t *testing.T) {
	// L_CNOT is a weighted average of d_q values, so it must lie within
	// their range.
	c := circuit.New("mesh", 25)
	for i := 0; i < 25; i++ {
		for j := i + 1; j < 25; j++ {
			c.Append(circuit.NewCNOT(i, j))
		}
	}
	p := fabric.Default()
	p.Grid = fabric.Grid{Width: 10, Height: 10}
	e, _ := New(p, Options{})
	res, err := estimateCircuit(e, c)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for q := 1; q < len(res.Dq); q++ {
		lo = math.Min(lo, res.Dq[q])
		hi = math.Max(hi, res.Dq[q])
	}
	if res.LCNOTAvg < lo-1e-9 || res.LCNOTAvg > hi+1e-9 {
		t.Errorf("L_CNOT %v outside d_q range [%v, %v]", res.LCNOTAvg, lo, hi)
	}
}

func TestMoreOpsNeverFasterProperty(t *testing.T) {
	// Appending a gate to a linear chain never decreases the estimate.
	e := defaultEstimator(t, Options{})
	f := func(seed uint8) bool {
		n := int(seed%20) + 1
		c := circuit.New("p", 2)
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				c.Append(circuit.NewCNOT(0, 1))
			} else {
				c.Append(circuit.NewOneQubit(circuit.H, 0))
			}
		}
		r1, err := estimateCircuit(e, c)
		if err != nil {
			return false
		}
		c.Append(circuit.NewOneQubit(circuit.T, 0))
		r2, err := estimateCircuit(e, c)
		if err != nil {
			return false
		}
		return r2.EstimatedLatency >= r1.EstimatedLatency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentEstimatesShareModel hammers one estimator from many
// goroutines (run with -race): every estimate must agree bitwise with the
// sequential baseline even though they all share the memoized zone model,
// and the result slices must be private copies, not aliases of the cache.
func TestConcurrentEstimatesShareModel(t *testing.T) {
	c := circuit.New("mesh", 20)
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j += 2 {
			c.Append(circuit.NewCNOT(i, j))
		}
	}
	e := defaultEstimator(t, Options{})
	base, err := estimateCircuit(e, c)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	results := make([]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := estimateCircuit(e, c)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	for g, res := range results {
		if res == nil {
			t.Fatalf("goroutine %d produced no result", g)
		}
		if res.EstimatedLatency != base.EstimatedLatency || res.LCNOTAvg != base.LCNOTAvg {
			t.Errorf("goroutine %d: latency %v / L_CNOT %v, want %v / %v",
				g, res.EstimatedLatency, res.LCNOTAvg, base.EstimatedLatency, base.LCNOTAvg)
		}
		if &res.ESq[0] == &base.ESq[0] || &res.Dq[0] == &base.Dq[0] {
			t.Errorf("goroutine %d: result slices alias the shared model", g)
		}
	}
}

func TestResultBookkeeping(t *testing.T) {
	c := circuit.New("book", 3)
	c.Append(circuit.NewCNOT(0, 1), circuit.NewOneQubit(circuit.T, 2))
	e := defaultEstimator(t, Options{})
	res, err := estimateCircuit(e, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Qubits != 3 || res.Operations != 2 {
		t.Errorf("bookkeeping: %d qubits, %d ops", res.Qubits, res.Operations)
	}
	if res.LOneQubitAvg != 200 {
		t.Errorf("L_g = %v", res.LOneQubitAvg)
	}
	if res.ZoneSide < 1 {
		t.Errorf("zone side = %d", res.ZoneSide)
	}
}
