package zonemodel

import (
	"math"
	"sort"
	"testing"

	"repro/internal/fabric"
)

func testKey(grid fabric.Grid, side, q, kmax int) Key {
	return Key{
		Grid:        grid,
		ZoneSide:    side,
		Q:           q,
		Kmax:        kmax,
		Capacity:    5,
		DUncongBits: math.Float64bits(850),
	}
}

func TestHistogramMatchesCellScan(t *testing.T) {
	// The histogram collapse must reproduce the per-cell scan on fabrics
	// with no symmetry to hide behind (asymmetric, prime-ish dimensions).
	cases := []struct {
		grid       fabric.Grid
		side, q, k int
	}{
		{fabric.Grid{Width: 13, Height: 7}, 3, 12, 12},
		{fabric.Grid{Width: 40, Height: 17}, 5, 30, 20},
		{fabric.Grid{Width: 60, Height: 60}, 4, 50, 20},
		{fabric.Grid{Width: 9, Height: 1}, 1, 6, 6},
		{fabric.Grid{Width: 6, Height: 6}, 6, 4, 4}, // full-fabric zone: P = 1 everywhere
		{fabric.Grid{Width: 1, Height: 1}, 1, 3, 3},
	}
	for _, tc := range cases {
		m, err := Compute(testKey(tc.grid, tc.side, tc.q, tc.k))
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.grid.Width, tc.grid.Height, err)
		}
		want := ExpectedSurfacesCellScan(tc.grid, tc.side, tc.q, tc.k)
		got := m.ESq()
		for k := 1; k <= tc.k; k++ {
			diff := math.Abs(got[k] - want[k])
			scale := math.Max(1, math.Abs(want[k]))
			if diff/scale > 1e-9 {
				t.Errorf("%dx%d side=%d Q=%d: E[S_%d] histogram %v vs cell scan %v",
					tc.grid.Width, tc.grid.Height, tc.side, tc.q, k, got[k], want[k])
			}
		}
	}
}

// frozenExpectedSurfaces is expectedSurfaces as it stood before the
// histograms became slices: map-built profile and product histograms,
// sorted by product, and log P and log(1−P) taken again for every k. Kept
// in test code so the production path can be checked against it bitwise.
func frozenExpectedSurfaces(grid fabric.Grid, side, qubits, kmax int) []float64 {
	hist := func(n int) map[int]int {
		f := CoverProfile(n, side)
		h := make(map[int]int)
		for x := 1; x <= n; x++ {
			h[int(f[x])]++
		}
		return h
	}
	hx, hy := hist(grid.Width), hist(grid.Height)
	acc := make(map[int]int)
	for vx, cx := range hx {
		for vy, cy := range hy {
			acc[vx*vy] += cx * cy
		}
	}
	products := make([]int, 0, len(acc))
	for v := range acc {
		products = append(products, v)
	}
	sort.Ints(products)
	denom := float64(grid.Width-side+1) * float64(grid.Height-side+1)
	esq := make([]float64, kmax+1)
	fQ := float64(qubits)
	logC := 0.0
	for k := 1; k <= kmax; k++ {
		logC += math.Log((fQ - float64(k) + 1) / float64(k))
		sum := 0.0
		for _, v := range products {
			p, count := float64(v)/denom, float64(acc[v])
			switch {
			case p <= 0:
			case p >= 1:
				if k == qubits {
					sum += count
				}
			default:
				sum += count * math.Exp(logC+float64(k)*math.Log(p)+(fQ-float64(k))*math.Log1p(-p))
			}
		}
		esq[k] = sum
	}
	return esq
}

// TestExpectedSurfacesBitwiseFrozen: Compute's E[S_q] equals the frozen
// map-and-sort evaluation bit for bit, across square and skewed fabrics,
// zone sides from 1 to the full fabric, and Q below, at and above Kmax.
func TestExpectedSurfacesBitwiseFrozen(t *testing.T) {
	sizes := []int{1, 2, 7, 13, 40, 97, 200}
	for _, w := range sizes {
		for _, h := range []int{1, 6, 40, 131} {
			grid := fabric.Grid{Width: w, Height: h}
			for _, side := range []int{1, 2, 3, 5, 11, 40, min(w, h)} {
				if side > min(w, h) {
					continue
				}
				for _, q := range []int{3, 20, 133} {
					m, err := Compute(testKey(grid, side, q, 20))
					if err != nil {
						t.Fatal(err)
					}
					got, want := m.ESq(), frozenExpectedSurfaces(grid, side, q, 20)
					for k := 1; k <= 20; k++ {
						if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%dx%d side=%d Q=%d: E[S_%d] = %v, frozen %v", w, h, side, q, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

func TestExpectedSurfaceEq3Constraint(t *testing.T) {
	// Σ_{q=0..Q} E[S_q] = A (Eq. 3), including on asymmetric grids.
	for _, grid := range []fabric.Grid{
		{Width: 12, Height: 12}, {Width: 12, Height: 5}, {Width: 7, Height: 11},
	} {
		for _, qubits := range []int{1, 3, 8} {
			total := 0.0
			for q := 0; q <= qubits; q++ {
				total += ExpectedSurfaceExact(grid, 3, qubits, q)
			}
			if math.Abs(total-float64(grid.Area())) > 1e-6 {
				t.Errorf("%dx%d Q=%d: ΣE[S_q] = %v, want %d",
					grid.Width, grid.Height, qubits, total, grid.Area())
			}
		}
	}
}

func TestModelESqMatchesExact(t *testing.T) {
	// With Kmax = Q the truncated series must agree with the per-q exact
	// evaluation term by term.
	grid := fabric.Grid{Width: 15, Height: 8}
	const side, q = 3, 10
	m, err := Compute(testKey(grid, side, q, q))
	if err != nil {
		t.Fatal(err)
	}
	esq := m.ESq()
	for k := 1; k <= q; k++ {
		want := ExpectedSurfaceExact(grid, side, q, k)
		if math.Abs(esq[k]-want) > 1e-9*math.Max(1, want) {
			t.Errorf("E[S_%d] = %v, want %v", k, esq[k], want)
		}
	}
}

func TestZoneSideClamping(t *testing.T) {
	cases := []struct {
		grid fabric.Grid
		area float64
		want int
	}{
		{fabric.Grid{Width: 60, Height: 60}, 9.4, 4},  // ⌈√9.4⌉ = 4
		{fabric.Grid{Width: 60, Height: 60}, 0, 1},    // degenerate area floors at 1
		{fabric.Grid{Width: 1, Height: 40}, 9, 1},     // 1×N fabric clamps to side 1
		{fabric.Grid{Width: 40, Height: 1}, 25, 1},    // N×1 likewise
		{fabric.Grid{Width: 3, Height: 8}, 100, 3},    // clamps to the narrow dimension
		{fabric.Grid{Width: 5, Height: 5}, 1e6, 5},    // never exceeds the fabric
		{fabric.Grid{Width: 10, Height: 10}, 16.0, 4}, // exact square
	}
	for _, tc := range cases {
		if got := ZoneSide(tc.grid, tc.area); got != tc.want {
			t.Errorf("ZoneSide(%dx%d, %g) = %d, want %d",
				tc.grid.Width, tc.grid.Height, tc.area, got, tc.want)
		}
	}
}

func TestDegenerateFabricModel(t *testing.T) {
	// A 1×N fabric degenerates the zone to a single ULB; the model must
	// still produce a finite, Eq. 3-consistent series.
	grid := fabric.Grid{Width: 1, Height: 9}
	const q = 5
	m, err := Compute(testKey(grid, ZoneSide(grid, 4), q, q))
	if err != nil {
		t.Fatal(err)
	}
	esq := m.ESq()
	total := ExpectedSurfaceExact(grid, 1, q, 0)
	for k := 1; k <= q; k++ {
		if math.IsNaN(esq[k]) || esq[k] < 0 {
			t.Fatalf("E[S_%d] = %v on 1x9", k, esq[k])
		}
		total += esq[k]
	}
	if math.Abs(total-float64(grid.Area())) > 1e-6 {
		t.Errorf("1x9: ΣE[S_q] = %v, want %d", total, grid.Area())
	}
	if m.LCNOT <= 0 {
		t.Errorf("L_CNOT = %v, want > 0", m.LCNOT)
	}
}

func TestDqSeries(t *testing.T) {
	key := testKey(fabric.Grid{Width: 20, Height: 20}, 3, 12, 12)
	m, err := Compute(key)
	if err != nil {
		t.Fatal(err)
	}
	dq := m.Dq()
	dUncong := key.DUncong()
	for k := 1; k <= key.Kmax; k++ {
		if k <= key.Capacity {
			if dq[k] != dUncong {
				t.Errorf("d_%d = %v, want uncongested %v", k, dq[k], dUncong)
			}
		} else if dq[k] <= dUncong {
			t.Errorf("d_%d = %v not congested beyond Nc", k, dq[k])
		}
	}

	key.DisableCongestion = true
	m2, err := Compute(key)
	if err != nil {
		t.Fatal(err)
	}
	for k, d := range m2.Dq()[1:] {
		if d != dUncong {
			t.Errorf("congestion disabled: d_%d = %v, want %v", k+1, d, dUncong)
		}
	}
	if math.Abs(m2.LCNOT-dUncong) > 1e-9*dUncong {
		t.Errorf("congestion disabled: L_CNOT = %v, want %v", m2.LCNOT, dUncong)
	}
}

func TestComputeRejectsBadChannel(t *testing.T) {
	key := testKey(fabric.Grid{Width: 5, Height: 5}, 2, 4, 4)
	key.Capacity = 0
	if _, err := Compute(key); err == nil {
		t.Error("want capacity validation error")
	}
	key = testKey(fabric.Grid{Width: 5, Height: 5}, 2, 4, 4)
	key.DUncongBits = math.Float64bits(-1)
	if _, err := Compute(key); err == nil {
		t.Error("want d_uncong validation error")
	}
}

func TestModelCopiesAreIndependent(t *testing.T) {
	m, err := Compute(testKey(fabric.Grid{Width: 10, Height: 10}, 3, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.ESq(), m.ESq()
	a[1] = -1
	if b[1] == -1 {
		t.Error("ESq copies alias the same backing array")
	}
	d1, d2 := m.Dq(), m.Dq()
	d1[1] = -1
	if d2[1] == -1 {
		t.Error("Dq copies alias the same backing array")
	}
}
