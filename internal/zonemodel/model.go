// Package zonemodel implements the fabric-dependent half of LEQA's routing
// model (§3.1, Eq. 4–8): the presence-zone coverage probabilities P_{x,y}
// (Eq. 5), the expected shared surfaces E[S_q] (Eq. 4, truncated per the
// paper), the M/M/1 channel delays d_q (Eq. 8) and their weighted average
// L_CNOT^avg (Eq. 2).
//
// Everything here depends only on the fabric geometry, the zone side, the
// qubit count and the congestion parameters — not on the circuit's gate
// list — so a computed Model is reusable across every estimate on the same
// fabric. Cache (an internal/lru memo keyed by Key, the cache the analysis
// store and the result memo share) exploits that: repeated estimates,
// ablation sweeps and concurrent batch runs share one Model per distinct
// configuration.
//
// The E[S_q] evaluation collapses the paper's O(a·b) cell scan to a
// histogram over distinct coverage products: the 1-D profile f[x] =
// min(x, n−x+1, s, n−s+1) takes at most min(s, n−s+1) distinct values, so
// the 2-D field px[x]·py[y] has at most min(s,a−s+1)·min(s,b−s+1) distinct
// products and the per-k sum runs over those products weighted by their
// multiplicities instead of over all a·b cells.
package zonemodel

import (
	"math"
	"sort"

	"repro/internal/fabric"
	"repro/internal/queuemodel"
)

// Key identifies one fabric-dependent model instance. All fields take part
// in equality so Key is directly usable as a map key; DUncongBits carries
// the d_uncong float bit-exactly (Eq. 8 scales linearly with it, so every
// distinct value is a distinct model).
type Key struct {
	// Grid is the fabric geometry (a × b ULBs).
	Grid fabric.Grid
	// ZoneSide is ⌈√B⌉ clamped to the fabric (see ZoneSide).
	ZoneSide int
	// Q is the number of logical qubits placing zones on the fabric.
	Q int
	// Kmax is the E[S_q] truncation limit (the paper's 20 terms).
	Kmax int
	// Capacity is the routing-channel capacity Nc.
	Capacity int
	// DUncongBits is math.Float64bits of d_uncong (Eq. 12).
	DUncongBits uint64
	// DisableCongestion replaces Eq. 8 with d_q = d_uncong (ablation).
	DisableCongestion bool
}

// DUncong recovers the congestion-free routing latency from the key.
func (k Key) DUncong() float64 { return math.Float64frombits(k.DUncongBits) }

// NewKey assembles a Key from physical parameters and the IIG-derived
// average zone area, deriving the clamped zone side.
func NewKey(grid fabric.Grid, avgZoneArea float64, q, kmax, capacity int, dUncong float64, disableCongestion bool) Key {
	return Key{
		Grid:              grid,
		ZoneSide:          ZoneSide(grid, avgZoneArea),
		Q:                 q,
		Kmax:              kmax,
		Capacity:          capacity,
		DUncongBits:       math.Float64bits(dUncong),
		DisableCongestion: disableCongestion,
	}
}

// Model holds the fabric-dependent intermediates of one configuration. A
// Model is immutable after Compute; share freely across goroutines.
type Model struct {
	// Key echoes the configuration this model was computed for.
	Key Key
	// esq[k] is E[S_q=k] (Eq. 4) for k = 1..Kmax; index 0 unused.
	esq []float64
	// dq[k] is d_q (Eq. 8) for k = 1..Kmax; index 0 unused.
	dq []float64
	// LCNOT is L_CNOT^avg (Eq. 2): Σ E[S_q]·d_q / Σ E[S_q].
	LCNOT float64
}

// Compute evaluates the model for a key. The only error source is an
// invalid channel configuration (capacity < 1 or d_uncong ≤ 0).
func Compute(key Key) (*Model, error) {
	ch, err := queuemodel.NewChannel(key.Capacity, key.DUncong())
	if err != nil {
		return nil, err
	}
	m := &Model{
		Key: key,
		esq: make([]float64, key.Kmax+1),
		dq:  make([]float64, key.Kmax+1),
	}
	for k := 1; k <= key.Kmax; k++ {
		if key.DisableCongestion {
			m.dq[k] = key.DUncong()
		} else {
			m.dq[k] = ch.Delay(k)
		}
	}

	expectedSurfaces(m.esq, key.Grid, key.ZoneSide, key.Q, key.Kmax)

	// Line 18 of Algorithm 1: L_CNOT^avg (Eq. 2).
	num, den := 0.0, 0.0
	for k := 1; k <= key.Kmax; k++ {
		num += m.esq[k] * m.dq[k]
		den += m.esq[k]
	}
	if den > 0 {
		m.LCNOT = num / den
	}
	return m, nil
}

// ESq returns a fresh copy of the E[S_q] series (index 0 unused), safe for
// callers to own and mutate.
func (m *Model) ESq() []float64 { return append([]float64(nil), m.esq...) }

// Dq returns a fresh copy of the d_q series (index 0 unused).
func (m *Model) Dq() []float64 { return append([]float64(nil), m.dq...) }

// ZoneSide returns ⌈√B⌉ clamped to [1, min(a, b)] so a zone always fits on
// the fabric.
func ZoneSide(grid fabric.Grid, avgZoneArea float64) int {
	side := int(math.Ceil(math.Sqrt(avgZoneArea)))
	if side < 1 {
		side = 1
	}
	if side > grid.Width {
		side = grid.Width
	}
	if side > grid.Height {
		side = grid.Height
	}
	return side
}

// CoverProfile returns f[x] = min(x, n−x+1, s, n−s+1) for x in 1..n — the
// 1-D count of zone placements covering coordinate x (Eq. 5 numerator
// factor; Fig. 4). Index 0 is unused.
func CoverProfile(n, s int) []float64 {
	f := make([]float64, n+1)
	for x := 1; x <= n; x++ {
		v := x
		if n-x+1 < v {
			v = n - x + 1
		}
		if s < v {
			v = s
		}
		if n-s+1 < v {
			v = n - s + 1
		}
		f[x] = float64(v)
	}
	return f
}

// CoverageProbability exposes Eq. 5 for a single ULB — used by the Fig. 3/4
// regenerations and tests. x and y are 1-based.
func CoverageProbability(grid fabric.Grid, zoneSide, x, y int) float64 {
	if zoneSide > grid.Width {
		zoneSide = grid.Width
	}
	if zoneSide > grid.Height {
		zoneSide = grid.Height
	}
	px := CoverProfile(grid.Width, zoneSide)
	py := CoverProfile(grid.Height, zoneSide)
	denom := float64(grid.Width-zoneSide+1) * float64(grid.Height-zoneSide+1)
	return px[x] * py[y] / denom
}

// productHistogram collapses the P_{x,y} field to its distinct numerator
// products v = px[x]·py[y] with multiplicities, sorted ascending so the
// downstream float accumulation is deterministic.
type productBin struct {
	product float64 // px·py numerator (an integer value)
	count   float64 // number of cells sharing it
}

func productHistogram(grid fabric.Grid, side int) []productBin {
	hx := profileHistogram(grid.Width, side)
	hy := profileHistogram(grid.Height, side)
	acc := make(map[int]int, len(hx)*len(hy))
	for vx, cx := range hx {
		for vy, cy := range hy {
			acc[vx*vy] += cx * cy
		}
	}
	bins := make([]productBin, 0, len(acc))
	for v, c := range acc {
		bins = append(bins, productBin{product: float64(v), count: float64(c)})
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].product < bins[j].product })
	return bins
}

// profileHistogram counts how many coordinates share each distinct profile
// value. The profile takes at most min(s, n−s+1) distinct values.
func profileHistogram(n, s int) map[int]int {
	f := CoverProfile(n, s)
	h := make(map[int]int)
	for x := 1; x <= n; x++ {
		h[int(f[x])]++
	}
	return h
}

// expectedSurfaces fills esq[1..kmax] with E[S_q] (Eq. 4) via the product
// histogram. The binomial coefficient is built incrementally in log space
// (the paper's Eq. 18 recurrence); cells with P = 1 contribute only to the
// q = Q term and cells with P = 0 only to q = 0.
func expectedSurfaces(esq []float64, grid fabric.Grid, side, qubits, kmax int) {
	bins := productHistogram(grid, side)
	denom := float64(grid.Width-side+1) * float64(grid.Height-side+1)
	fQ := float64(qubits)
	logC := 0.0 // log C(Q,0)
	for k := 1; k <= kmax; k++ {
		logC += math.Log((fQ - float64(k) + 1) / float64(k))
		sum := 0.0
		for _, bin := range bins {
			p := bin.product / denom
			switch {
			case p <= 0:
				// covered by no placement: contributes only to q=0
			case p >= 1:
				// always covered: contributes only to q=Q
				if k == qubits {
					sum += bin.count
				}
			default:
				sum += bin.count * math.Exp(logC+float64(k)*math.Log(p)+(fQ-float64(k))*math.Log1p(-p))
			}
		}
		esq[k] = sum
	}
}

// ExpectedSurfacesCellScan is the pre-histogram reference: the O(kmax·a·b)
// per-cell scan over the whole fabric. Kept for equivalence tests and as
// the benchmark baseline the histogram path is measured against.
func ExpectedSurfacesCellScan(grid fabric.Grid, side, qubits, kmax int) []float64 {
	px := CoverProfile(grid.Width, side)
	py := CoverProfile(grid.Height, side)
	denom := float64(grid.Width-side+1) * float64(grid.Height-side+1)
	esq := make([]float64, kmax+1)
	fQ := float64(qubits)
	logC := 0.0
	for k := 1; k <= kmax; k++ {
		logC += math.Log((fQ - float64(k) + 1) / float64(k))
		sum := 0.0
		for x := 1; x <= grid.Width; x++ {
			for y := 1; y <= grid.Height; y++ {
				p := px[x] * py[y] / denom
				switch {
				case p <= 0:
				case p >= 1:
					if k == qubits {
						sum += 1
					}
				default:
					sum += math.Exp(logC + float64(k)*math.Log(p) + (fQ-float64(k))*math.Log1p(-p))
				}
			}
		}
		esq[k] = sum
	}
	return esq
}

// ExpectedSurfaceExact computes E[S_q] without truncation for one q — used
// by tests validating the Eq. 3 constraint Σ_{q=0..Q} E[S_q] = A.
func ExpectedSurfaceExact(grid fabric.Grid, zoneSide, qubits, q int) float64 {
	px := CoverProfile(grid.Width, zoneSide)
	py := CoverProfile(grid.Height, zoneSide)
	denom := float64(grid.Width-zoneSide+1) * float64(grid.Height-zoneSide+1)
	logC := 0.0
	for k := 1; k <= q; k++ {
		logC += math.Log((float64(qubits) - float64(k) + 1) / float64(k))
	}
	sum := 0.0
	for x := 1; x <= grid.Width; x++ {
		for y := 1; y <= grid.Height; y++ {
			p := px[x] * py[y] / denom
			switch {
			case p <= 0:
				if q == 0 {
					sum += 1
				}
			case p >= 1:
				if q == qubits {
					sum += 1
				}
			default:
				sum += math.Exp(logC + float64(q)*math.Log(p) + float64(qubits-q)*math.Log1p(-p))
			}
		}
	}
	return sum
}
