// Package tsp provides the traveling-salesman path-length machinery behind
// LEQA's d_uncong estimate (§3.2): the asymptotic lower/upper bounds for the
// expected optimal tour through n uniform random points in the unit square
// (Eq. 13–14), their average (Eq. 15's 0.713√n + 0.641 form), and — for
// validating those closed forms — an exact Held–Karp solver plus Monte Carlo
// evaluation on random instances.
package tsp

import (
	"fmt"
	"math"
	"math/rand"
)

// Beardwood–Halton–Hammersley-style constants used by the paper (its
// reference [19]): expected optimal TSP tour length through n ≫ 1 uniform
// points in the unit square.
const (
	// LowerA·√n + LowerB is the paper's Eq. 13 lower bound.
	LowerA = 0.708
	LowerB = 0.551
	// UpperA·√n + UpperB is the paper's Eq. 14 upper bound.
	UpperA = 0.718
	UpperB = 0.731
	// MeanA/MeanB average the bounds; Eq. 15 uses 0.713√n + 0.641.
	MeanA = (LowerA + UpperA) / 2
	MeanB = (LowerB + UpperB) / 2
)

// TourLowerBound returns the Eq. 13 estimate for n points in the unit square.
func TourLowerBound(n int) float64 { return LowerA*math.Sqrt(float64(n)) + LowerB }

// TourUpperBound returns the Eq. 14 estimate for n points in the unit square.
func TourUpperBound(n int) float64 { return UpperA*math.Sqrt(float64(n)) + UpperB }

// TourEstimate returns the bound average the paper plugs into Eq. 15.
func TourEstimate(n int) float64 { return MeanA*math.Sqrt(float64(n)) + MeanB }

// ExpectedHamiltonianPath implements Eq. 15: the estimated expected shortest
// Hamiltonian path through m+1 points (the qubit plus its M_i = m
// interaction partners) uniformly placed in a square zone of area zoneArea.
// The unit-square tour estimate is scaled by the zone's side length √B_i and
// by (m−1)/m to drop one tour edge, as in the paper.
//
// Degenerate cases the paper leaves implicit:
//   - m ≤ 0: no partner to visit, path length 0.
//   - m == 1: Eq. 15's (m−1)/m factor collapses to 0, but physically the
//     qubit still travels to one partner. We use the exact expected distance
//     between two uniform points in a square of the given area instead
//     (≈ 0.5214 · side).
func ExpectedHamiltonianPath(m int, zoneArea float64) float64 {
	if m <= 0 || zoneArea <= 0 {
		return 0
	}
	side := math.Sqrt(zoneArea)
	if m == 1 {
		return meanPointDistance * side
	}
	return side * TourEstimate(m+1) * float64(m-1) / float64(m)
}

// meanPointDistance is the expected Euclidean distance between two
// independent uniform points in the unit square:
// (2+√2+5·asinh(1))/15 ≈ 0.521405.
var meanPointDistance = (2 + math.Sqrt2 + 5*math.Asinh(1)) / 15

// Point is a 2-D location.
type Point struct{ X, Y float64 }

func dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// MaxExactPoints bounds the Held–Karp solver (2^n · n² state space).
const MaxExactPoints = 16

// ShortestHamiltonianPath computes the exact shortest Hamiltonian path
// through the given points (visiting each exactly once, any start/end) via
// Held–Karp dynamic programming. len(pts) must be ≤ MaxExactPoints.
func ShortestHamiltonianPath(pts []Point) (float64, error) {
	n := len(pts)
	if n > MaxExactPoints {
		return 0, fmt.Errorf("tsp: %d points exceeds exact limit %d", n, MaxExactPoints)
	}
	if n <= 1 {
		return 0, nil
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = dist(pts[i], pts[j])
		}
	}
	const inf = math.MaxFloat64
	size := 1 << uint(n)
	// dp[mask][i] = shortest path covering the set mask, ending at i.
	dp := make([][]float64, size)
	for m := range dp {
		dp[m] = make([]float64, n)
		for i := range dp[m] {
			dp[m][i] = inf
		}
	}
	for i := 0; i < n; i++ {
		dp[1<<uint(i)][i] = 0
	}
	for mask := 1; mask < size; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 || dp[mask][i] == inf {
				continue
			}
			base := dp[mask][i]
			for j := 0; j < n; j++ {
				if mask&(1<<uint(j)) != 0 {
					continue
				}
				nm := mask | 1<<uint(j)
				if cand := base + d[i][j]; cand < dp[nm][j] {
					dp[nm][j] = cand
				}
			}
		}
	}
	best := inf
	full := size - 1
	for i := 0; i < n; i++ {
		if dp[full][i] < best {
			best = dp[full][i]
		}
	}
	return best, nil
}

// ShortestTour computes the exact shortest closed tour via Held–Karp,
// anchored at point 0. len(pts) must be ≤ MaxExactPoints.
func ShortestTour(pts []Point) (float64, error) {
	n := len(pts)
	if n > MaxExactPoints {
		return 0, fmt.Errorf("tsp: %d points exceeds exact limit %d", n, MaxExactPoints)
	}
	if n <= 2 {
		if n == 2 {
			return 2 * dist(pts[0], pts[1]), nil
		}
		return 0, nil
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = dist(pts[i], pts[j])
		}
	}
	const inf = math.MaxFloat64
	size := 1 << uint(n)
	dp := make([][]float64, size)
	for m := range dp {
		dp[m] = make([]float64, n)
		for i := range dp[m] {
			dp[m][i] = inf
		}
	}
	dp[1][0] = 0
	for mask := 1; mask < size; mask++ {
		if mask&1 == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 || dp[mask][i] == inf {
				continue
			}
			base := dp[mask][i]
			for j := 1; j < n; j++ {
				if mask&(1<<uint(j)) != 0 {
					continue
				}
				nm := mask | 1<<uint(j)
				if cand := base + d[i][j]; cand < dp[nm][j] {
					dp[nm][j] = cand
				}
			}
		}
	}
	best := inf
	full := size - 1
	for i := 1; i < n; i++ {
		if dp[full][i] != inf {
			if cand := dp[full][i] + d[i][0]; cand < best {
				best = cand
			}
		}
	}
	return best, nil
}

// MonteCarloPathLength estimates the expected shortest Hamiltonian path
// through n uniform random points in the unit square by exact solution of
// `trials` random instances. n must be ≤ MaxExactPoints.
func MonteCarloPathLength(n, trials int, rng *rand.Rand) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("tsp: trials must be positive")
	}
	sum := 0.0
	pts := make([]Point, n)
	for t := 0; t < trials; t++ {
		for i := range pts {
			pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
		}
		l, err := ShortestHamiltonianPath(pts)
		if err != nil {
			return 0, err
		}
		sum += l
	}
	return sum / float64(trials), nil
}
