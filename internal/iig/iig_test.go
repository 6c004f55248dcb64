package iig

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/csr"
)

// graphOf builds the graph of q qubits with the given interaction pairs,
// each of two distinct qubits, through FromIncidence: each pair becomes one
// entry in either endpoint's incidence row.
func graphOf(q int, pairs ...[2]int) *Graph {
	deg := make([]int32, q+1)
	for _, p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	off, nbr := csr.Offsets[int32](deg)
	for _, p := range pairs {
		a, b := p[0], p[1]
		nbr[deg[a]] = int32(b)
		deg[a]++
		nbr[deg[b]] = int32(a)
		deg[b]++
	}
	return FromIncidence(q, off, nbr)
}

func TestAdjWeightSum(t *testing.T) {
	g := graphOf(4, [2]int{0, 1}, [2]int{0, 1}, [2]int{0, 2})
	if got := g.AdjWeightSum(0); got != 3 {
		t.Errorf("AdjWeightSum(0) = %d, want 3", got)
	}
	if got := g.AdjWeightSum(3); got != 0 {
		t.Errorf("AdjWeightSum(3) = %d, want 0", got)
	}
}

func TestZoneAreaEq6(t *testing.T) {
	g := graphOf(3, [2]int{0, 1}, [2]int{0, 2})
	// M_0 = 2 → B_0 = 3 (Eq. 6: √(M+1)·√(M+1)).
	if got := g.ZoneArea(0); got != 3 {
		t.Errorf("ZoneArea(0) = %v, want 3", got)
	}
	if got := g.ZoneArea(1); got != 2 {
		t.Errorf("ZoneArea(1) = %v, want 2", got)
	}
}

func TestAverageZoneAreaEq7(t *testing.T) {
	// Qubit 0: M=2, ΣW=3 (w01=2, w02=1); qubit 1: M=1, ΣW=2; qubit 2:
	// M=1, ΣW=1. B = (3·3 + 2·2 + 1·2) / (3+2+1) = 15/6 = 2.5.
	g := graphOf(3, [2]int{0, 1}, [2]int{0, 1}, [2]int{0, 2})
	if got := g.AverageZoneArea(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("B = %v, want 2.5", got)
	}
}

func TestAverageZoneAreaNoInteractions(t *testing.T) {
	g := graphOf(5)
	if got := g.AverageZoneArea(); got != 1 {
		t.Errorf("B with no edges = %v, want 1", got)
	}
}

func TestWeightedAverage(t *testing.T) {
	g := graphOf(3, [2]int{0, 1}, [2]int{1, 2})
	// ΣW: q0=1, q1=2, q2=1. WeightedAverage(f=qubit index) =
	// (0·1 + 1·2 + 2·1)/4 = 1.
	got := g.WeightedAverage(func(i int) float64 { return float64(i) })
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("WeightedAverage = %v, want 1", got)
	}
	empty := graphOf(2)
	if empty.WeightedAverage(func(int) float64 { return 5 }) != 0 {
		t.Error("empty graph weighted average should be 0")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := graphOf(5, [2]int{2, 4}, [2]int{2, 0}, [2]int{2, 3})
	n := g.Neighbors(2)
	if len(n) != 3 || n[0] != 0 || n[1] != 3 || n[2] != 4 {
		t.Errorf("Neighbors = %v", n)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := graphOf(4, [2]int{3, 1}, [2]int{0, 2}, [2]int{1, 3})
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges len = %d", len(edges))
	}
	if edges[0].A != 0 || edges[0].B != 2 || edges[0].Weight != 1 {
		t.Errorf("edge 0 = %+v", edges[0])
	}
	if edges[1].A != 1 || edges[1].B != 3 || edges[1].Weight != 2 {
		t.Errorf("edge 1 = %+v", edges[1])
	}
}

func TestInteractingQubits(t *testing.T) {
	g := graphOf(5, [2]int{1, 3})
	got := g.InteractingQubits()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("InteractingQubits = %v", got)
	}
}

func TestBFSOrderCoversAll(t *testing.T) {
	g := graphOf(6, [2]int{0, 1}, [2]int{1, 2})
	// Qubits 3,4,5 isolated.
	order := g.BFSOrder()
	if len(order) != 6 {
		t.Fatalf("BFSOrder len = %d", len(order))
	}
	seen := map[int]bool{}
	for _, q := range order {
		if seen[q] {
			t.Fatalf("duplicate %d in order", q)
		}
		seen[q] = true
	}
}

func TestBFSOrderStartsAtHeaviest(t *testing.T) {
	g := graphOf(4, [2]int{2, 0}, [2]int{2, 1}, [2]int{2, 3})
	order := g.BFSOrder()
	if order[0] != 2 {
		t.Errorf("BFS starts at %d, want 2 (heaviest)", order[0])
	}
}

func TestBFSOrderHeavyNeighborFirst(t *testing.T) {
	g := graphOf(3,
		[2]int{0, 1}, // w=1
		[2]int{0, 2},
		[2]int{0, 2}, // w=2
	)
	order := g.BFSOrder()
	if order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Errorf("order = %v, want [0 2 1]", order)
	}
}

func TestIIGInvariantsRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		pairs := make([][2]int, rng.Intn(30))
		for i := range pairs {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++ // distinct from a, as a gate's operands are
			}
			pairs[i] = [2]int{a, b}
		}
		g := graphOf(n, pairs...)
		// Invariant: Σ_i ΣW_i = 2·TotalWeight (each op counted at both
		// endpoints).
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.AdjWeightSum(i)
		}
		if sum != 2*g.TotalWeight() {
			return false
		}
		// Invariant: degree symmetric, weights symmetric.
		for a := 0; a < n; a++ {
			for _, b := range g.Neighbors(a) {
				if g.Weight(a, b) != g.Weight(b, a) {
					return false
				}
			}
		}
		// Invariant: B is within [min B_i, max B_i] over interacting
		// qubits (it is a weighted average) when any edge exists.
		if g.TotalWeight() > 0 {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range g.InteractingQubits() {
				lo = math.Min(lo, g.ZoneArea(i))
				hi = math.Max(hi, g.ZoneArea(i))
			}
			bb := g.AverageZoneArea()
			if bb < lo-1e-9 || bb > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
