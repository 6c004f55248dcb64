package qodg

// SweepState exposes the scratch's single-column relaxation state, so the
// suite can compare it with the oracle's, which is strictly stronger than
// comparing recovered paths. The 32-bit predecessor vector is widened to
// NodeIDs.
func (s *PathScratch) SweepState() (dist []float64, from []NodeID) { return s.dist, widen(s.from) }

// MultiSweepState exposes the multi-column SoA slabs — column c of node v
// at [v*K+c] — with the 32-bit predecessor slab widened to NodeIDs.
func (s *PathScratch) MultiSweepState() (dist []float64, from []NodeID) {
	return s.distM, widen(s.fromM)
}

func widen(from []int32) []NodeID {
	ids := make([]NodeID, len(from))
	for i, p := range from {
		ids[i] = NodeID(p)
	}
	return ids
}

// LongestPathMultiParallel forces the level-partitioned multi-column
// relaxation with the given worker count regardless of ParallelThreshold and
// GOMAXPROCS, so the equivalence tests drive the parallel machinery even on
// graphs and machines the auto dispatch would run serially.
func (g *Graph) LongestPathMultiParallel(ws []Weights, s *PathScratch, workers int) ([]CriticalPath, error) {
	if err := g.validateColumns(ws); err != nil || len(ws) == 0 {
		return nil, err
	}
	if s == nil {
		s = new(PathScratch)
	}
	return g.sweepMulti(weightRows{tab: g.packColumns(ws, s)}, len(ws), s, max(workers, 1)), nil
}

// LongestPathMultiByTypeParallel is LongestPathMultiParallel over a type
// table, as LongestPathMultiByType is LongestPathMulti over one.
func (g *Graph) LongestPathMultiByTypeParallel(tab []float64, k int, s *PathScratch, workers int) ([]CriticalPath, error) {
	if err := g.validateTable(tab, k); err != nil || k == 0 {
		return nil, err
	}
	if s == nil {
		s = new(PathScratch)
	}
	return g.sweepMultiByType(tab, k, s, max(workers, 1)), nil
}
