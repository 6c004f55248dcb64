package qodg

// SweepState exposes the scratch's relaxation state after a K-column sweep
// — column c of node v at [v*K+c] — so the suite can compare it with the
// oracle's, which is strictly stronger than comparing recovered paths. The
// 32-bit predecessor slab is widened to NodeIDs.
func (s *PathScratch) SweepState() (dist []float64, from []NodeID) {
	ids := make([]NodeID, len(s.from))
	for i, p := range s.from {
		ids[i] = NodeID(p)
	}
	return s.dist, ids
}
