package qodg

// SweepState exposes the scratch's relaxation state after a K-column sweep
// so the suite can compare it with the oracle's, which is strictly stronger
// than comparing recovered paths: column c of node v's predecessor at
// [v*K+c], widened to NodeIDs; column c of qubit q's final distance, the
// distance of q's last writer, at [q*K+c]; and the end node's distance in
// each column.
func (s *PathScratch) SweepState() (from []NodeID, qubitDist, end []float64) {
	ids := make([]NodeID, len(s.from))
	for i, p := range s.from {
		ids[i] = NodeID(p)
	}
	return ids, s.qdist, s.end
}
