package qodg

// SweepState exposes the scratch's single-column relaxation state, so the
// suite can compare it with the oracle's, which is strictly stronger than
// comparing recovered paths.
func (s *PathScratch) SweepState() (dist []float64, from []NodeID) { return s.dist, s.from }

// MultiSweepState exposes the multi-column SoA slabs: column c of node v at
// [v*K+c].
func (s *PathScratch) MultiSweepState() (dist []float64, from []NodeID) { return s.distM, s.fromM }
