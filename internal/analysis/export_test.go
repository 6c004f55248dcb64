package analysis

import (
	"repro/internal/circuit"
	"repro/internal/qodg"
)

// AnalyzeSharded is Analyze (into ar when non-nil) with the fill pass
// forced to k shards whatever the threshold and core count; k = 1 forces
// the serial fill, the reference every sharded result is compared against.
func AnalyzeSharded(c *circuit.Circuit, ar *Arena, k int) (*Analysis, error) {
	return analyzeCircuit(c, ar, k)
}

// AnalyzeAtCuts is Analyze with the fill pass sharded at explicit cuts
// instead of evenly — the equivalence suite's hook for adversarial cut
// placement (empty shards, cuts inside same-qubit gate runs, suffix-only
// shards).
func AnalyzeAtCuts(c *circuit.Circuit, ar *Arena, cuts []int) (*Analysis, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return analyzeStream(&cutStream{CircuitStream: &CircuitStream{c: c, i: -1, valid: true}, cuts: cuts}, ar, len(cuts)-1)
}

type cutStream struct {
	*CircuitStream
	cuts []int
}

func (s *cutStream) Segments(int) ([]GateStream, []int, error) {
	segs := make([]GateStream, len(s.cuts)-1)
	for i := range segs {
		segs[i] = &circuitSegment{c: s.c, lo: s.cuts[i], hi: s.cuts[i+1], i: s.cuts[i] - 1, valid: true}
	}
	return segs, s.cuts, nil
}

// AnalyzeStreamSharded exposes the streamed analysis with a forced
// fill-pass shard count, bypassing the threshold dispatch.
func AnalyzeStreamSharded(src GateStream, ar *Arena, k int) (*Analysis, error) {
	return analyzeStream(src, ar, k)
}

// LastWriterState exposes the analysis's final per-qubit last-writer state
// so the suite can assert the sharded stitch reconstructs it exactly (it is
// the seed Appender resumes from).
func (a *Analysis) LastWriterState() []qodg.NodeID { return a.lastWriter }
