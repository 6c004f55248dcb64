package analysis

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/qodg"
)

// AnalyzeSharded is Analyze (into ar when non-nil) with the fill pass
// forced to k shards whatever the threshold and core count; k = 1 forces
// the serial fill, the reference every sharded result is compared against.
func AnalyzeSharded(c *circuit.Circuit, ar *Arena, k int) (*Analysis, error) {
	return analyzeCircuit(c, ar, k)
}

// AnalyzeAtCuts is AnalyzeStream (into ar when non-nil) with the fill pass
// sharded at explicit cuts over the record slab instead of evenly — the
// equivalence suite's hook for adversarial cut placement (empty shards,
// cuts inside same-qubit gate runs, suffix-only shards). cuts must run
// from 0 to the stream's gate count.
func AnalyzeAtCuts(src GateStream, ar *Arena, cuts []int) (*Analysis, error) {
	return analyzeStream(context.Background(), src, ar, false, 0, cuts)
}

// AnalyzeStreamSharded exposes the streamed analysis with a forced
// fill-pass shard count, bypassing the threshold dispatch.
func AnalyzeStreamSharded(src GateStream, ar *Arena, k int) (*Analysis, error) {
	return analyzeStream(context.Background(), src, ar, false, k, nil)
}

// LastWriterState exposes the analysis's final per-qubit last-writer state
// so the suite can assert the sharded stitch reconstructs it exactly (it is
// the seed Appender resumes from).
func (a *Analysis) LastWriterState() []qodg.NodeID { return a.lastWriter }
