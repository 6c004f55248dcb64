package analysis

import (
	"repro/internal/circuit"
	"repro/internal/csr"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// Arena is the reusable scratch state of the estimate hot path: every
// buffer the analysis passes and the critical-path sweep would otherwise
// allocate per call — gate records, node array, degree arrays, CSR
// adjacency, DepScanner state, IIG incidence, the single-column weight
// vector and the longest-path dist/from/level index — owned once and
// recycled across circuits. A zero Arena is ready to use; buffers grow to
// the largest circuit seen and stay warm, so a steady-state worker
// analyzes and estimates with near-zero heap allocation.
//
// An Arena is not safe for concurrent use. The Analysis returned by
// (*Arena).Analyze or (*Arena).AnalyzeStream aliases arena memory and is
// valid only until the next analysis on the same arena; estimator Results
// derived from it do not alias the arena and stay valid forever.
type Arena struct {
	// MaxShards caps the shard count of the parallel fill pass for calls
	// through this arena; 0 means GOMAXPROCS, 1 forces the serial pass.
	// leqa.Runner sets it (together with Path().MaxWorkers) to the arena's
	// share of the cores, so pool concurrency and shard gangs divide the
	// machine instead of multiplying against it. Purely a performance knob —
	// results are bitwise identical at every setting.
	MaxShards int

	scan             qodg.DepScanner
	nodes            []qodg.Node
	succDeg, predDeg []int32
	iigDeg           []int32
	succOff, predOff []int32
	succ, pred       []qodg.NodeID
	iigOff, iigNbr   []int32
	recs             []gateRec     // the counting pass's gate records
	cs               CircuitStream // Analyze's stream, so it costs no allocation

	qg         qodg.Graph
	igs        iig.Scratch
	a          Analysis
	lastWriter []qodg.NodeID

	// Per-shard scratch of the parallel fill pass: the cut table, one
	// sub-arena per shard (scanner, boundary records) and the merged
	// last-writer seed, recycled so the sharded pass stays near the serial
	// pass's allocation count.
	cuts   []int
	shards []shardScratch
	seed   []qodg.NodeID

	weights qodg.Weights
	path    qodg.PathScratch
}

// NewArena returns an empty arena. Equivalent to new(Arena); provided so
// callers outside the package don't depend on the zero value being usable.
func NewArena() *Arena { return new(Arena) }

// Analyze is analysis.Analyze into the arena: identical validation, graph
// topology and error behavior, but every backing array comes from the
// arena. The returned Analysis (and both its graphs) aliases arena memory —
// treat it as borrowed until the next analysis on this arena.
func (ar *Arena) Analyze(c *circuit.Circuit) (*Analysis, error) {
	return analyzeCircuit(c, ar, 0)
}

// Gates reports the gate count of the largest circuit the arena has
// analyzed or swept, which its slabs are sized to: its node slab and its
// longest-path scratch never shrink, and each holds the circuit's gates
// plus the start and end nodes.
func (ar *Arena) Gates() int { return max(cap(ar.nodes), ar.path.Nodes(), 2) - 2 }

// Path returns the arena's longest-path scratch for the qodg sweeps.
func (ar *Arena) Path() *qodg.PathScratch { return &ar.path }

// WeightVector returns a reusable weight vector for a single-column sweep
// over g, one entry per node. Contents unspecified: the estimator overwrites
// every entry. The vector grows to the largest graph seen and is recycled
// across calls.
func (ar *Arena) WeightVector(g *qodg.Graph) qodg.Weights {
	ar.weights = csr.Grow(ar.weights, g.NumNodes())
	return ar.weights
}
