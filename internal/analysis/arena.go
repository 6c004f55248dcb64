package analysis

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// ShardThreshold is kept only because cmd/leqabench compiles against it:
// the analysis fill pass is serial, so no circuit reaches this gate count.
const ShardThreshold = math.MaxInt

// Arena is the reusable scratch state of the estimate hot path: every
// buffer the analysis passes and the critical-path sweep would otherwise
// allocate per call — the QODG's node slab, the IIG's degree array and
// incidence, and the longest-path dist/from and last-writer slabs — owned
// once and recycled across circuits. A zero Arena is ready to use; buffers
// grow to the largest circuit seen and stay warm, so a steady-state worker
// analyzes and estimates with near-zero heap allocation.
//
// An Arena is not safe for concurrent use. The Analysis returned by
// (*Arena).Analyze or (*Arena).AnalyzeStream aliases arena memory and is
// valid only until the next analysis on the same arena; estimator Results
// derived from it do not alias the arena and stay valid forever.
type Arena struct {
	// MaxShards is ignored: the analysis fill pass is serial. It is kept
	// only because cmd/leqabench compiles against it.
	MaxShards int

	nodes          []qodg.Node
	peak           int // node count of the largest circuit analyzed
	iigDeg         []int32
	iigOff, iigNbr []int32
	cs             CircuitStream // Analyze's stream, so it costs no allocation

	qg  qodg.Graph
	igs iig.Scratch
	a   Analysis

	path qodg.PathScratch
}

// NewArena returns an empty arena. Equivalent to new(Arena); provided so
// callers outside the package don't depend on the zero value being usable.
func NewArena() *Arena { return new(Arena) }

// Analyze is analysis.Analyze into the arena: identical validation, graph
// topology and error behavior, but every backing array comes from the
// arena. The returned Analysis (and both its graphs) aliases arena memory —
// treat it as borrowed until the next analysis on this arena.
func (ar *Arena) Analyze(c *circuit.Circuit) (*Analysis, error) {
	return analyzeCircuit(c, ar)
}

// Gates reports the gate count of the largest circuit the arena has
// analyzed or swept, which its slabs are sized to: its node slab and its
// longest-path scratch never shrink, and each holds the circuit's gates
// plus the start and end nodes. A streamed slab's capacity runs ahead of
// its nodes by up to a doubling, so the count is the nodes analyzed, not
// the capacity.
func (ar *Arena) Gates() int { return max(ar.peak, ar.path.Nodes(), 2) - 2 }

// Path returns the arena's longest-path scratch for the qodg sweeps.
func (ar *Arena) Path() *qodg.PathScratch { return &ar.path }
