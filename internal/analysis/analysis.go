// Package analysis is the fused circuit-analysis front end of the
// estimator: one read of a circuit's gate stream produces both graphs
// LEQA consumes — the quantum operation dependency graph (QODG, paper §2)
// and the interaction intensity graph (IIG, §3.1).
//
// Both graphs derive from the same stream, so one combined counting pass
// over the stream, which records each gate in 12 bytes, and one combined
// fill pass over those records assemble both CSR structures with a handful
// of flat allocations and no per-node maps or slices. Every input — a
// materialized circuit, a .qc or .qcb netlist being read, a stored image's
// replay — runs through that one builder (AnalyzeStream); Analyze is the
// same builder over an in-memory circuit.
package analysis

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// Analysis bundles the circuit-dependent, fabric-independent artifacts of
// one circuit. Immutable after Analyze; share freely across goroutines and
// across every (fabric, options) configuration the circuit is estimated
// under — the cross-product sweep engine computes one Analysis per circuit
// and reuses it for every parameter set.
type Analysis struct {
	// Name labels the analyzed circuit.
	Name string
	// Qubits is the register size.
	Qubits int
	// Operations is the gate count.
	Operations int
	// FT reports whether every gate belongs to the fault-tolerant set —
	// circuit.IsFT without the gate list.
	FT bool
	// QODG is the dependency graph (critical-path substrate, Eq. 1). Its
	// operation nodes carry the gate type only: the estimator reads nothing
	// else, so the operand slices of the source gates are never copied.
	QODG *qodg.Graph
	// IIG is the interaction graph (presence-zone substrate, Eq. 6–7).
	IIG *iig.Graph
}

// Analyze builds both graphs of a materialized circuit. The circuit is
// validated up front — every gate, so an invalid gate anywhere outranks an
// over-wide one — and then streamed through the builder AnalyzeStream runs,
// which skips its per-gate re-validation for the checked circuit. The
// circuit must be decomposed to one- and two-qubit gates: wider gates are
// rejected (the IIG is undefined on them).
//
// Every call allocates independent, immutable graphs; (*Arena).Analyze runs
// the identical passes into recycled buffers for the steady-state worker
// loops.
func Analyze(c *circuit.Circuit) (*Analysis, error) {
	return analyzeCircuit(c, nil)
}

// analyzeCircuit validates c and streams it through analyzeStream. An
// arena's own CircuitStream carries the circuit, so the arena path
// allocates no stream.
func analyzeCircuit(c *circuit.Circuit, ar *Arena) (*Analysis, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if ar == nil {
		return analyzeStream(context.Background(), &CircuitStream{c: c, i: -1, valid: true}, nil, false)
	}
	ar.cs = CircuitStream{c: c, i: -1, valid: true}
	a, err := analyzeStream(context.Background(), &ar.cs, ar, false)
	ar.cs = CircuitStream{} // do not pin the circuit
	return a, err
}
