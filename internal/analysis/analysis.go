// Package analysis is the fused circuit-analysis front end of the
// estimator: one read of a circuit's gate stream produces both graphs
// LEQA consumes — the quantum operation dependency graph (QODG, paper §2)
// and the interaction intensity graph (IIG, §3.1).
//
// Both graphs derive from the same stream. One counting pass over the
// stream appends each gate's 16-byte QODG node and counts IIG degrees; the
// nodes are the whole QODG, since every dependency edge is a last-writer
// edge their operands fix. One fill pass over the nodes then fills the
// IIG's CSR rows. That is a handful of flat allocations and no per-node
// maps or slices. Every input — a materialized circuit, a .qc or .qcb
// netlist being read — runs through that one builder (AnalyzeStream);
// Analyze is the same builder over an in-memory circuit.
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
	// nodes are the gate records, a type and one or two operands each; the
	// operand slices of the source gates are never copied.
	QODG *qodg.Graph
	// IIG is the interaction graph (presence-zone substrate, Eq. 6–7).
	IIG *iig.Graph
}

// Analyze builds both graphs of a materialized circuit, through the
// builder AnalyzeStream runs. Its counting pass validates each gate as it
// reads it. An invalid gate anywhere outranks an over-wide one, so a pass
// that stops on an over-wide gate validates the rest of the circuit before
// it reports. The circuit must be decomposed to one- and two-qubit gates:
// wider gates are rejected (the IIG is undefined on them).
//
// Every call allocates independent, immutable graphs; (*Arena).Analyze runs
// the identical passes into recycled buffers for the steady-state worker
// loops.
func Analyze(c *circuit.Circuit) (*Analysis, error) {
	return analyzeCircuit(c, nil)
}

// analyzeCircuit streams c through analyzeStream. An arena's own
// CircuitStream carries the circuit, so the arena path allocates no
// stream.
func analyzeCircuit(c *circuit.Circuit, ar *Arena) (*Analysis, error) {
	var a *Analysis
	var err error
	if ar == nil {
		a, err = analyzeStream(context.Background(), NewCircuitStream(c), nil, false)
	} else {
		ar.cs = CircuitStream{c: c, i: -1}
		a, err = analyzeStream(context.Background(), &ar.cs, ar, false)
		ar.cs = CircuitStream{} // do not pin the circuit
	}
	if err != nil {
		// The pass stopped on the first invalid gate, whose error Validate
		// repeats, or on an over-wide gate, which an invalid gate after it
		// outranks.
		if verr := c.Validate(); verr != nil {
			return nil, verr
		}
		return nil, err
	}
	return a, nil
}
