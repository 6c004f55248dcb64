// Package circuit models reversible and fault-tolerant quantum gate
// netlists: the gate vocabulary, the circuit container, validation, and a
// plain-text netlist format (.qc) compatible with the conventions of the
// Maslov reversible benchmark suite used by the LEQA paper.
//
// A circuit is an ordered list of gates over a fixed set of logical qubits,
// identified by dense integer indices. Qubit names are kept for I/O but all
// algorithms work on indices.
package circuit

import (
	"fmt"
	"strings"
)

// GateType enumerates the gate vocabulary. It covers the reversible logic
// gates produced by synthesis (NOT/CNOT/Toffoli/Fredkin and their
// multi-control generalizations) and the fault-tolerant (FT) set targeted by
// quantum FT synthesis for the Steane code: {CNOT, H, T, T†, S, S†, X, Y, Z}.
type GateType int

const (
	// Invalid is the zero value; it never appears in a valid circuit.
	Invalid GateType = iota

	// One-qubit FT gates.
	X   // Pauli X (logical NOT)
	Y   // Pauli Y
	Z   // Pauli Z
	H   // Hadamard
	S   // phase gate (π/2 rotation)
	Sdg // S† (-π/2 rotation)
	T   // π/4 rotation; non-transversal in Steane code
	Tdg // T† (-π/4 rotation); non-transversal in Steane code

	// Two-qubit FT gate.
	CNOT // controlled NOT

	// Reversible-logic gates that must be decomposed before mapping.
	Toffoli // 2-control NOT (CCX)
	Fredkin // 1-control SWAP (CSWAP)
	MCT     // multi-control Toffoli with ≥3 controls
	MCF     // multi-control Fredkin with ≥2 controls
	Swap    // unconditional SWAP (decomposes to 3 CNOTs)
)

// String returns the canonical mnemonic used by the .qc text format.
func (t GateType) String() string {
	switch t {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	case H:
		return "H"
	case S:
		return "S"
	case Sdg:
		return "S*"
	case T:
		return "T"
	case Tdg:
		return "T*"
	case CNOT:
		return "CNOT"
	case Toffoli:
		return "TOF"
	case Fredkin:
		return "FRE"
	case MCT:
		return "MCT"
	case MCF:
		return "MCF"
	case Swap:
		return "SWAP"
	default:
		return fmt.Sprintf("GateType(%d)", int(t))
	}
}

// IsOneQubit reports whether the gate type acts on exactly one qubit.
func (t GateType) IsOneQubit() bool {
	switch t {
	case X, Y, Z, H, S, Sdg, T, Tdg:
		return true
	}
	return false
}

// IsFT reports whether the gate type belongs to the fault-tolerant set
// directly implementable on a ULB ({CNOT} ∪ one-qubit FT gates).
func (t GateType) IsFT() bool {
	return t == CNOT || t.IsOneQubit()
}

// Adjoint returns the inverse gate type. All gates in the vocabulary are
// self-inverse except S/S† and T/T†.
func (t GateType) Adjoint() GateType {
	switch t {
	case S:
		return Sdg
	case Sdg:
		return S
	case T:
		return Tdg
	case Tdg:
		return T
	default:
		return t
	}
}

// Gate is one operation in a netlist. Controls and Targets hold qubit
// indices. The shape constraints per type, GateType.Shape's table, are
// enforced by Validate:
//
//	one-qubit FT gates: 0 controls, 1 target
//	CNOT:               1 control, 1 target
//	Toffoli:            2 controls, 1 target
//	Fredkin:            1 control, 2 targets (the swapped pair)
//	MCT:                ≥3 controls, 1 target
//	MCF:                ≥2 controls, 2 targets
//	Swap:               0 controls, 2 targets
type Gate struct {
	Type     GateType
	Controls []int
	Targets  []int
}

// NewOneQubit constructs a one-qubit FT gate on qubit q.
func NewOneQubit(t GateType, q int) Gate {
	return Gate{Type: t, Targets: []int{q}}
}

// NewCNOT constructs a CNOT with the given control and target.
func NewCNOT(control, target int) Gate {
	return Gate{Type: CNOT, Controls: []int{control}, Targets: []int{target}}
}

// NewToffoli constructs a 2-control Toffoli gate.
func NewToffoli(c1, c2, target int) Gate {
	return Gate{Type: Toffoli, Controls: []int{c1, c2}, Targets: []int{target}}
}

// NewFredkin constructs a controlled swap of a and b.
func NewFredkin(control, a, b int) Gate {
	return Gate{Type: Fredkin, Controls: []int{control}, Targets: []int{a, b}}
}

// NewMCT constructs a multi-control Toffoli. With 0, 1 or 2 controls the
// returned gate degenerates to X, CNOT or Toffoli respectively.
func NewMCT(controls []int, target int) Gate {
	switch len(controls) {
	case 0:
		return NewOneQubit(X, target)
	case 1:
		return NewCNOT(controls[0], target)
	case 2:
		return NewToffoli(controls[0], controls[1], target)
	}
	cs := make([]int, len(controls))
	copy(cs, controls)
	return Gate{Type: MCT, Controls: cs, Targets: []int{target}}
}

// NewSwap constructs an unconditional swap of a and b.
func NewSwap(a, b int) Gate {
	return Gate{Type: Swap, Targets: []int{a, b}}
}

// Clone returns a deep copy of the gate: the operand slices are freshly
// allocated, so the copy stays valid after the source's backing arrays are
// reused (LineParser and the ingest scanner emit borrowed gates).
func (g Gate) Clone() Gate {
	return Gate{
		Type:     g.Type,
		Controls: append([]int(nil), g.Controls...),
		Targets:  append([]int(nil), g.Targets...),
	}
}

// Qubits returns every qubit index the gate touches, controls first.
// The result is freshly allocated.
func (g Gate) Qubits() []int {
	out := make([]int, 0, len(g.Controls)+len(g.Targets))
	out = append(out, g.Controls...)
	out = append(out, g.Targets...)
	return out
}

// Arity returns the number of distinct qubits the gate touches, assuming the
// gate is well-formed (no duplicate operands).
func (g Gate) Arity() int { return len(g.Controls) + len(g.Targets) }

// IsTwoQubit reports whether the gate touches exactly two qubits.
func (g Gate) IsTwoQubit() bool { return g.Arity() == 2 }

// QubitPair returns the two operands of an arity-2 gate (control first for
// CNOT-shaped gates) without allocating — the hot-path accessor streaming
// graph builders use. It panics if the gate does not touch exactly two
// qubits.
func (g Gate) QubitPair() (a, b int) {
	switch {
	case len(g.Controls) == 1 && len(g.Targets) == 1:
		return g.Controls[0], g.Targets[0]
	case len(g.Controls) == 0 && len(g.Targets) == 2:
		return g.Targets[0], g.Targets[1]
	case len(g.Controls) == 2 && len(g.Targets) == 0:
		return g.Controls[0], g.Controls[1]
	}
	panic(fmt.Sprintf("circuit: QubitPair on %s with arity %d", g.Type, g.Arity()))
}

// operand returns the i-th operand qubit, controls first — the
// allocation-free counterpart of Qubits()[i].
func (g Gate) operand(i int) int {
	if i < len(g.Controls) {
		return g.Controls[i]
	}
	return g.Targets[i-len(g.Controls)]
}

// Shape is a gate type's operand shape: exactly Controls controls and
// Targets targets or, for the multi-control types, at least MinControls
// controls.
type Shape struct {
	Controls, Targets int
	// MinControls > 0 marks a variable control count of at least
	// MinControls; Controls is then unused.
	MinControls int
}

// shapes is the one per-type operand table, indexed by GateType: Validate
// checks gates against it and the .qcb codec (internal/qcbin) encodes and
// decodes gate records by it.
var shapes = [...]Shape{
	X:       {Targets: 1},
	Y:       {Targets: 1},
	Z:       {Targets: 1},
	H:       {Targets: 1},
	S:       {Targets: 1},
	Sdg:     {Targets: 1},
	T:       {Targets: 1},
	Tdg:     {Targets: 1},
	CNOT:    {Controls: 1, Targets: 1},
	Toffoli: {Controls: 2, Targets: 1},
	Fredkin: {Controls: 1, Targets: 2},
	MCT:     {MinControls: 3, Targets: 1},
	MCF:     {MinControls: 2, Targets: 2},
	Swap:    {Targets: 2},
}

// Shape returns t's operand shape; ok is false for a type outside the
// vocabulary, Invalid included.
func (t GateType) Shape() (s Shape, ok bool) {
	if t <= Invalid || int(t) >= len(shapes) {
		return Shape{}, false
	}
	return shapes[t], true
}

// Validate checks the operand-shape constraints for the gate type and that
// all operands are distinct and within [0, n).
func (g Gate) Validate(n int) error {
	s, ok := g.Type.Shape()
	if !ok {
		return fmt.Errorf("gate %s: unknown type", g.Type)
	}
	if s.MinControls > 0 {
		if len(g.Controls) < s.MinControls {
			return fmt.Errorf("gate %s: want ≥%d controls, have %d", g.Type, s.MinControls, len(g.Controls))
		}
	} else if len(g.Controls) != s.Controls {
		return fmt.Errorf("gate %s: want %d controls, have %d", g.Type, s.Controls, len(g.Controls))
	}
	if len(g.Targets) != s.Targets {
		return fmt.Errorf("gate %s: want %d targets, have %d", g.Type, s.Targets, len(g.Targets))
	}
	// Operand checks run index-based and quadratic in arity — arities are
	// tiny, and avoiding the Qubits() copy plus a set keeps full-circuit
	// validation allocation-free on the ~1M-op hot path.
	ar := g.Arity()
	for i := 0; i < ar; i++ {
		q := g.operand(i)
		if q < 0 || q >= n {
			return fmt.Errorf("gate %s: qubit %d out of range [0,%d)", g.Type, q, n)
		}
		for j := 0; j < i; j++ {
			if g.operand(j) == q {
				return fmt.Errorf("gate %s: duplicate operand qubit %d", g.Type, q)
			}
		}
	}
	return nil
}

// String renders the gate in .qc statement form, using q<i> placeholder
// names.
func (g Gate) String() string {
	var sb strings.Builder
	sb.WriteString(g.Type.String())
	for _, q := range g.Qubits() {
		fmt.Fprintf(&sb, " q%d", q)
	}
	return sb.String()
}
