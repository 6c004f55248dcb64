package benchgen

import (
	"fmt"

	"repro/internal/circuit"
)

// HWB generates the hidden-weighted-bit benchmark hwb<n>ps: the function
// that cyclically rotates its n-bit input by the input's Hamming weight.
// The netlist follows the standard three-stage reversible realization:
//
//  1. popcount — a ripple counter accumulates the weight of the n bus wires
//     into w = ⌈log₂(n+1)⌉ counter qubits. Each bus wire drives a
//     controlled increment built as a Toffoli carry chain over w shared
//     carry ancillas (computed, consumed top-down, uncomputed — the VBE
//     pattern), so the ancillas return to |0⟩ after every increment.
//  2. rotate — a weight-controlled barrel rotator: for counter bit w_j, a
//     layer of Fredkin gates rotates the bus by 2^j positions when w_j is
//     set (⌈log₂⌉ rounds of ≤ n−1 controlled swaps each).
//  3. uncompute — stage 1 reversed on the rotated bus (rotation preserves
//     Hamming weight, so the counter returns exactly to zero).
//
// Gate counts after FT decomposition track the paper's hwb rows closely
// (e.g. n=200 → ≈175k ops vs the paper's 175,490); the paper's netlists
// carry far more ancilla qubits because their flow expanded multi-control
// gates without any sharing — Paper holds their qubit counts next to the
// operation counts.
func HWB(n int) (*circuit.Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("benchgen: hwb needs n ≥ 2, got %d", n)
	}
	w := 0
	for (1 << uint(w)) < n+1 {
		w++
	}
	c := circuit.New(fmt.Sprintf("hwb%dps", n), 0)
	bus := make([]int, n)
	for i := range bus {
		bus[i] = c.AddQubit(fmt.Sprintf("x%d", i))
	}
	cnt := make([]int, w)
	for j := range cnt {
		cnt[j] = c.AddQubit(fmt.Sprintf("w%d", j))
	}
	carry := make([]int, w)
	for j := range carry {
		carry[j] = c.AddQubit(fmt.Sprintf("cy%d", j))
	}

	// Stage 1: popcount — one controlled increment per bus wire.
	for _, q := range bus {
		appendControlledIncrement(c, q, cnt, carry)
	}
	// Stage 2: barrel rotate by the counter value.
	for j := 0; j < w; j++ {
		shift := (1 << uint(j)) % n
		appendControlledRotate(c, cnt[j], bus, shift)
	}
	// Stage 3: uncompute popcount on the rotated bus. The increment block
	// is a palindrome-free sequence, so its inverse is the same gates in
	// reverse order (every gate is self-inverse).
	for i := len(bus) - 1; i >= 0; i-- {
		appendControlledDecrement(c, bus[i], cnt, carry)
	}
	return c, nil
}

// incrementGates emits cnt += ctl as a Toffoli carry-ripple using the shared
// carry wires (all zero on entry and exit):
//
//	CNOT(ctl, carry[0])                       carry into bit 0
//	for j = 0..w-2:  TOF(cnt[j], carry[j], carry[j+1])
//	for j = w-2..0:  CNOT(carry[j+1], cnt[j+1]); TOF(cnt[j], carry[j], carry[j+1])
//	CNOT(carry[0], cnt[0]); CNOT(ctl, carry[0])
func incrementGates(ctl int, cnt, carry []int) []circuit.Gate {
	w := len(cnt)
	gates := make([]circuit.Gate, 0, 3*w+2)
	gates = append(gates, circuit.NewCNOT(ctl, carry[0]))
	for j := 0; j < w-1; j++ {
		gates = append(gates, circuit.NewToffoli(cnt[j], carry[j], carry[j+1]))
	}
	for j := w - 2; j >= 0; j-- {
		gates = append(gates,
			circuit.NewCNOT(carry[j+1], cnt[j+1]),
			circuit.NewToffoli(cnt[j], carry[j], carry[j+1]),
		)
	}
	gates = append(gates, circuit.NewCNOT(carry[0], cnt[0]), circuit.NewCNOT(ctl, carry[0]))
	return gates
}

func appendControlledIncrement(c *circuit.Circuit, ctl int, cnt, carry []int) {
	c.Append(incrementGates(ctl, cnt, carry)...)
}

// appendControlledDecrement emits the exact inverse of the increment: the
// same (self-inverse) gates in reverse order.
func appendControlledDecrement(c *circuit.Circuit, ctl int, cnt, carry []int) {
	gates := incrementGates(ctl, cnt, carry)
	for i := len(gates) - 1; i >= 0; i-- {
		c.Append(gates[i])
	}
}

// appendControlledRotate rotates the bus left by `shift` positions when
// ctrl is set, via rings of Fredkin gates (a rotation decomposes into
// gcd(n,shift) disjoint cycles; each cycle of length L needs L−1 controlled
// swaps).
func appendControlledRotate(c *circuit.Circuit, ctrl int, bus []int, shift int) {
	n := len(bus)
	if shift%n == 0 {
		return
	}
	seen := make([]bool, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		// Walk the cycle start → start+shift → ... emitting swaps that
		// percolate the first element around the ring.
		i := start
		seen[i] = true
		for {
			j := (i + shift) % n
			if j == start {
				break
			}
			seen[j] = true
			c.Append(circuit.NewFredkin(ctrl, bus[i], bus[j]))
			i = j
		}
	}
}
