package qcbin

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/qodg"
)

// registerProvider is the optional interface gate streams with a real qubit
// register implement (ingest.Scanner, analysis.CircuitStream); streams
// without one get synthesized q<i> names.
type registerProvider interface {
	Register() *circuit.Circuit
}

// Encode writes src as a .qcb binary netlist. The stream is consumed twice:
// one pass fixes the register (a .qc stream may auto-declare qubits as it
// goes; the binary header needs the final count up front), then a rewound
// pass emits the gate records. The stream is left at end of its second
// pass.
func Encode(w io.Writer, src analysis.GateStream) error {
	if err := src.Rewind(); err != nil {
		return err
	}
	for src.Scan() {
	}
	if err := src.Err(); err != nil {
		return err
	}
	numQ := src.NumQubits()
	var names []string
	if rp, ok := src.(registerProvider); ok {
		names = rp.Register().QubitNames()
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, src.Name(), numQ, names); err != nil {
		return err
	}
	if err := src.Rewind(); err != nil {
		return err
	}
	var buf []byte
	for src.Scan() {
		buf = appendGateRecord(buf[:0], src.Gate())
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// EncodeCircuit writes a materialized circuit as a .qcb binary netlist in
// one pass.
func EncodeCircuit(w io.Writer, c *circuit.Circuit) error {
	if err := c.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, c.Name, c.NumQubits(), c.QubitNames()); err != nil {
		return err
	}
	var buf []byte
	for _, g := range c.Gates {
		buf = appendGateRecord(buf[:0], g)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeAnalysis writes an analysis as the .qcb netlist of its gate
// records: its name, a register of a.Qubits q<i> names, then one gate
// record per QODG node in program order. The nodes are the gates the
// analysis was built from, so the netlist has the digest of the analyzed
// stream (DigestAnalysis), and analysis.AnalyzeStream over it rebuilds the
// same analysis.
func EncodeAnalysis(w io.Writer, a *analysis.Analysis) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, a.Name, a.Qubits, nil); err != nil {
		return err
	}
	var ops [2]int
	var buf []byte
	for _, n := range a.QODG.Nodes[1 : len(a.QODG.Nodes)-1] {
		buf = appendGateRecord(buf[:0], nodeGate(n, &ops))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// nodeGate is the gate of a QODG node, its operands held in ops. An
// analysis holds only gates of one or two qubits, so a node's type, A and
// B fix the gate, controls first, as they fix its record.
func nodeGate(n qodg.Node, ops *[2]int) circuit.Gate {
	s, _ := n.Op.Type.Shape()
	ops[0], ops[1] = int(n.A), int(n.B)
	return circuit.Gate{Type: n.Op.Type, Controls: ops[:s.Controls], Targets: ops[s.Controls : s.Controls+s.Targets]}
}

// writeHeader emits the .qcb preamble: magic, version, circuit name and the
// register table. A nil names slice synthesizes q<i> display names.
func writeHeader(bw *bufio.Writer, name string, numQ int, names []string) error {
	if names != nil && len(names) != numQ {
		return fmt.Errorf("qcbin: register table has %d names for %d qubits", len(names), numQ)
	}
	if _, err := bw.Write(MagicQCB[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(Version); err != nil {
		return err
	}
	writeString(bw, name)
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(numQ))
	bw.Write(buf)
	for i := 0; i < numQ; i++ {
		if names != nil {
			writeString(bw, names[i])
		} else {
			writeString(bw, fmt.Sprintf("q%d", i))
		}
	}
	return nil
}

func writeString(bw *bufio.Writer, s string) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s)))
	bw.Write(buf[:n])
	bw.WriteString(s)
}
