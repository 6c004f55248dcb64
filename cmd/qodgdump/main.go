// Command qodgdump prints a circuit's analysis graphs in Graphviz DOT form:
// the quantum operation dependency graph (QODG, regenerating the paper's
// Fig. 2b) and/or the interaction intensity graph (IIG).
//
// Usage:
//
//	qodgdump [-iig] [-both] <circuit.qc | benchmark-name>
//
// By default only the QODG is dumped; -iig dumps only the IIG, -both both.
// One analysis builds the pair, so the circuit must be decomposed to one-
// and two-qubit gates (-ft, on by default, does that).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/decompose"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qodgdump:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dumpIIG = flag.Bool("iig", false, "dump the interaction intensity graph instead")
		both    = flag.Bool("both", false, "dump QODG and IIG (one fused analysis pass)")
		lowerFT = flag.Bool("ft", true, "lower to the FT gate set first (Fig. 2 shows the FT netlist)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: qodgdump [-iig] [-both] <circuit.qc | benchmark-name>")
	}
	arg := flag.Arg(0)
	var c *circuit.Circuit
	var err error
	if _, statErr := os.Stat(arg); statErr == nil {
		c, err = circuit.LoadQCFile(arg)
	} else {
		c, err = benchgen.Generate(arg)
	}
	if err != nil {
		return err
	}
	if *lowerFT && !c.IsFT() {
		c, err = decompose.ToFT(c, decompose.Options{})
		if err != nil {
			return err
		}
	}

	// One analysis builds both graphs; print the ones asked for.
	a, err := analysis.Analyze(c)
	if err != nil {
		return err
	}
	if !*dumpIIG || *both {
		if err := a.QODG.WriteDOT(os.Stdout, c.Name); err != nil {
			return err
		}
	}
	if *dumpIIG || *both {
		fmt.Printf("graph %q {\n", c.Name+"_iig")
		for _, e := range a.IIG.Edges() {
			fmt.Printf("  q%d -- q%d [label=\"%d\"];\n", e.A, e.B, e.Weight)
		}
		fmt.Println("}")
	}
	return nil
}
