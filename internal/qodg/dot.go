package qodg

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT renders the graph in Graphviz DOT format, regenerating the
// paper's Fig. 2(b) style: operation nodes labeled with their 1-based gate
// number and mnemonic, plus the start/end anchors. Edges are listed
// grouped by target.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", name)
	fmt.Fprintln(bw, "  rankdir=LR;")
	fmt.Fprintln(bw, "  node [shape=circle, fontsize=10];")
	for v, n := range g.Nodes {
		switch NodeID(v) {
		case g.Start():
			fmt.Fprintf(bw, "  n%d [label=\"start\", shape=box];\n", v)
		case g.End():
			fmt.Fprintf(bw, "  n%d [label=\"end\", shape=box];\n", v)
		default:
			fmt.Fprintf(bw, "  n%d [label=\"%d\\n%s\"];\n", v, v, n.Op.Type)
		}
	}
	for u, v := range g.Edges() {
		fmt.Fprintf(bw, "  n%d -> n%d;\n", u, v)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
