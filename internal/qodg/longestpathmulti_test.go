package qodg_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qodg"
)

// TestLongestPathMultiValidation covers the error and edge paths of the
// entry points: a negative column count, and a node whose type has no
// table row at K = 1 and K ≥ 2 — each an error, never a panic, and the
// missing row's error names the node and its type — while an empty column
// set is a no-op.
func TestLongestPathMultiValidation(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(7)), 4, 10)
	g := build(t, c)
	for _, call := range []func() ([]qodg.CriticalPath, error){
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiStrided(nil, -1, nil) },
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiByType(columnTable(1), -1, nil) },
	} {
		if got, err := call(); err == nil || got != nil {
			t.Errorf("negative K: got %d paths, err %v; want an error", len(got), err)
		}
	}

	swapped := build(t, c)
	swapped.Nodes[1].Op.Type = circuit.Swap // a type past the table's rows
	for _, e := range entries() {
		if strings.HasPrefix(e.name, "Strided") {
			continue // a per-node slab has a row for every node
		}
		got, err := e.run(swapped, columnTable(e.k), e.k, nil)
		var mr *qodg.MissingRowError
		if !errors.As(err, &mr) || got != nil {
			t.Fatalf("%s: node type without a row: got %d paths, err %v; want a MissingRowError", e.name, len(got), err)
		}
		if mr.Node != 1 || mr.Type != circuit.Swap || mr.Rows != typeRows || mr.Cols != e.k {
			t.Errorf("%s: %+v, want node 1 of type SWAP in a %d × %d table", e.name, *mr, typeRows, e.k)
		}
	}

	for _, call := range []func() ([]qodg.CriticalPath, error){
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiStrided(nil, 0, nil) },
		func() ([]qodg.CriticalPath, error) { return g.LongestPathMultiByType(nil, 0, nil) },
	} {
		if got, err := call(); err != nil || got != nil {
			t.Errorf("empty column set: got %v, %v; want nil, nil", got, err)
		}
	}
}
