// Fabric sizing: the use case the paper calls out explicitly — "[the fabric
// size] can be changed to find the optimal size for the fabric which results
// in the minimum delay." Because LEQA runs in milliseconds, a designer can
// sweep fabric dimensions interactively instead of waiting for a full
// mapping per size. The whole study is one SweepGrid batch: the circuit is
// analyzed once (fused QODG+IIG pass) and every fabric size estimates
// against that shared analysis concurrently.
//
//	go run ./examples/fabricsizing
package main

import (
	"context"
	"fmt"
	"log"

	"repro/leqa"
)

func main() {
	// A mid-size workload: the GF(2^16) multiplier (48 qubits, 3885 FT
	// operations after decomposition).
	c, err := leqa.GenerateFT("gf2^16mult")
	if err != nil {
		log.Fatal(err)
	}
	base := leqa.DefaultParams()

	fmt.Printf("sweeping fabric size for %s (%d qubits, %d ops)\n\n",
		c.Name, c.NumQubits(), c.NumGates())
	fmt.Printf("%10s %14s %14s %12s\n", "fabric", "estimate(s)", "L_CNOT(µs)", "zone side")

	sizes := []int{8, 10, 12, 16, 20, 30, 40, 60, 90, 120}
	fits := make([]bool, len(sizes))
	var paramSets []leqa.Params
	for i, size := range sizes {
		grid := leqa.Grid{Width: size, Height: size}
		if grid.Area() < c.NumQubits() {
			continue
		}
		p := base.Clone()
		p.Grid = grid
		fits[i] = true
		paramSets = append(paramSets, p)
	}

	// One batch over the cross product {circuit} × sizes.
	runner, err := leqa.NewRunner(base, leqa.EstimateOptions{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	cells, err := runner.SweepGridSources(context.Background(), []leqa.Source{leqa.CircuitSource(c)}, paramSets)
	if err != nil {
		log.Fatal(err)
	}

	next := 0
	bestSize, bestLatency := 0, 0.0
	for i, size := range sizes {
		if !fits[i] {
			fmt.Printf("%7dx%-2d %14s\n", size, size, "too small")
			continue
		}
		cell := cells[next]
		next++
		if cell.Err != nil {
			log.Fatal(cell.Err)
		}
		res := cell.Result
		fmt.Printf("%7dx%-2d %14.4f %14.1f %12d\n",
			size, size, res.EstimatedLatency/1e6, res.LCNOTAvg, res.ZoneSide)
		if bestSize == 0 || res.EstimatedLatency < bestLatency {
			bestSize, bestLatency = size, res.EstimatedLatency
		}
	}
	fmt.Printf("\nminimum-latency fabric in sweep: %dx%d (%.4f s)\n",
		bestSize, bestSize, bestLatency/1e6)
	fmt.Println("\nsmall fabrics lose to congestion (zones overlap, Eq. 8 queueing);")
	fmt.Println("oversized fabrics waste no latency in this model because presence")
	fmt.Println("zones — not the fabric span — set the travel distances.")
}
