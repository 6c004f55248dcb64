package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/benchgen"
	"repro/internal/fabric"
	"repro/internal/queuemodel"
	"repro/internal/stats"
	"repro/internal/tsp"
	"repro/leqa"
)

// The ablations sweep model configurations over fixed circuits. Each sweep
// evaluates its configurations concurrently via forEach, collects results
// in configuration order, and renders sequentially; the estimator calls
// route through the public leqa API, so repeated configurations on the same
// fabric hit the memoized zone model.

func mustChannel(capacity int, dUncong float64) queuemodel.Channel {
	ch, err := queuemodel.NewChannel(capacity, dUncong)
	if err != nil {
		// Callers pass validated parameters; a failure here is a
		// programming error.
		panic(err)
	}
	return ch
}

// AblationTruncation sweeps the E[S_q] truncation limit on one benchmark and
// reports how L_CNOT and the final estimate move — the paper's claim that 20
// terms suffice.
func AblationTruncation(w io.Writer, name string, p fabric.Params) error {
	ft, err := benchgen.GenerateFT(name)
	if err != nil {
		return err
	}
	terms := []int{1, 2, 5, 10, 20, 50, -1}
	results := make([]*leqa.EstimateResult, len(terms))
	err = forEach(len(terms), 0, func(i int) error {
		res, err := leqa.EstimateWith(ft, p, leqa.EstimateOptions{Truncation: terms[i]})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Truncation ablation on %s (Q=%d qubits)\n", name, ft.NumQubits())
	fmt.Fprintf(w, "%8s %14s %14s\n", "terms", "L_CNOT(µs)", "estimate(s)")
	var ref float64
	for i, t := range terms {
		label := fmt.Sprintf("%d", t)
		if t == -1 {
			label = "all"
			ref = results[i].EstimatedLatency
		}
		fmt.Fprintf(w, "%8s %14.2f %14.4f\n", label, results[i].LCNOTAvg, results[i].EstimatedLatency/1e6)
	}
	if ref > 0 {
		res, err := leqa.Estimate(ft, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "20-term deviation from exact: %.4f%%\n",
			stats.AbsErrorPct(ref, res.EstimatedLatency))
	}
	return nil
}

// AblationCongestion compares the full estimator against the
// congestion-model-disabled variant across the small benchmarks.
func AblationCongestion(w io.Writer, names []string, p fabric.Params) error {
	type pair struct{ on, off *leqa.EstimateResult }
	results := make([]pair, len(names))
	err := forEach(len(names), 0, func(i int) error {
		ft, err := benchgen.GenerateFT(names[i])
		if err != nil {
			return err
		}
		rOn, err := leqa.Estimate(ft, p)
		if err != nil {
			return err
		}
		rOff, err := leqa.EstimateWith(ft, p, leqa.EstimateOptions{DisableCongestion: true})
		if err != nil {
			return err
		}
		results[i] = pair{on: rOn, off: rOff}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Congestion-model ablation (LEQA with/without Eq. 8 queueing)")
	fmt.Fprintf(w, "%-17s %12s %12s %9s\n", "Benchmark", "with(s)", "without(s)", "delta(%)")
	for i, name := range names {
		rOn, rOff := results[i].on, results[i].off
		delta := stats.AbsErrorPct(rOn.EstimatedLatency, rOff.EstimatedLatency)
		fmt.Fprintf(w, "%-17s %12.4f %12.4f %9.3f\n",
			name, rOn.EstimatedLatency/1e6, rOff.EstimatedLatency/1e6, delta)
	}
	return nil
}

// AblationPlacement compares QSPR placement strategies (clustered vs spread
// vs row-major) on the given benchmarks — a design-choice check for the
// baseline mapper.
func AblationPlacement(w io.Writer, names []string, p fabric.Params) error {
	strategies := []leqa.MapOptions{
		{Placement: leqa.PlaceClustered}, {Placement: leqa.PlaceSpaced},
		{Placement: leqa.PlaceSpread}, {Placement: leqa.PlaceRowMajor},
	}
	// One flat pool over the names × strategies cross product keeps the
	// number of concurrent detailed mappers at a single GOMAXPROCS bound.
	circuits := make([]*leqa.Circuit, len(names))
	for i, name := range names {
		ft, err := benchgen.GenerateFT(name)
		if err != nil {
			return err
		}
		circuits[i] = ft
	}
	results := make([][]*leqa.MapResult, len(names))
	for i := range results {
		results[i] = make([]*leqa.MapResult, len(strategies))
	}
	err := forEach(len(names)*len(strategies), 0, func(k int) error {
		i, j := k/len(strategies), k%len(strategies)
		res, err := leqa.MapActualWith(circuits[i], p, strategies[j])
		if err != nil {
			return err
		}
		results[i][j] = res
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "QSPR placement ablation (actual latency, seconds)")
	fmt.Fprintf(w, "%-17s %12s %12s %12s %12s\n", "Benchmark", "clustered", "spaced", "spread", "rowmajor")
	for i, name := range names {
		fmt.Fprintf(w, "%-17s", name)
		for _, res := range results[i] {
			fmt.Fprintf(w, " %12.4f", res.Latency/1e6)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// AblationMeeting compares the greedy CNOT meeting-point policy against
// midpoint meeting in QSPR.
func AblationMeeting(w io.Writer, names []string, p fabric.Params) error {
	type pair struct{ greedy, midpoint *leqa.MapResult }
	results := make([]pair, len(names))
	err := forEach(len(names), 0, func(i int) error {
		ft, err := benchgen.GenerateFT(names[i])
		if err != nil {
			return err
		}
		rg, err := leqa.MapActualWith(ft, p, leqa.MapOptions{})
		if err != nil {
			return err
		}
		rm, err := leqa.MapActualWith(ft, p, leqa.MapOptions{MidpointMeeting: true})
		if err != nil {
			return err
		}
		results[i] = pair{greedy: rg, midpoint: rm}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "QSPR CNOT meeting-policy ablation (actual latency, seconds)")
	fmt.Fprintf(w, "%-17s %12s %12s\n", "Benchmark", "greedy", "midpoint")
	for i, name := range names {
		fmt.Fprintf(w, "%-17s %12.4f %12.4f\n",
			name, results[i].greedy.Latency/1e6, results[i].midpoint.Latency/1e6)
	}
	return nil
}

// AblationTSPBound validates the Eq. 15 closed form against exact Held–Karp
// Monte Carlo: for small partner counts, the estimated Hamiltonian path in a
// unit zone vs the measured expectation.
func AblationTSPBound(w io.Writer, seed int64) error {
	fmt.Fprintln(w, "Eq. 15 closed form vs exact Held-Karp Monte Carlo (unit square)")
	fmt.Fprintf(w, "%4s %12s %12s %9s\n", "m", "Eq.15", "MonteCarlo", "dev(%)")
	rng := rand.New(rand.NewSource(seed))
	for _, m := range []int{2, 3, 5, 8, 11} {
		closed := tsp.ExpectedHamiltonianPath(m, 1)
		mc, err := tsp.MonteCarloPathLength(m+1, 200, rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%4d %12.4f %12.4f %9.2f\n", m, closed, mc, stats.AbsErrorPct(mc, closed))
	}
	fmt.Fprintln(w, "(Eq. 13-14 are asymptotic; small-m deviation is expected and absorbed by 𝓋.)")
	return nil
}

// AblationChannelCapacity sweeps Nc and reports both tools' latencies on one
// benchmark — how sensitive the fabric is to channel width.
func AblationChannelCapacity(w io.Writer, name string, p fabric.Params) error {
	ft, err := benchgen.GenerateFT(name)
	if err != nil {
		return err
	}
	ncs := []int{1, 2, 5, 10, 20}
	type pair struct {
		act *leqa.MapResult
		est *leqa.EstimateResult
	}
	results := make([]pair, len(ncs))
	err = forEach(len(ncs), 0, func(i int) error {
		q := p.Clone()
		q.ChannelCapacity = ncs[i]
		act, err := leqa.MapActual(ft, q)
		if err != nil {
			return err
		}
		est, err := leqa.Estimate(ft, q)
		if err != nil {
			return err
		}
		results[i] = pair{act: act, est: est}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Channel-capacity sweep on %s\n", name)
	fmt.Fprintf(w, "%4s %14s %14s\n", "Nc", "QSPR act(s)", "LEQA est(s)")
	for i, nc := range ncs {
		fmt.Fprintf(w, "%4d %14.4f %14.4f\n",
			nc, results[i].act.Latency/1e6, results[i].est.EstimatedLatency/1e6)
	}
	return nil
}

// FabricSizeSweep reruns LEQA over a range of fabric sizes — the use case
// the paper calls out ("this value can be changed to find the optimal size
// for the fabric"). The study runs as one SweepGrid batch: the circuit is
// analyzed once and only the fabric-dependent zone model differs per size,
// with each distinct grid memoized, so rerunning the sweep on another
// circuit with the same interaction profile is nearly free.
func FabricSizeSweep(w io.Writer, name string, p fabric.Params, sizes []int) error {
	ft, err := benchgen.GenerateFT(name)
	if err != nil {
		return err
	}
	// Fabrics that cannot hold the register render as "too small" rows and
	// never enter the batch.
	fits := make([]bool, len(sizes))
	var paramSets []fabric.Params
	for i, s := range sizes {
		g := fabric.Grid{Width: s, Height: s}
		if g.Area() < ft.NumQubits() {
			continue
		}
		fits[i] = true
		q := p.Clone()
		q.Grid = g
		paramSets = append(paramSets, q)
	}
	runner, err := leqa.NewRunner(p, leqa.EstimateOptions{}, 0)
	if err != nil {
		return err
	}
	cells, err := runner.SweepGridSources(context.Background(), []leqa.Source{leqa.CircuitSource(ft)}, paramSets)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fabric-size sweep on %s (LEQA estimate per size)\n", name)
	fmt.Fprintf(w, "%8s %14s %12s\n", "fabric", "estimate(s)", "L_CNOT(µs)")
	next := 0
	for i, s := range sizes {
		if !fits[i] {
			fmt.Fprintf(w, "%5dx%-3d %14s %12s\n", s, s, "too small", "-")
			continue
		}
		cell := cells[next]
		next++
		if cell.Err != nil {
			return cell.Err
		}
		fmt.Fprintf(w, "%5dx%-3d %14.4f %12.1f\n", s, s, cell.Result.EstimatedLatency/1e6, cell.Result.LCNOTAvg)
	}
	return nil
}
