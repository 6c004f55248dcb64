package core

import (
	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/fabric"
	"repro/internal/qodg"
)

// EstimateAnalysis runs lines 2–20 of Algorithm 1 on an analyzed circuit: a
// batch of one column, so a single estimate and a column of a grid row are
// the same computation. ar, when non-nil, donates the weight slab and the
// longest-path scratch; the Result never aliases it.
func (e *Estimator) EstimateAnalysis(a *analysis.Analysis, ar *analysis.Arena) (*Result, error) {
	var res [1]*Result
	var errs [1]error
	estimateBatch([]*Estimator{e}, a, ar, res[:], errs[:])
	return res[0], errs[0]
}

// EstimateAnalysisBatch runs Algorithm 1 once per estimator over one shared
// analysis — the estimate phase of a batched grid row. The scalar phase
// (zone coverage, congestion, the memoized zone model) runs per column; the
// QODG re-weighting then resolves each (column, gate type) weight once in a
// dense type table, fills one interleaved weight slab — node v's K weights
// contiguous at [v*K] — in a single scan down the node array, and a single
// multi-weight traversal (qodg.LongestPathMultiStrided) relaxes every
// column's critical path at once instead of streaming the adjacency K times.
//
// results[j] and errs[j] are what ests[j].EstimateAnalysis(a, ar) returns,
// bitwise: a column's failure (non-FT analysis, zone-model error, missing
// gate delay) lands in errs[j] and never disturbs its neighbors.
func EstimateAnalysisBatch(ests []*Estimator, a *analysis.Analysis, ar *analysis.Arena) ([]*Result, []error) {
	results := make([]*Result, len(ests))
	errs := make([]error, len(ests))
	estimateBatch(ests, a, ar, results, errs)
	return results, errs
}

// The weight table lives on the stack up to stackCols columns — a typical
// grid row — so a single estimate allocates only what its Result keeps.
const stackCols = 8

// ftTypes bounds the gate types of a fault-tolerant analysis: CNOT and the
// one-qubit FT gates, which precede it in circuit's enumeration.
const ftTypes = int(circuit.CNOT) + 1

// estimateBatch fills results and errs (one slot per estimator).
func estimateBatch(ests []*Estimator, a *analysis.Analysis, ar *analysis.Arena, results []*Result, errs []error) {
	if len(ests) == 0 {
		return
	}
	if !a.FT {
		for j := range errs {
			errs[j] = ftErr(a.Name)
		}
		return
	}
	g, ig := a.QODG, a.IIG

	// Lines 2–18 per column. Columns sharing a fabric configuration share
	// one zone-model computation through the zonemodel memo.
	live := 0
	for j, e := range ests {
		results[j], errs[j] = e.scalarPhase(a.Qubits, a.Operations, ig)
		if errs[j] == nil {
			live++
		}
	}
	if live == 0 {
		return
	}

	// Lines 19–20, fused. Resolve every (column, gate type) weight before
	// touching the node array — d_CNOT + L_CNOT^avg for CNOTs, d_g +
	// L_g^avg otherwise — once per type instead of once per gate. Running
	// column i's weight for type t sits at tab[t*live+i]. A column whose
	// fabric lacks a gate delay fails only if that gate occurs, with the
	// error of the first such gate; finding it takes a scan of the nodes,
	// which only such a misconfigured column pays for.
	var tabBuf [ftTypes * stackCols]float64
	tab := tabBuf[:]
	if n := ftTypes * live; n > len(tab) {
		tab = make([]float64, n)
	}
	var runBuf [stackCols]int
	run := runBuf[:0]
	for j, e := range ests {
		if errs[j] != nil {
			continue
		}
		i, p, res := len(run), e.Params, results[j]
		clean := true
		for t := circuit.GateType(0); int(t) < ftTypes; t++ {
			if !t.IsFT() {
				continue
			}
			d, err := p.DelayOf(t)
			if err != nil {
				clean = false
				continue
			}
			if t == circuit.CNOT {
				tab[int(t)*live+i] = d + res.LCNOTAvg
			} else {
				tab[int(t)*live+i] = d + res.LOneQubitAvg
			}
		}
		if !clean {
			if err := firstMissingDelay(g, p); err != nil {
				results[j], errs[j] = nil, err
				continue
			}
		}
		run = append(run, j)
	}
	kr := len(run)
	if kr == 0 {
		return
	}

	// Fill the weight slab with one row copy per node.
	var wm []float64
	var scratch *qodg.PathScratch
	if ar != nil {
		wm = ar.MultiWeightSlab(g, kr)
		scratch = ar.Path()
	} else {
		wm = make([]float64, len(g.Nodes)*kr)
	}
	for v, node := range g.Nodes {
		row := wm[v*kr : (v+1)*kr]
		if node.IsPseudo() {
			clear(row)
			continue
		}
		w := tab[int(node.Op.Type)*live:]
		for c := range row {
			row[c] = w[c]
		}
	}

	// One traversal for every column with a clean weight table. One column
	// takes the single-column sweep directly, sparing the result slice.
	var cps []qodg.CriticalPath
	var err error
	if kr == 1 {
		var one [1]qodg.CriticalPath
		one[0], err = g.LongestPathInto(qodg.Weights(wm), scratch)
		cps = one[:]
	} else {
		cps, err = g.LongestPathMultiStrided(wm, kr, scratch)
	}
	if err != nil {
		for _, j := range run {
			results[j], errs[j] = nil, err
		}
		return
	}
	for i, j := range run {
		finishPath(results[j], cps[i])
	}
}

// firstMissingDelay reports the error of the first gate, in node order,
// whose type p has no delay for; nil when every gate in g has one.
func firstMissingDelay(g *qodg.Graph, p fabric.Params) error {
	var checked [ftTypes]bool
	for _, node := range g.Nodes {
		if node.IsPseudo() || checked[node.Op.Type] {
			continue
		}
		checked[node.Op.Type] = true
		if _, err := p.DelayOf(node.Op.Type); err != nil {
			return err
		}
	}
	return nil
}
