package core

import (
	"errors"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/fabric"
	"repro/internal/qodg"
)

// EstimateAnalysis runs lines 2–20 of Algorithm 1 on an analyzed circuit: a
// batch of one column, so a single estimate and a column of a grid row are
// the same computation. ar, when non-nil, donates the longest-path scratch;
// the Result never aliases it.
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
// dense type table, and a single multi-weight traversal
// (qodg.LongestPathMultiByType) reads every node's K weights from that
// table by gate type and relaxes every column's critical path at once,
// instead of streaming the adjacency K times. No per-node weight array is
// built at any K.
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
	// one zone-model computation through the zonemodel memo. A column whose
	// fabric lacks a gate delay fails only if that gate occurs, with the
	// error of the first such gate; finding it takes a scan of the nodes,
	// which only such a misconfigured column pays for.
	var runBuf [stackCols]int
	run := runBuf[:0]
	for j, e := range ests {
		results[j], errs[j] = e.scalarPhase(a.Qubits, a.Operations, ig)
		if errs[j] != nil {
			continue
		}
		if !hasFTDelays(e.Params) {
			if err := firstMissingDelay(g, e.Params); err != nil {
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

	// Lines 19–20, fused. Resolve every (column, gate type) weight before
	// touching the node array — d_CNOT + L_CNOT^avg for CNOTs, d_g +
	// L_g^avg otherwise — once per type instead of once per gate. Run
	// column i's weight for type t sits at tab[t*kr+i]; row 0
	// (circuit.Invalid) stays 0 and weighs the pseudo-nodes.
	var tabBuf [ftTypes * stackCols]float64
	tab := tabBuf[:]
	if n := ftTypes * kr; n > len(tab) {
		tab = make([]float64, n)
	}
	tab = tab[:ftTypes*kr]
	for i, j := range run {
		p, res := ests[j].Params, results[j]
		for t := circuit.GateType(0); int(t) < ftTypes; t++ {
			if !t.IsFT() {
				continue
			}
			d, err := p.DelayOf(t)
			if err != nil {
				continue // t occurs nowhere in g (checked above)
			}
			if t == circuit.CNOT {
				tab[int(t)*kr+i] = d + res.LCNOTAvg
			} else {
				tab[int(t)*kr+i] = d + res.LOneQubitAvg
			}
		}
	}

	// One traversal for every column, reading the table by gate type. One
	// column takes LongestPath, sparing the result slice. A node whose type
	// has no row is a non-FT gate in an analysis flagged FT: it fails every
	// column with a NonFTError rather than weighing nothing.
	var scratch *qodg.PathScratch
	if ar != nil {
		scratch = ar.Path()
	}
	var cps []qodg.CriticalPath
	var err error
	if kr == 1 {
		var one [1]qodg.CriticalPath
		one[0], err = g.LongestPath(tab, scratch)
		cps = one[:]
	} else {
		cps, err = g.LongestPathMultiByType(tab, kr, scratch)
	}
	if err != nil {
		var mr *qodg.MissingRowError
		if errors.As(err, &mr) {
			err = &NonFTError{Circuit: a.Name, Gate: g.Nodes[mr.Node].GateIndex, Type: mr.Type}
		}
		for _, j := range run {
			results[j], errs[j] = nil, err
		}
		return
	}
	for i, j := range run {
		finishPath(results[j], cps[i])
	}
}

// hasFTDelays reports whether p configures a delay for every FT gate type.
func hasFTDelays(p fabric.Params) bool {
	for t := circuit.GateType(0); int(t) < ftTypes; t++ {
		if !t.IsFT() {
			continue
		}
		if _, err := p.DelayOf(t); err != nil {
			return false
		}
	}
	return true
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
