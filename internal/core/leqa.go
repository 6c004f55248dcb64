// Package core implements LEQA itself — Algorithm 1 of the paper: a fast
// latency estimator for a quantum algorithm (an FT gate netlist) mapped to a
// tiled quantum architecture, built on the presence-zone coverage model
// (Eq. 2–7), the M/M/1 channel congestion model (Eq. 8–11) and the TSP-bound
// travel model (Eq. 12–16), feeding the critical-path latency of Eq. 1.
package core

import (
	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/fabric"
	"repro/internal/iig"
	"repro/internal/qodg"
	"repro/internal/tsp"
	"repro/internal/zonemodel"
)

// DefaultTruncation is the number of E[S_q] terms evaluated (the paper
// computes "only the first 20 terms ... in practice").
const DefaultTruncation = 20

// Options tunes the estimator; the zero value gives the paper's behavior.
type Options struct {
	// Truncation overrides the E[S_q] term limit; 0 means
	// DefaultTruncation, negative means no truncation (all Q terms) —
	// used by the truncation ablation.
	Truncation int
	// DisableCongestion replaces Eq. 8 with d_q = d_uncong everywhere,
	// for the congestion-model ablation.
	DisableCongestion bool
}

func (o Options) truncation(q int) int {
	switch {
	case o.Truncation < 0:
		return q
	case o.Truncation == 0:
		if q < DefaultTruncation {
			return q
		}
		return DefaultTruncation
	default:
		if o.Truncation > q {
			return q
		}
		return o.Truncation
	}
}

// Result carries the estimate plus every intermediate the paper defines, so
// experiments and reports can inspect the model.
type Result struct {
	// EstimatedLatency is D of Eq. 1, in µs.
	EstimatedLatency float64
	// LCNOTAvg is L_CNOT^avg (Eq. 2): average CNOT routing latency, µs.
	LCNOTAvg float64
	// LOneQubitAvg is L_g^avg = 2·T_move, µs.
	LOneQubitAvg float64
	// DUncong is the congestion-free average routing latency (Eq. 12), µs.
	DUncong float64
	// AvgZoneArea is B (Eq. 7), in ULB units.
	AvgZoneArea float64
	// ZoneSide is ⌈√B⌉ clamped to the fabric, in ULBs.
	ZoneSide int
	// ESq[q] is E[S_q] for q = 1..len(ESq)-1 (index 0 unused), in ULBs.
	ESq []float64
	// Dq[q] is d_q (Eq. 8) for q = 1..len(Dq)-1 (index 0 unused), µs.
	Dq []float64
	// CriticalPath is the re-weighted longest path of the QODG: its length
	// (D) and its operation counts per gate type, with no node list.
	CriticalPath qodg.CriticalPath
	// CriticalCNOTs and CriticalOneQubit are N_CNOT^critical and
	// Σ_g N_g^critical.
	CriticalCNOTs    int
	CriticalOneQubit int
	// Qubits and Operations echo the workload size (Table 3 columns).
	Qubits     int
	Operations int
}

// Estimator binds physical parameters and options; safe for reuse across
// circuits and for concurrent use.
type Estimator struct {
	Params  fabric.Params
	Options Options
}

// New constructs an Estimator after validating the parameters.
func New(p fabric.Params, opt Options) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{Params: p, Options: opt}, nil
}

// NonFTError reports a circuit (or gate stream) containing gates outside
// the fault-tolerant set: the analysis's FT-only counting pass
// (analysis.AnalyzeStreamContext) stops with it at the first non-FT gate,
// and EstimateAnalysis fails with it on a non-FT analysis.
type NonFTError = analysis.NonFTError

func ftErr(name string) error { return &NonFTError{Circuit: name, Gate: -1} }

// scalarPhase runs lines 2–18 of Algorithm 1 — everything before the QODG
// re-weighting: the zone coverage average (Eq. 6–7), the congestion-free
// routing latency (Eq. 12, 15–16), and the memoized zone-model terms
// (Eq. 2–5, 8–11). It runs once per parameter column; the IIG terms that
// depend only on the circuit repeat the identical float computation per
// column, so a column's Result never depends on the batch it ran in.
func (e *Estimator) scalarPhase(qubits, operations int, ig *iig.Graph) (*Result, error) {
	p := e.Params
	res := &Result{
		LOneQubitAvg: p.OneQubitRouting(),
		Qubits:       qubits,
		Operations:   operations,
	}

	// Lines 2–3: B_i = M_i + 1 (Eq. 6), B = weighted average (Eq. 7).
	res.AvgZoneArea = ig.AverageZoneArea()

	// Lines 4–8: E[l_ham,i] (Eq. 15), d_uncong,i (Eq. 16), d_uncong (Eq. 12).
	res.DUncong = ig.WeightedAverage(func(i int) float64 {
		m := ig.Degree(i)
		if m == 0 {
			return 0
		}
		lham := tsp.ExpectedHamiltonianPath(m, ig.ZoneArea(i))
		return lham / (p.QubitSpeed * float64(m))
	})

	if ig.TotalWeight() > 0 && res.DUncong > 0 {
		if err := e.routingLatency(res, ig); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finishPath folds a recovered critical path into the Result — lines 19–20's
// outputs: D (Eq. 1) plus the per-type critical counts.
func finishPath(res *Result, cp qodg.CriticalPath) {
	res.CriticalPath = cp
	res.EstimatedLatency = cp.Length
	for t, n := range cp.CountByType {
		if t == circuit.CNOT {
			res.CriticalCNOTs += n
		} else {
			res.CriticalOneQubit += n
		}
	}
}

// routingLatency fills ZoneSide, ESq, Dq and LCNOTAvg (lines 9–18). The
// heavy lifting — coverage probabilities, E[S_q], d_q, L_CNOT^avg — lives
// in the circuit-independent zonemodel layer and is memoized there, so two
// circuits with the same (fabric, zone side, Q, d_uncong) configuration
// share one model computation.
func (e *Estimator) routingLatency(res *Result, ig *iig.Graph) error {
	p := e.Params
	key := zonemodel.NewKey(p.Grid, res.AvgZoneArea, ig.Q,
		e.Options.truncation(ig.Q), p.ChannelCapacity, res.DUncong,
		e.Options.DisableCongestion)
	res.ZoneSide = key.ZoneSide
	m, err := zonemodel.Shared.Get(key)
	if err != nil {
		return err
	}
	res.ESq = m.ESq()
	res.Dq = m.Dq()
	res.LCNOTAvg = m.LCNOT
	return nil
}

// CoverageProbability exposes Eq. 5 for a single ULB — used by the Fig. 3/4
// regenerations and tests. x and y are 1-based.
func CoverageProbability(grid fabric.Grid, zoneSide, x, y int) float64 {
	return zonemodel.CoverageProbability(grid, zoneSide, x, y)
}

// ExpectedSurfaceExact computes E[S_q] without truncation for one q —
// used by tests validating the Eq. 3 constraint Σ_{q=0..Q} E[S_q] = A.
func ExpectedSurfaceExact(grid fabric.Grid, zoneSide, qubits, q int) float64 {
	return zonemodel.ExpectedSurfaceExact(grid, zoneSide, qubits, q)
}
