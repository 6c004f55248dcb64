// Package leqa is the public API of this repository: a reproduction of
// "LEQA: Latency Estimation for a Quantum Algorithm Mapped to a Quantum
// Circuit Fabric" (Dousti & Pedram, DAC 2013).
//
// The package bundles the full flow:
//
//	c, _   := leqa.GenerateFT("gf2^16mult")     // or leqa.Load("file.qc") + leqa.Decompose
//	p      := leqa.DefaultParams()              // Table 1 physical parameters
//	est, _ := leqa.Estimate(c, p)               // LEQA: fast estimate (Algorithm 1)
//	act, _ := leqa.MapActual(c, p)              // QSPR-style detailed mapping
//	cmp, _ := leqa.Compare(c, p)                // both, with runtimes and error
//
// Latencies are reported in microseconds (the paper's Table 1 unit);
// Comparison also carries seconds for Table-2-style reporting.
package leqa

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/fabric"
	"repro/internal/iig"
	"repro/internal/ingest"
	"repro/internal/lru"
	"repro/internal/qodg"
	"repro/internal/qspr"
	"repro/internal/stats"
	"repro/internal/zonemodel"
)

// Re-exported core types. Aliases keep the public surface thin while the
// implementation lives in focused internal packages.
type (
	// Circuit is a reversible/FT gate netlist.
	Circuit = circuit.Circuit
	// Gate is one netlist operation.
	Gate = circuit.Gate
	// GateType enumerates the gate vocabulary.
	GateType = circuit.GateType
	// Params is the physical parameter set (Table 1).
	Params = fabric.Params
	// Grid is the fabric geometry.
	Grid = fabric.Grid
	// EstimateResult is LEQA's estimate with all model intermediates. Its
	// CriticalPath carries the path's length and per-type operation counts,
	// with no node list.
	EstimateResult = core.Result
	// EstimateOptions tunes the estimator (truncation, ablations).
	EstimateOptions = core.Options
	// MapResult is the detailed mapper's outcome.
	MapResult = qspr.Result
	// MapOptions tunes the detailed mapper.
	MapOptions = qspr.Options
	// Placement selects the detailed mapper's initial placement strategy.
	Placement = qspr.Placement
	// QODG is the quantum operation dependency graph.
	QODG = qodg.Graph
	// IIG is the interaction intensity graph.
	IIG = iig.Graph
	// Analysis bundles a circuit's QODG and IIG, built by one fused pass;
	// reusable across every parameter set the circuit is estimated under.
	Analysis = analysis.Analysis
	// ZoneCacheStats is a snapshot of the shared zone-model memo counters.
	ZoneCacheStats = lru.Stats
)

// The detailed mapper's placement strategies, re-exported for MapOptions.
const (
	PlaceClustered = qspr.PlaceClustered
	PlaceSpaced    = qspr.PlaceSpaced
	PlaceSpread    = qspr.PlaceSpread
	PlaceRowMajor  = qspr.PlaceRowMajor
)

// DefaultParams returns the paper's Table 1 parameter set.
func DefaultParams() Params { return fabric.Default() }

// ParseGrid parses "WxH" fabric dimensions (e.g. "60x60") — the spelling
// cmd/leqa flags and leqad requests share.
func ParseGrid(s string) (Grid, error) {
	ws, hs, ok := strings.Cut(s, "x")
	if !ok {
		return Grid{}, fmt.Errorf("leqa: grid %q must look like 60x60", s)
	}
	w, err := strconv.Atoi(ws)
	if err != nil {
		return Grid{}, fmt.Errorf("leqa: grid width %q: %v", ws, err)
	}
	h, err := strconv.Atoi(hs)
	if err != nil {
		return Grid{}, fmt.Errorf("leqa: grid height %q: %v", hs, err)
	}
	return Grid{Width: w, Height: h}, nil
}

// Load parses a netlist file into a materialized circuit. The container
// is detected by magic bytes, not extension: textual .qc, binary .qcb,
// and gzip-wrapped either way all load transparently.
func Load(path string) (*Circuit, error) {
	st, err := ingest.Open(path, ingest.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Materialize()
}

// Parse reads a .qc netlist from a reader.
func Parse(r io.Reader, name string) (*Circuit, error) { return circuit.ParseQC(r, name) }

// Save writes a circuit to a .qc file.
func Save(path string, c *Circuit) error { return circuit.SaveQCFile(path, c) }

// Generate builds a named paper benchmark as a raw reversible netlist
// (gf2^<n>mult, hwb<n>ps, ham<n>, <n>bitadder, mod<2^n>adder).
func Generate(name string) (*Circuit, error) { return benchgen.Generate(name) }

// GenerateFT builds a named paper benchmark lowered to the FT gate set.
func GenerateFT(name string) (*Circuit, error) { return benchgen.GenerateFT(name) }

// Benchmarks lists the paper's 18 benchmark names in Table 3 order.
func Benchmarks() []string { return benchgen.Names() }

// GenerateExactGF2Mult builds the functionally exact GF(2^n) multiplier
// variant (each partial product expanded through the field-polynomial
// reduction) — larger than the count-matched Table 3 netlist but
// classically verified; see internal/benchgen.GF2MultExact.
func GenerateExactGF2Mult(n int) (*Circuit, error) { return benchgen.GF2MultExact(n) }

// Decompose lowers a reversible netlist to the FT gate set with the paper's
// flow (Fredkin → 3 Toffolis, MCT → Toffolis with unshared ancillas,
// Toffoli → the 15-gate {H,T,T†,CNOT} network).
func Decompose(c *Circuit) (*Circuit, error) {
	return decompose.ToFT(c, decompose.Options{})
}

// Analyze builds both graphs of a circuit — the QODG (Fig. 2b) and the IIG
// — in one fused build: the front end Estimate and the sweep
// engines run, exposed for callers that want the graphs or want to amortize
// one analysis across many estimates.
func Analyze(c *Circuit) (*Analysis, error) { return analysis.Analyze(c) }

// analyzeFT is Analyze behind the FT precondition every estimate checks
// first: a non-FT circuit fails with NonFTError before any graph is built.
// A non-nil arena lends its buffers to the analysis.
func analyzeFT(c *Circuit, ar *analysis.Arena) (*Analysis, error) {
	if !c.IsFT() {
		return nil, &NonFTError{Circuit: c.Name, Gate: -1}
	}
	if ar != nil {
		return ar.Analyze(c)
	}
	return analysis.Analyze(c)
}

// EstimateAnalysis runs LEQA on a previously analyzed circuit.
func EstimateAnalysis(a *Analysis, p Params, opt EstimateOptions) (*EstimateResult, error) {
	est, err := core.New(p, opt)
	if err != nil {
		return nil, err
	}
	return est.EstimateAnalysis(a, nil)
}

// ZoneModelCacheStats reports the shared zone-model memo's cumulative
// hit/miss/eviction counters — the cache every estimate in the process
// funnels through.
func ZoneModelCacheStats() ZoneCacheStats { return zonemodel.Shared.Stats() }

// Estimate runs LEQA (Algorithm 1) with default options.
func Estimate(c *Circuit, p Params) (*EstimateResult, error) {
	return EstimateWith(c, p, EstimateOptions{})
}

// EstimateWith runs LEQA with explicit options.
func EstimateWith(c *Circuit, p Params, opt EstimateOptions) (*EstimateResult, error) {
	est, err := core.New(p, opt)
	if err != nil {
		return nil, err
	}
	a, err := analyzeFT(c, nil)
	if err != nil {
		return nil, err
	}
	return est.EstimateAnalysis(a, nil)
}

// MapActual runs the detailed scheduler/placer/router with default options.
func MapActual(c *Circuit, p Params) (*MapResult, error) {
	return MapActualWith(c, p, MapOptions{})
}

// MapActualWith runs the detailed mapper with explicit options.
func MapActualWith(c *Circuit, p Params, opt MapOptions) (*MapResult, error) {
	m, err := qspr.New(p, opt)
	if err != nil {
		return nil, err
	}
	return m.Map(c)
}

// Comparison is one Table-2/Table-3 row: actual vs estimated latency and
// tool runtimes for a single circuit.
type Comparison struct {
	Name         string
	Qubits       int
	Operations   int
	ActualSec    float64       // QSPR-style mapped latency, seconds
	EstimatedSec float64       // LEQA estimate, seconds
	ErrorPct     float64       // |est − act| / act · 100
	MapRuntime   time.Duration // wall time of the detailed mapper
	EstRuntime   time.Duration // wall time of LEQA
	Speedup      float64       // MapRuntime / EstRuntime
}

// Compare runs both tools on the circuit and assembles the comparison row.
func Compare(c *Circuit, p Params) (Comparison, error) {
	return CompareWith(c, p, EstimateOptions{}, MapOptions{})
}

// CompareWith is Compare with explicit per-tool options.
func CompareWith(c *Circuit, p Params, eopt EstimateOptions, mopt MapOptions) (Comparison, error) {
	t0 := time.Now()
	act, err := MapActualWith(c, p, mopt)
	if err != nil {
		return Comparison{}, fmt.Errorf("leqa: detailed mapping of %q: %w", c.Name, err)
	}
	mapDur := time.Since(t0)

	t1 := time.Now()
	est, err := EstimateWith(c, p, eopt)
	if err != nil {
		return Comparison{}, fmt.Errorf("leqa: estimating %q: %w", c.Name, err)
	}
	estDur := time.Since(t1)

	cmp := Comparison{
		Name:         c.Name,
		Qubits:       c.NumQubits(),
		Operations:   c.NumGates(),
		ActualSec:    act.Latency / 1e6,
		EstimatedSec: est.EstimatedLatency / 1e6,
		ErrorPct:     stats.AbsErrorPct(act.Latency, est.EstimatedLatency),
		MapRuntime:   mapDur,
		EstRuntime:   estDur,
	}
	if estDur > 0 {
		cmp.Speedup = float64(mapDur) / float64(estDur)
	}
	return cmp, nil
}

// Calibrate tunes the qubit-speed parameter 𝓋 (the paper's mapper
// calibration knob, §3.2) so LEQA's estimates best match the detailed
// mapper on the given training circuits. It runs the mapper once per
// circuit, then golden-section-searches log₁₀𝓋 minimizing the mean absolute
// percentage error. Returns the calibrated parameter set.
func Calibrate(train []*Circuit, p Params) (Params, error) {
	if len(train) == 0 {
		return p, fmt.Errorf("leqa: calibration needs at least one circuit")
	}
	actual := make([]float64, len(train))
	for i, c := range train {
		res, err := MapActual(c, p)
		if err != nil {
			return p, fmt.Errorf("leqa: calibration mapping %q: %w", c.Name, err)
		}
		actual[i] = res.Latency
	}
	meanErr := func(logV float64) float64 {
		q := p.Clone()
		q.QubitSpeed = pow10(logV)
		sum := 0.0
		for i, c := range train {
			res, err := EstimateWith(c, q, EstimateOptions{})
			if err != nil {
				return 1e18
			}
			sum += stats.AbsErrorPct(actual[i], res.EstimatedLatency)
		}
		return sum / float64(len(train))
	}
	// Golden-section search on log10(v) ∈ [-4, -1.5] — within an order of
	// magnitude or two of physically plausible channel speeds, so a
	// degenerate "routing is free" boundary solution cannot win.
	const phi = 0.6180339887498949
	lo, hi := -4.0, -1.5
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := meanErr(x1), meanErr(x2)
	for i := 0; i < 48; i++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = meanErr(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = meanErr(x2)
		}
	}
	out := p.Clone()
	out.QubitSpeed = pow10((lo + hi) / 2)
	return out, nil
}

func pow10(x float64) float64 { return math.Pow(10, x) }
