// Package experiments regenerates every table and figure of the LEQA paper.
// Each function renders a formatted report to an io.Writer;
// cmd/experiments exposes them on the command line (its package doc is the
// experiment index) and bench_test.go drives the same code paths under
// testing.B.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/pool"
	"repro/internal/qspr"
	"repro/internal/stats"
	"repro/leqa"
)

// forEach runs fn(i) for every i in [0, n) across a bounded worker pool,
// aborting the feed on the first failure (a bad benchmark name must not
// cost hours of detailed mapping on the rest of the suite). Callers store
// per-index results themselves, so output stays in input order regardless
// of which worker ran what. workers ≤ 0 selects GOMAXPROCS.
func forEach(n, workers int, fn func(i int) error) error {
	return pool.ForEach(n, workers, true, fn)
}

// Row is one benchmark's full measurement set (Table 2 + Table 3 columns).
type Row struct {
	Name        string
	Qubits      int
	Operations  int
	ActualSec   float64
	EstimateSec float64
	ErrorPct    float64
	QSPRRuntime time.Duration
	LEQARuntime time.Duration
	Speedup     float64
}

// RunBenchmark generates the named benchmark, runs both tools, and returns
// the combined row.
func RunBenchmark(name string, p fabric.Params) (Row, error) {
	ft, err := benchgen.GenerateFT(name)
	if err != nil {
		return Row{}, err
	}
	return RunCircuit(ft, p)
}

// RunCircuit measures one prepared FT circuit.
func RunCircuit(ft *circuit.Circuit, p fabric.Params) (Row, error) {
	mapper, err := qspr.New(p, qspr.Options{})
	if err != nil {
		return Row{}, err
	}
	t0 := time.Now()
	act, err := mapper.Map(ft)
	if err != nil {
		return Row{}, fmt.Errorf("qspr %q: %w", ft.Name, err)
	}
	qsprDur := time.Since(t0)

	t1 := time.Now()
	res, err := leqa.Estimate(ft, p)
	if err != nil {
		return Row{}, fmt.Errorf("leqa %q: %w", ft.Name, err)
	}
	leqaDur := time.Since(t1)

	row := Row{
		Name:        ft.Name,
		Qubits:      ft.NumQubits(),
		Operations:  ft.NumGates(),
		ActualSec:   act.Latency / 1e6,
		EstimateSec: res.EstimatedLatency / 1e6,
		ErrorPct:    stats.AbsErrorPct(act.Latency, res.EstimatedLatency),
		QSPRRuntime: qsprDur,
		LEQARuntime: leqaDur,
	}
	if leqaDur > 0 {
		row.Speedup = float64(qsprDur) / float64(leqaDur)
	}
	return row, nil
}

// RunSuite measures every named benchmark, fanning the per-benchmark work
// (generation, QSPR mapping, LEQA estimation) across a worker pool. Rows
// come back in input order. Errors abort; the paper's suite must run whole.
// workers ≤ 0 selects GOMAXPROCS; note that per-row runtime columns measure
// wall time under whatever contention the pool creates, so use workers = 1
// when clean Table 3 runtime numbers matter more than suite throughput.
func RunSuite(names []string, p fabric.Params, workers int, progress io.Writer) ([]Row, error) {
	rows := make([]Row, len(names))
	var mu sync.Mutex
	err := forEach(len(names), workers, func(i int) error {
		row, err := RunBenchmark(names[i], p)
		if err != nil {
			return err
		}
		rows[i] = row
		if progress != nil {
			mu.Lock()
			fmt.Fprintf(progress, "finished %s (err %.2f%%)\n", names[i], row.ErrorPct)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table1 prints the physical parameter table.
func Table1(w io.Writer, p fabric.Params) {
	fmt.Fprintln(w, "Table 1. List of physical parameters of the TQA")
	fmt.Fprintln(w, "Parameter        Value")
	fmt.Fprintln(w, "---------        -----")
	type row struct {
		name string
		gt   circuit.GateType
	}
	order := []row{
		{"d_H", circuit.H}, {"d_T,d_T†", circuit.T},
		{"d_X,d_Y,d_Z", circuit.X}, {"d_S,d_S†", circuit.S},
	}
	for _, r := range order {
		d, err := p.DelayOf(r.gt)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%-16s %.0fµs\n", r.name, d)
	}
	fmt.Fprintf(w, "%-16s %.0fµs\n", "d_CNOT", p.DCNOT)
	fmt.Fprintf(w, "%-16s %d\n", "N_c", p.ChannelCapacity)
	fmt.Fprintf(w, "%-16s %g\n", "v", p.QubitSpeed)
	fmt.Fprintf(w, "%-16s %d = %dx%d\n", "A = a x b", p.Grid.Area(), p.Grid.Width, p.Grid.Height)
	fmt.Fprintf(w, "%-16s %.0fµs\n", "T_move", p.TMove)
}

// Table2 prints the accuracy comparison (actual vs estimated latency) with
// the paper's reference columns alongside.
func Table2(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Table 2. Actual (QSPR) vs estimated (LEQA) latency")
	fmt.Fprintf(w, "%-17s %12s %12s %8s | %12s %12s %8s\n",
		"Benchmark", "Actual(s)", "Estim.(s)", "Err(%)", "paperAct(s)", "paperEst(s)", "pErr(%)")
	var errs []float64
	for _, r := range rows {
		p, ok := benchgen.Paper[r.Name]
		paperCols := fmt.Sprintf("%12s %12s %8s", "-", "-", "-")
		if ok {
			paperCols = fmt.Sprintf("%12.3e %12.3e %8.2f", p.ActualSec, p.EstimateSec, p.ErrorPct)
		}
		fmt.Fprintf(w, "%-17s %12.3e %12.3e %8.2f | %s\n",
			r.Name, r.ActualSec, r.EstimateSec, r.ErrorPct, paperCols)
		errs = append(errs, r.ErrorPct)
	}
	fmt.Fprintf(w, "average error: %.2f%%   max error: %.2f%%   (paper: 2.11%% avg, 8.29%% max)\n",
		stats.Mean(errs), stats.Max(errs))
}

// WriteTable2CSV writes Table 2's pinned columns as CSV, one row per
// benchmark: name, operation count, LEQA's estimate and QSPR's latency in
// seconds, and the error in percent. Floats render in strconv's shortest
// exact form ('g', -1), so the text changes exactly when a number does;
// testdata/table2.csv at the repository root holds the 18-row table.
func WriteTable2CSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"benchmark", "operations", "leqa_estimate_s", "qspr_actual_s", "error_pct"})
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		cw.Write([]string{r.Name, strconv.Itoa(r.Operations), f(r.EstimateSec), f(r.ActualSec), f(r.ErrorPct)})
	}
	cw.Flush()
	return cw.Error()
}

// Table3 prints workload sizes, tool runtimes, and speedups.
func Table3(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Table 3. Benchmark sizes and runtime comparison")
	fmt.Fprintf(w, "%-17s %7s %10s %12s %12s %9s | %7s %10s %9s\n",
		"Benchmark", "Qubits", "Ops", "QSPR(s)", "LEQA(s)", "Speedup", "pQubit", "pOps", "pSpeedup")
	for _, r := range rows {
		p, ok := benchgen.Paper[r.Name]
		paperCols := fmt.Sprintf("%7s %10s %9s", "-", "-", "-")
		if ok {
			paperCols = fmt.Sprintf("%7d %10d %9.1f", p.Qubits, p.Operations,
				paperSpeedup(r.Name))
		}
		fmt.Fprintf(w, "%-17s %7d %10d %12.4f %12.4f %9.1f | %s\n",
			r.Name, r.Qubits, r.Operations,
			r.QSPRRuntime.Seconds(), r.LEQARuntime.Seconds(), r.Speedup, paperCols)
	}
}

// paperSpeedup recomputes the paper's Table 3 speedup column.
func paperSpeedup(name string) float64 {
	switch name {
	case "8bitadder":
		return 8.2
	case "gf2^16mult":
		return 10.3
	case "hwb15ps":
		return 10.7
	case "hwb16ps":
		return 11.5
	case "gf2^18mult":
		return 12.6
	case "gf2^19mult":
		return 14.2
	case "gf2^20mult":
		return 17.1
	case "ham15":
		return 16.6
	case "hwb20ps":
		return 13.9
	case "hwb50ps":
		return 26.3
	case "gf2^50mult":
		return 42.5
	case "mod1048576adder":
		return 52.8
	case "gf2^64mult":
		return 63.8
	case "hwb100ps":
		return 46.4
	case "gf2^100mult":
		return 76.0
	case "hwb200ps":
		return 72.9
	case "gf2^128mult":
		return 78.3
	case "gf2^256mult":
		return 114.7
	}
	return 0
}

// Extrapolation fits runtime-vs-operation-count power laws for both tools
// (the paper's §4.2 scaling claim: QSPR ~ n^1.5, LEQA ~ n) and extrapolates
// to the Shor-1024 workload of 1.35·10^10 logical operations.
func Extrapolation(w io.Writer, rows []Row) error {
	var ops, qsprSec, leqaSec []float64
	for _, r := range rows {
		if r.QSPRRuntime <= 0 || r.LEQARuntime <= 0 {
			continue
		}
		ops = append(ops, float64(r.Operations))
		qsprSec = append(qsprSec, r.QSPRRuntime.Seconds())
		leqaSec = append(leqaSec, r.LEQARuntime.Seconds())
	}
	kQ, cQ, r2Q, err := stats.PowerFit(ops, qsprSec)
	if err != nil {
		return err
	}
	kL, cL, r2L, err := stats.PowerFit(ops, leqaSec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Runtime scaling (log-log power-law fit; paper: QSPR degree ~1.5, LEQA ~1):")
	fmt.Fprintf(w, "  QSPR: runtime ~ ops^%.2f (R²=%.3f)\n", kQ, r2Q)
	fmt.Fprintf(w, "  LEQA: runtime ~ ops^%.2f (R²=%.3f)\n", kL, r2L)
	const shorOps = 1.35e10
	fmt.Fprintf(w, "Extrapolated to Shor-1024 (%.2e logical ops):\n", shorOps)
	fmt.Fprintf(w, "  QSPR: %s   (paper: ~2 years)\n",
		stats.HumanDuration(stats.Extrapolate(kQ, cQ, shorOps)))
	fmt.Fprintf(w, "  LEQA: %s   (paper: 16.5 hours)\n",
		stats.HumanDuration(stats.Extrapolate(kL, cL, shorOps)))
	return nil
}

// Figure1 renders the 3×3 TQA sketch of the paper's Fig. 1 in ASCII.
func Figure1(w io.Writer) {
	fmt.Fprintln(w, "Figure 1. A 3x3 tiled quantum architecture (TQA)")
	row := "+-----+  +-----+  +-----+"
	ulb := "| ULB |--| ULB |--| ULB |"
	for i := 0; i < 3; i++ {
		fmt.Fprintln(w, row)
		fmt.Fprintln(w, ulb)
		fmt.Fprintln(w, row)
		if i < 2 {
			fmt.Fprintln(w, "   |        |        |   ")
		}
	}
	fmt.Fprintln(w, "ULBs separated by routing channels; junctions are quantum crossbars.")
}

// Figure2 prints the ham3 circuit and its QODG (paper Fig. 2) in DOT form
// via the qodg package; here we emit the gate list and summary.
func Figure2(w io.Writer) error {
	raw := benchgen.Ham3()
	ft, err := benchgen.GenerateFT("ham3")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 2(a). ham3 synthesized circuit (reversible gates):")
	for i, g := range raw.Gates {
		fmt.Fprintf(w, "  %2d: %s\n", i+1, g.String())
	}
	fmt.Fprintf(w, "FT-decomposed: %d operations (%s)\n", ft.NumGates(), ft.CountsString())
	fmt.Fprintln(w, "Figure 2(b): run `qodgdump ham3` for the DOT graph (19 op nodes + start/end).")
	return nil
}

// Figure3 renders the presence-zone coverage field: the expected number of
// zones covering each ULB for a synthetic 5-zone example, like the paper's
// Fig. 3 congestion illustration.
func Figure3(w io.Writer, p fabric.Params) {
	fmt.Fprintln(w, "Figure 3. Expected zone coverage per ULB (5 random zones, zone side 4)")
	grid := fabric.Grid{Width: 20, Height: 10}
	const zones = 5
	const side = 4
	for y := 1; y <= grid.Height; y++ {
		for x := 1; x <= grid.Width; x++ {
			pxy := core.CoverageProbability(grid, side, x, y)
			expect := pxy * zones
			fmt.Fprintf(w, "%c", shade(expect))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "legend: ' ' <0.1, '.' <0.3, ':' <0.6, '*' <1.0, '#' ≥1.0 expected zones")
}

func shade(v float64) byte {
	switch {
	case v < 0.1:
		return ' '
	case v < 0.3:
		return '.'
	case v < 0.6:
		return ':'
	case v < 1.0:
		return '*'
	default:
		return '#'
	}
}

// Figure4 dumps the P_{x,y} profile along a fabric row (the Eq. 5 geometry
// of the paper's Fig. 4).
func Figure4(w io.Writer, p fabric.Params) {
	fmt.Fprintln(w, "Figure 4. P_{x,y} along the middle row (Eq. 5), zone side ⌈√B⌉ = 4, 60x60 fabric")
	grid := p.Grid
	y := grid.Height / 2
	for x := 1; x <= grid.Width; x += 4 {
		pxy := core.CoverageProbability(grid, 4, x, y)
		fmt.Fprintf(w, "  x=%2d  P=%.5f  %s\n", x, pxy, bar(pxy, 0.006))
	}
}

func bar(v, unit float64) string {
	n := int(v / unit)
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '='
	}
	return string(out)
}

// Figure5 prints the M/M/1 channel-delay curve d_q vs q (Eq. 8, the
// paper's Fig. 5 model).
func Figure5(w io.Writer, p fabric.Params, dUncong float64) {
	fmt.Fprintf(w, "Figure 5. Channel delay d_q vs queue population q (M/M/1, Nc=%d, d_uncong=%.0fµs)\n",
		p.ChannelCapacity, dUncong)
	ch := mustChannel(p.ChannelCapacity, dUncong)
	for q := 0; q <= 15; q++ {
		d := ch.Delay(q)
		state := "uncongested"
		if q > p.ChannelCapacity {
			state = "congested"
		}
		fmt.Fprintf(w, "  q=%2d  d_q=%8.1fµs  %-12s %s\n", q, d, state, bar(d, dUncong/8))
	}
}

// SortRowsByOps orders rows the way Table 3 is presented.
func SortRowsByOps(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Operations < rows[j].Operations })
}
