// Command leqa estimates the latency of quantum algorithms mapped to a
// tiled quantum architecture — the paper's Algorithm 1.
//
// Usage:
//
//	leqa [flags] <circuit.qc | benchmark-name | -> [more circuits...]
//
// Each positional argument is either a .qc netlist file, a generator spec
// such as gf2^16mult, hwb50ps, ham15, 8bitadder, mod1048576adder, or "-"
// for a .qc netlist on stdin. The repeatable -grid/-capacity/-speed flags
// form a parameter matrix (their cross product); circuits × parameter sets
// fan out across a worker pool (the leqa.Runner sweep-grid engine), each
// circuit analyzed exactly once, and print as a table in argument order.
//
// Files larger than -maxmem — and stdin always — take the streaming
// ingestion path: the netlist is parsed and analyzed gate by gate
// (internal/ingest + analysis.AnalyzeStream) without ever materializing
// its gate list, so circuits beyond RAM estimate in O(analysis) memory.
// Streamed netlists must already be in the FT gate set (-decompose needs
// the materialized gate list).
//
// Flags:
//
//	-grid WxH         fabric dimensions; repeatable (-grid 60x60 -grid 90x90)
//	-capacity N       channel capacity; repeatable
//	-speed V          qubit speed 𝓋; repeatable
//	-width/-height    fallback fabric dimensions when no -grid given (60x60)
//	-nc               fallback channel capacity when no -capacity given (5)
//	-v                fallback qubit speed when no -speed given (0.001)
//	-tmove            per-hop move time in µs (default 100)
//	-truncation       E[S_q] term limit (default 20; -1 = exact)
//	-no-congestion    disable the M/M/1 congestion model
//	-decompose        lower non-FT gates before estimating
//	-maxmem N         materialize .qc files up to N bytes; stream larger ones
//	                  (and stdin) through the ingestion layer (default 64 MiB)
//	-workers          sweep worker-pool size (default GOMAXPROCS)
//	-timeout          abort the whole run after this duration (0 = none)
//	-json/-csv        emit machine-readable results for baseline diffing
//	-verbose          print model intermediates and cache statistics
//	-trace            print the run's per-phase span breakdown (ingest,
//	                  analyze with gate counts,
//	                  estimate) to stderr — the CLI view of the tracing
//	                  layer leqad threads through every request
//	-cpuprofile FILE  write a pprof CPU profile of the run
//	-memprofile FILE  write a pprof heap profile at exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/leqa"
	"repro/leqa/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leqa:", err)
		os.Exit(1)
	}
}

// gridList collects repeatable -grid WxH values.
type gridList []leqa.Grid

func (g *gridList) String() string {
	parts := make([]string, len(*g))
	for i, v := range *g {
		parts[i] = fmt.Sprintf("%dx%d", v.Width, v.Height)
	}
	return strings.Join(parts, ",")
}

func (g *gridList) Set(s string) error {
	grid, err := leqa.ParseGrid(s)
	if err != nil {
		return err
	}
	*g = append(*g, grid)
	return nil
}

// intList collects repeatable integer flag values.
type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }
func (l *intList) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

// floatList collects repeatable float flag values.
type floatList []float64

func (l *floatList) String() string { return fmt.Sprint([]float64(*l)) }
func (l *floatList) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func run() error {
	var (
		grids      gridList
		capacities intList
		speeds     floatList

		width        = flag.Int("width", 60, "fabric width when no -grid is given (ULB columns)")
		height       = flag.Int("height", 60, "fabric height when no -grid is given (ULB rows)")
		nc           = flag.Int("nc", 5, "routing channel capacity Nc when no -capacity is given")
		speed        = flag.Float64("v", 0.001, "qubit speed 𝓋 when no -speed is given (ULB sides per µs)")
		tmove        = flag.Float64("tmove", 100, "per-hop move time T_move (µs)")
		truncation   = flag.Int("truncation", 0, "E[S_q] term limit (0 = paper's 20, -1 = exact)")
		noCongestion = flag.Bool("no-congestion", false, "disable the M/M/1 congestion model")
		doDecompose  = flag.Bool("decompose", true, "lower reversible gates to the FT set first")
		maxMem       = flag.Int64("maxmem", 64<<20, "materialize .qc files up to this many bytes; stream larger ones (and stdin)")
		workers      = flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 0, "abort the run after this duration, e.g. 30s (0 = no limit)")
		jsonOut      = flag.Bool("json", false, "emit results as JSON (for baseline diffing)")
		csvOut       = flag.Bool("csv", false, "emit results as CSV (for baseline diffing)")
		verbose      = flag.Bool("verbose", false, "print model intermediates and cache statistics")
		traceRun     = flag.Bool("trace", false, "print the run's per-phase span breakdown to stderr")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Var(&grids, "grid", "fabric WxH; repeat to sweep fabrics (-grid 60x60 -grid 90x90)")
	flag.Var(&capacities, "capacity", "channel capacity Nc; repeat to sweep capacities")
	flag.Var(&speeds, "speed", "qubit speed 𝓋; repeat to sweep speeds")
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("usage: leqa [flags] <circuit.qc | benchmark-name | -> [more circuits...]")
	}
	if *jsonOut && *csvOut {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	// pprof hooks so hot-path regressions can be diagnosed on real
	// workloads in the field without editing the benchmark harness.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "leqa: -memprofile:", err)
			}
			f.Close()
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		// The same cancellation path the leqad service uses: the deadline
		// propagates into SweepGridSources, hung cells carry the context error
		// and the run exits non-zero instead of wedging.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Every input is one source of a single sweep: stdin and files over the
	// materialization budget stream lazily, the rest load (and lower to the
	// FT set) up front. No analysis store is attached: every input is in
	// hand, and a store lookup analyzes its input as the estimate does, so
	// it would only add the hash of the records.
	sources := make([]leqa.Source, 0, flag.NArg())
	for _, arg := range flag.Args() {
		if src, ok, err := streamedInput(arg, *maxMem); err != nil {
			return err
		} else if ok {
			sources = append(sources, src)
			continue
		}
		c, err := loadOrGenerate(arg)
		if err != nil {
			return err
		}
		if !c.IsFT() {
			if !*doDecompose {
				return fmt.Errorf("circuit %q has non-FT gates; rerun with -decompose", arg)
			}
			c, err = leqa.Decompose(c)
			if err != nil {
				return err
			}
		}
		sources = append(sources, leqa.CircuitSource(c))
	}

	// The parameter matrix: grids × capacities × speeds, each axis falling
	// back to its single-value flag when not repeated.
	if len(grids) == 0 {
		grids = gridList{{Width: *width, Height: *height}}
	}
	if len(capacities) == 0 {
		capacities = intList{*nc}
	}
	if len(speeds) == 0 {
		speeds = floatList{*speed}
	}
	base := leqa.DefaultParams()
	base.TMove = *tmove
	paramSets := make([]leqa.Params, 0, len(grids)*len(capacities)*len(speeds))
	for _, g := range grids {
		for _, cap := range capacities {
			for _, v := range speeds {
				p := base.Clone()
				p.Grid = g
				p.ChannelCapacity = cap
				p.QubitSpeed = v
				paramSets = append(paramSets, p)
			}
		}
	}

	opt := leqa.EstimateOptions{Truncation: *truncation, DisableCongestion: *noCongestion}
	runner, err := leqa.NewRunner(paramSets[0], opt, *workers)
	if err != nil {
		return err
	}
	// -trace attaches a request-style trace to the run: the engine records
	// ingest/analyze/estimate spans (with gate counts)
	// exactly as leqad does per request, and the breakdown prints after the
	// results.
	var tr *trace.Trace
	if *traceRun {
		tr = trace.New(trace.Generate(), nil)
		ctx = trace.NewContext(ctx, tr)
	}
	cells, err := runner.SweepGridSources(ctx, sources, paramSets)
	if tr != nil {
		defer fmt.Fprint(os.Stderr, tr.Breakdown())
	}
	if err != nil {
		return err
	}

	switch {
	case *jsonOut:
		err = firstCellErr(cells, leqa.WriteResultsJSON(os.Stdout, cells))
	case *csvOut:
		err = firstCellErr(cells, leqa.WriteResultsCSV(os.Stdout, cells))
	case len(cells) == 1:
		sr := cells[0]
		if sr.Err != nil {
			return sr.Err
		}
		printDetailed(sr.Name, sr.Result, *verbose)
	default:
		err = printTable(cells, len(paramSets) > 1, *verbose)
	}
	if len(cells) > 1 || *verbose {
		st := leqa.ZoneModelCacheStats()
		fmt.Fprintf(os.Stderr, "zone-model cache: %s\n", st)
	}
	return err
}

// firstCellErr makes machine-readable runs exit non-zero when any cell
// failed (matching the table path): the emitter error wins, then the first
// per-cell error — which is still present in the emitted records.
func firstCellErr(cells []leqa.GridCell, emitErr error) error {
	if emitErr != nil {
		return emitErr
	}
	for _, cell := range cells {
		if cell.Err != nil {
			return fmt.Errorf("estimating %q: %w", cell.Name, cell.Err)
		}
	}
	return nil
}

func printDetailed(name string, res *leqa.EstimateResult, verbose bool) {
	fmt.Printf("circuit:            %s (%d qubits, %d operations)\n", name, res.Qubits, res.Operations)
	fmt.Printf("estimated latency:  %.6e s (%.1f µs)\n", res.EstimatedLatency/1e6, res.EstimatedLatency)
	if verbose {
		fmt.Printf("B (avg zone area):  %.3f ULBs (side %d)\n", res.AvgZoneArea, res.ZoneSide)
		fmt.Printf("d_uncong:           %.2f µs\n", res.DUncong)
		fmt.Printf("L_CNOT^avg:         %.2f µs\n", res.LCNOTAvg)
		fmt.Printf("L_g^avg:            %.2f µs\n", res.LOneQubitAvg)
		fmt.Printf("critical path:      %d CNOTs + %d one-qubit ops\n",
			res.CriticalCNOTs, res.CriticalOneQubit)
		for q := 1; q < len(res.ESq) && q <= 10; q++ {
			fmt.Printf("  E[S_%-2d] = %10.3f ULBs   d_%-2d = %8.1f µs\n", q, res.ESq[q], q, res.Dq[q])
		}
	}
}

func printTable(cells []leqa.GridCell, multiParams, verbose bool) error {
	if multiParams {
		fmt.Printf("%-20s %9s %4s %8s %7s %10s %14s %12s\n",
			"circuit", "fabric", "Nc", "v", "qubits", "ops", "estimate(s)", "L_CNOT(µs)")
	} else {
		fmt.Printf("%-20s %7s %10s %14s %12s\n", "circuit", "qubits", "ops", "estimate(s)", "L_CNOT(µs)")
	}
	var firstErr error
	for _, sr := range cells {
		if sr.Err != nil {
			fmt.Printf("%-20s error: %v\n", sr.Name, sr.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("estimating %q: %w", sr.Name, sr.Err)
			}
			continue
		}
		r := sr.Result
		if multiParams {
			fabric := fmt.Sprintf("%dx%d", sr.Params.Grid.Width, sr.Params.Grid.Height)
			fmt.Printf("%-20s %9s %4d %8g %7d %10d %14.4f %12.1f\n",
				sr.Name, fabric, sr.Params.ChannelCapacity, sr.Params.QubitSpeed,
				r.Qubits, r.Operations, r.EstimatedLatency/1e6, r.LCNOTAvg)
		} else {
			fmt.Printf("%-20s %7d %10d %14.4f %12.1f\n",
				sr.Name, r.Qubits, r.Operations, r.EstimatedLatency/1e6, r.LCNOTAvg)
		}
	}
	if verbose {
		for _, sr := range cells {
			if sr.Err != nil {
				continue
			}
			label := sr.Name
			if multiParams {
				label = fmt.Sprintf("%s @ %dx%d Nc=%d v=%g", sr.Name,
					sr.Params.Grid.Width, sr.Params.Grid.Height,
					sr.Params.ChannelCapacity, sr.Params.QubitSpeed)
			}
			fmt.Println()
			printDetailed(label, sr.Result, true)
		}
	}
	return firstErr
}

func loadOrGenerate(arg string) (*leqa.Circuit, error) {
	if _, err := os.Stat(arg); err == nil {
		return leqa.Load(arg)
	}
	return leqa.Generate(arg)
}

// streamedInput reports whether arg should take the streaming ingestion
// path — stdin ("-") always, .qc files above the materialization budget —
// and builds its lazy source.
func streamedInput(arg string, maxMem int64) (leqa.Source, bool, error) {
	if arg == "-" {
		return leqa.ReaderSource("stdin", os.Stdin, leqa.IngestOptions{}), true, nil
	}
	fi, err := os.Stat(arg)
	if err != nil || fi.Size() <= maxMem {
		return leqa.Source{}, false, nil
	}
	return leqa.FileSource(arg, leqa.IngestOptions{}), true, nil
}
