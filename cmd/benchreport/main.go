// Command benchreport runs the estimator-side benchmark suite and emits a
// machine-readable JSON report — the perf-trajectory artifact committed as
// BENCH_<pr>.json and regenerated by CI, so every PR has a baseline to
// compare against instead of prose numbers in commit messages.
//
// Usage:
//
//	go run ./cmd/benchreport [-out BENCH_9.json] [-bench regex] [-benchtime 1s] [-full]
//	go run ./cmd/benchreport -compare old.json new.json [-threshold 10] [-filter regex]
//
// The tool shells out to `go test -bench` in the current directory (run it
// from the repository root), parses the standard benchmark output lines and
// writes one JSON object with ns/op, B/op and allocs/op per benchmark plus
// any custom metrics (speedup, err%). -full drops the -short flag so the
// detailed-mapper targets run too; the default stays estimator-only.
//
// -compare diffs two reports benchmark by benchmark: per-benchmark ns/op,
// B/op and allocs/op deltas, regressions past -threshold percent flagged
// with "REGRESSION". The exit status is 2 when any regression is flagged.
// -filter restricts which benchmarks count as blocking: names outside the
// filter still print their deltas but a regression there is annotated
// "(unfiltered)" and never fails the run — CI runs one blocking compare
// filtered to the warm-estimate suite and one informational full compare
// with continue-on-error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Report is the emitted JSON document.
type Report struct {
	// GeneratedAt is the RFC 3339 run timestamp.
	GeneratedAt string `json:"generatedAt"`
	// Go, OS, Arch and CPUs describe the machine the numbers came from —
	// without them a trajectory across PRs is uninterpretable.
	Go    string `json:"go"`
	OS    string `json:"os"`
	Arch  string `json:"arch"`
	CPUs  int    `json:"cpus"`
	GOMAX int    `json:"gomaxprocs"`
	// Bench and Benchtime echo the selection the run used.
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	Short     bool   `json:"short"`
	// Benchmarks holds one entry per benchmark line, in output order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	// Metrics carries custom b.ReportMetric values (speedup, err%).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// defaultBench selects the estimator-side perf targets: the warm-arena
// estimate path, the isolated critical-path sweeps (single- and
// multi-weight), the fused analysis front end, the memoized whole-estimate
// benchmark, the batched grid row with its result-memo cold/warm pair, the
// container comparison (text vs binary ingest, store-hit and by-ref grid
// cells) and the served cold-upload path (spooled .qc bodies through a
// warm Runner).
const defaultBench = "^(BenchmarkEstimateWarm|BenchmarkLongestPath|BenchmarkLongestPathMulti|BenchmarkAnalyze|BenchmarkAnalyzeStream|BenchmarkEstimate|BenchmarkIngestBinary|BenchmarkSweepGridBatched|BenchmarkColdUpload)$"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out       = flag.String("out", "BENCH_9.json", "output JSON path (- for stdout)")
		bench     = flag.String("bench", defaultBench, "benchmark selection regex passed to go test")
		benchtime = flag.String("benchtime", "1s", "per-benchmark budget passed to go test (e.g. 1s, 5x)")
		full      = flag.Bool("full", false, "drop -short: include the detailed-mapper benchmarks")
		pkg       = flag.String("pkg", ".", "package pattern holding the benchmarks")
		compare   = flag.Bool("compare", false, "diff two report files (old.json new.json) instead of running benchmarks")
		threshold = flag.Float64("threshold", 10, "ns/op regression threshold in percent for -compare")
		filter    = flag.String("filter", "", "-compare: only benchmarks matching this regex count as blocking regressions (empty = all)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two report files: old.json new.json")
		}
		var blocking *regexp.Regexp
		if *filter != "" {
			var err error
			if blocking, err = regexp.Compile(*filter); err != nil {
				return fmt.Errorf("-filter: %w", err)
			}
		}
		return compareReports(flag.Arg(0), flag.Arg(1), *threshold, blocking)
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-benchmem"}
	if !*full {
		args = append(args, "-short")
	}
	args = append(args, *pkg)
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintln(os.Stderr, "benchreport: go", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Go:          runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GOMAX:       runtime.GOMAXPROCS(0),
		Bench:       *bench,
		Benchtime:   *benchtime,
		Short:       !*full,
	}
	var err error
	if rep.Benchmarks, err = parseBenchOutput(stdout.String()); err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines matched %q — wrong -bench regex?", *bench)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	return nil
}

// loadReport reads one benchreport JSON document.
func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports prints a per-benchmark delta table between two report
// files and exits 2 when any benchmark's ns/op regressed past the
// threshold. Benchmarks present in only one report are listed but never
// flagged — a renamed or new benchmark is not a regression. A non-nil
// blocking regex scopes the failure: regressions on names it doesn't match
// are annotated but never fail the run.
func compareReports(oldPath, newPath string, thresholdPct float64, blocking *regexp.Regexp) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}

	w := os.Stdout
	fmt.Fprintf(w, "benchmark comparison: %s (%s, %d cpus) -> %s (%s, %d cpus)\n",
		oldPath, oldRep.GeneratedAt, oldRep.CPUs, newPath, newRep.GeneratedAt, newRep.CPUs)
	fmt.Fprintf(w, "%-40s %14s %14s %8s %9s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "B/op Δ", "allocs Δ")

	regressions := 0
	seen := make(map[string]bool, len(newRep.Benchmarks))
	for _, nb := range newRep.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14s %14.1f %8s %9s %10s  (new)\n",
				nb.Name, "-", nb.NsPerOp, "-", "-", "-")
			continue
		}
		mark := ""
		delta := pctDelta(ob.NsPerOp, nb.NsPerOp)
		if delta > thresholdPct {
			if blocking == nil || blocking.MatchString(nb.Name) {
				mark = "  REGRESSION"
				regressions++
			} else {
				mark = "  regression (unfiltered)"
			}
		}
		fmt.Fprintf(w, "%-40s %14.1f %14.1f %7.1f%% %8.1f%% %9.1f%%%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, delta,
			pctDelta(ob.BytesPerOp, nb.BytesPerOp),
			pctDelta(ob.AllocsPerOp, nb.AllocsPerOp), mark)
	}
	for _, ob := range oldRep.Benchmarks {
		if !seen[ob.Name] {
			fmt.Fprintf(w, "%-40s %14.1f %14s %8s %9s %10s  (removed)\n",
				ob.Name, ob.NsPerOp, "-", "-", "-", "-")
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed more than %.0f%% on ns/op\n", regressions, thresholdPct)
		os.Exit(2)
	}
	fmt.Fprintf(w, "\nno ns/op regressions past %.0f%%\n", thresholdPct)
	return nil
}

// pctDelta is the signed percent change from old to new; 0 when old is 0
// (nothing meaningful to report against a zero baseline).
func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// benchLine matches "BenchmarkName-8   	  12	 345 ns/op	..." — the name,
// iteration count, then metric/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseBenchOutput converts go test -bench text into Benchmark records.
// Metric fields come in "<value> <unit>" pairs; ns/op, B/op and allocs/op
// get dedicated fields, everything else lands in Metrics.
func parseBenchOutput(text string) ([]Benchmark, error) {
	var out []Benchmark
	for _, line := range strings.Split(text, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		b := Benchmark{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: metric %q: %w", line, fields[i], err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = val
			}
		}
		out = append(out, b)
	}
	return out, nil
}
