// Command leqabench is the end-to-end benchmark of the leqad estimation
// service. A run starts leqad in-process (server.New with the default
// configuration, behind httptest), drives it over loopback with leqa/client
// from a single closed-loop client, checks a seeded sample of the returned
// estimates against the plain estimator, and reports its metrics.
//
// Usage, from cmd/leqabench (run.sh builds and runs it from the repository
// root the same way):
//
//	go run . --workload design-sweep --seed 1 --seconds 50 --trace 0
//	go run . --seed 1 [--trace 1]    every workload, each in its own child process
//
// With a workload, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1. The
// human-readable report goes to standard error. See README.md for the
// workloads, the metrics and how to compare two commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	setupRuns   = 10              // set-ups per untraced run; setup_s is their median
	warmup      = 5 * time.Second // untimed: fills the store, memo and arena pools
	oracleCells = 128             // distinct cells the oracle recomputes per run
)

func main() {
	workload := flag.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 50, "measured seconds per run, as BENCHMARK.json's run_seconds")
	trace := flag.Int("trace", 0, "1 splits the measured time into thirds: an untraced window, a traced window and a replay; reports the per-layer ledger")
	out := flag.String("out", ".bench_build", "directory traced runs write <workload>.spans.jsonl to")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := func() error {
		switch {
		case flag.NArg() > 0:
			return fmt.Errorf("unexpected arguments %q", flag.Args())
		case *seconds < 1:
			return fmt.Errorf("--seconds %d: want at least 1", *seconds)
		case *trace != 0 && *trace != 1:
			return fmt.Errorf("--trace %d: want 0 or 1", *trace)
		case *workload == "":
			return runAll(ctx, *seed, *seconds, *trace, *out)
		}
		d := time.Duration(*seconds) * time.Second
		cfg := config{workload: *workload, seed: *seed, setups: setupRuns, warmup: warmup, measure: d, sample: oracleCells}
		if *trace == 1 {
			cfg.setups, cfg.measure, cfg.traced, cfg.replay, cfg.out = 1, d/3, d/3, d/3, *out
		}
		return runOne(ctx, cfg)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "leqabench:", err)
		os.Exit(1)
	}
}

// result is the JSON line a workload run ends its standard output with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(ctx context.Context, cfg config) error {
	rep, err := run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	printReport(os.Stderr, cfg, rep)
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	ms := rep.e2e
	if cfg.traced > 0 {
		ms = rep.layers
	}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d failed ops or wrong cells", cfg.workload, rep.failed)
	}
	return nil
}

// revision names the build's VCS revision, when the build recorded one.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// printReport writes the human-readable report of one run.
func printReport(w io.Writer, cfg config, rep *report) {
	fmt.Fprintf(w, "leqabench %s: seed=%d clients=%d cpus=%d gomaxprocs=%d go=%s rev=%s\n",
		rep.workload, cfg.seed, clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	fmt.Fprintf(w, "  ops=%d failed=%d wrong=%d cells checked=%d measured=%s p99=%.4gms (n=%d)\n",
		rep.attempted, rep.failed, rep.wrong, rep.checked, cfg.measure, rep.p99, rep.samples)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	errRate := float64(rep.failed-rep.wrong) / float64(rep.attempted)
	for _, m := range append(slices.Clip(rep.e2e), metric{"error_rate", errRate, "ratio"}, metric{"wrong_results", float64(rep.wrong), "count"}) {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", m.name, m.value, m.unit)
	}
	tw.Flush()
	lg := rep.ledger
	if lg == nil {
		return
	}
	fmt.Fprintf(w, "  ledger: %d traced ops, %d replayed; per op:\n", lg.ops, lg.replayed)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "  layer\tself_ms\tshare\tas measured\t\n")
	row := func(name string, v, raw float64) {
		fmt.Fprintf(tw, "  %s\t%.4f\t%.3f\t%.4f\t\n", name, v, ratio(v, lg.opMs), raw)
	}
	row("op", lg.opMs, lg.opMs)
	row("client", lg.opMs-lg.serveMs, lg.opMs-lg.serveMs)
	row("server.serve", lg.serveMs, lg.serveMs)
	for _, l := range layers {
		row("  "+l, lg.self[l], lg.raw[l])
	}
	row("  unattributed", lg.unattributedMs, lg.unattributedMs)
	tw.Flush()
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, m := range rep.layers {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", m.name, m.value, m.unit)
	}
	tw.Flush()
}

// runAll runs every workload in its own child process and tabulates their
// results; with trace 1 a traced run of each follows.
func runAll(ctx context.Context, seed int64, seconds, trace int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []int{0}
	if trace == 1 {
		modes = append(modes, 1)
	}
	var failed []string
	for _, mode := range modes {
		results := make([]*result, len(workloadNames))
		for i, w := range workloadNames {
			cmd := exec.CommandContext(ctx, exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(mode), "--out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %d): %v", w, mode, err))
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var r result
			if json.Unmarshal([]byte(lines[len(lines)-1]), &r) == nil {
				results[i] = &r
			}
		}
		printTable(os.Stdout, results)
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, "; "))
	}
	return nil
}

// printTable writes one row per metric and one column per workload.
func printTable(w io.Writer, results []*result) {
	var names []string
	units := map[string]string{}
	for _, r := range results {
		if r == nil {
			continue
		}
		for n, m := range r.Metrics {
			if _, ok := units[n]; !ok {
				names = append(names, n)
				units[n] = m.Unit
			}
		}
	}
	slices.Sort(names)
	var buf bytes.Buffer
	tw := tabwriter.NewWriter(&buf, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tunit\t%s\t\n", strings.Join(workloadNames, "\t"))
	row := func(name, unit string, v func(*result) string) {
		fmt.Fprintf(tw, "%s\t%s\t", name, unit)
		for _, r := range results {
			s := "-"
			if r != nil {
				s = v(r)
			}
			fmt.Fprintf(tw, "%s\t", s)
		}
		fmt.Fprintln(tw)
	}
	row("correct", "", func(r *result) string { return strconv.FormatBool(r.Correct) })
	row("attempted", "ops", func(r *result) string { return strconv.Itoa(r.Attempted) })
	for _, n := range names {
		row(n, units[n], func(r *result) string { return fmt.Sprintf("%.5g", r.Metrics[n].Value) })
	}
	tw.Flush()
	fmt.Fprintln(w, buf.String())
}
