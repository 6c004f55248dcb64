// Command experiments regenerates the LEQA paper's tables and figures; the
// usage below is the experiment index.
//
// Usage:
//
//	experiments -table 1|2|3          physical params / accuracy / runtimes
//	experiments -figure 1|2|3|4|5     architecture & model illustrations
//	experiments -extrapolate          §4.2 scaling fit + Shor-1024 estimate
//	experiments -ablation <name>      truncation|congestion|placement|
//	                                  meeting|tsp|capacity|fabricsize
//	experiments -all                  everything (tables use -quick subset
//	                                  unless -full is set)
//	experiments -calibrate            tune 𝓋 on the small benchmarks first
//
// -full runs all 18 benchmarks including gf2^256mult (~1M operations);
// without it the suite is limited to benchmarks below 100k operations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchgen"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/leqa"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		tables      = flag.String("table", "", "regenerate Table N (1..3); comma list allowed, e.g. -table 2,3")
		figure      = flag.Int("figure", 0, "regenerate Figure N (1..5)")
		extrapolate = flag.Bool("extrapolate", false, "runtime scaling fit and Shor-1024 extrapolation")
		ablation    = flag.String("ablation", "", "truncation|congestion|placement|meeting|tsp|capacity|fabricsize")
		all         = flag.Bool("all", false, "run everything")
		full        = flag.Bool("full", false, "include the largest benchmarks (gf2^128mult, hwb200ps, gf2^256mult)")
		calibrate   = flag.Bool("calibrate", false, "calibrate 𝓋 against this repo's QSPR on the small benchmarks first")
		workers     = flag.Int("workers", 0, "suite worker-pool size (0 = GOMAXPROCS; use 1 for clean Table 3 runtime columns)")
		verbose     = flag.Bool("verbose", false, "print zone-model cache statistics after the run")
	)
	flag.Parse()
	defer func() {
		if *verbose {
			fmt.Fprintf(os.Stderr, "zone-model cache: %s\n", leqa.ZoneModelCacheStats())
		}
	}()
	w := os.Stdout
	p := fabric.Default()

	if *calibrate {
		tuned, err := calibrateParams(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "calibrated 𝓋 = %.6g (paper default 0.001)\n\n", tuned.QubitSpeed)
		p = tuned
	}

	names := suiteNames(*full)

	wantTable := map[string]bool{}
	for _, t := range strings.Split(*tables, ",") {
		if t = strings.TrimSpace(t); t != "" {
			wantTable[t] = true
		}
	}
	needRows := wantTable["2"] || wantTable["3"] || *extrapolate || *all
	var rows []experiments.Row
	if needRows {
		var err error
		rows, err = experiments.RunSuite(names, p, *workers, os.Stderr)
		if err != nil {
			return err
		}
		experiments.SortRowsByOps(rows)
	}

	did := false
	if wantTable["1"] || *all {
		experiments.Table1(w, p)
		fmt.Fprintln(w)
		did = true
	}
	if wantTable["2"] || *all {
		experiments.Table2(w, rows)
		fmt.Fprintln(w)
		did = true
	}
	if wantTable["3"] || *all {
		experiments.Table3(w, rows)
		fmt.Fprintln(w)
		did = true
	}
	if *extrapolate || *all {
		if err := experiments.Extrapolation(w, rows); err != nil {
			return err
		}
		fmt.Fprintln(w)
		did = true
	}
	if *figure == 1 || *all {
		experiments.Figure1(w)
		fmt.Fprintln(w)
		did = true
	}
	if *figure == 2 || *all {
		if err := experiments.Figure2(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		did = true
	}
	if *figure == 3 || *all {
		experiments.Figure3(w, p)
		fmt.Fprintln(w)
		did = true
	}
	if *figure == 4 || *all {
		experiments.Figure4(w, p)
		fmt.Fprintln(w)
		did = true
	}
	if *figure == 5 || *all {
		experiments.Figure5(w, p, 850)
		fmt.Fprintln(w)
		did = true
	}
	smallNames := []string{"8bitadder", "gf2^16mult", "ham15"}
	ablations := []string{*ablation}
	if *all {
		ablations = []string{"truncation", "congestion", "placement", "meeting", "tsp", "capacity", "fabricsize"}
	}
	for _, ab := range ablations {
		switch ab {
		case "":
		case "truncation":
			if err := experiments.AblationTruncation(w, "hwb20ps", p); err != nil {
				return err
			}
			fmt.Fprintln(w)
			did = true
		case "congestion":
			if err := experiments.AblationCongestion(w, smallNames, p); err != nil {
				return err
			}
			fmt.Fprintln(w)
			did = true
		case "placement":
			if err := experiments.AblationPlacement(w, smallNames, p); err != nil {
				return err
			}
			fmt.Fprintln(w)
			did = true
		case "meeting":
			if err := experiments.AblationMeeting(w, smallNames, p); err != nil {
				return err
			}
			fmt.Fprintln(w)
			did = true
		case "tsp":
			if err := experiments.AblationTSPBound(w, 1); err != nil {
				return err
			}
			fmt.Fprintln(w)
			did = true
		case "capacity":
			if err := experiments.AblationChannelCapacity(w, "gf2^16mult", p); err != nil {
				return err
			}
			fmt.Fprintln(w)
			did = true
		case "fabricsize":
			if err := experiments.FabricSizeSweep(w, "gf2^16mult", p, []int{15, 20, 30, 40, 60, 90, 120}); err != nil {
				return err
			}
			fmt.Fprintln(w)
			did = true
		default:
			return fmt.Errorf("unknown ablation %q", ab)
		}
	}
	if !did {
		flag.Usage()
	}
	return nil
}

func suiteNames(full bool) []string {
	if full {
		return benchgen.Names()
	}
	var out []string
	for _, name := range benchgen.Names() {
		if benchgen.Paper[name].Operations < 100000 {
			out = append(out, name)
		}
	}
	return out
}

func calibrateParams(p fabric.Params) (fabric.Params, error) {
	var train []*leqa.Circuit
	for _, name := range []string{"8bitadder", "gf2^16mult", "ham15", "hwb15ps", "gf2^50mult"} {
		c, err := leqa.GenerateFT(name)
		if err != nil {
			return p, err
		}
		train = append(train, c)
	}
	return leqa.Calibrate(train, p)
}
