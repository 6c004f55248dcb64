//go:build ignore

// Command gentable2 prints Table 2's pinned columns for all 18 paper
// benchmarks, LEQA against the in-tree QSPR on the default fabric, as the
// CSV that TestTable2Golden compares exactly. Run it from the repository
// root to regenerate the golden file:
//
//	go run testdata/gentable2.go > testdata/table2.csv
package main

import (
	"fmt"
	"os"

	"repro/internal/benchgen"
	"repro/internal/experiments"
	"repro/internal/fabric"
)

func main() {
	rows, err := experiments.RunSuite(benchgen.Names(), fabric.Default(), 0, nil)
	if err == nil {
		err = experiments.WriteTable2CSV(os.Stdout, rows)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gentable2:", err)
		os.Exit(1)
	}
}
