package qodg_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/qodg"
)

// build returns c's QODG as the estimator builds it: through the fused
// analysis.
func build(t testing.TB, c *circuit.Circuit) *qodg.Graph {
	t.Helper()
	a, err := analysis.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	return a.QODG
}
