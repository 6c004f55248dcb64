package leqa

import (
	"strings"
	"testing"
)

func TestGenerateEstimateMapFlow(t *testing.T) {
	c, err := GenerateFT("ham3")
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	est, err := Estimate(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if est.EstimatedLatency <= 0 {
		t.Fatalf("estimate = %v", est.EstimatedLatency)
	}
	act, err := MapActual(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if act.Latency <= 0 {
		t.Fatalf("actual = %v", act.Latency)
	}
}

func TestCompareHam3(t *testing.T) {
	c, err := GenerateFT("ham3")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Name != "ham3" || cmp.Operations != 19 || cmp.Qubits != 3 {
		t.Errorf("row = %+v", cmp)
	}
	if cmp.ErrorPct < 0 || cmp.ErrorPct > 50 {
		t.Errorf("error %.2f%% out of plausible range", cmp.ErrorPct)
	}
	if cmp.MapRuntime <= 0 || cmp.EstRuntime <= 0 {
		t.Error("runtimes not recorded")
	}
}

func TestDecomposeFacade(t *testing.T) {
	raw, err := Generate("ham3")
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Decompose(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ft.IsFT() {
		t.Error("Decompose output not FT")
	}
}

func TestParseSaveLoadRoundTrip(t *testing.T) {
	c, err := Parse(strings.NewReader(".v a b\nBEGIN\nt2 a b\nH a\nEND\n"), "mini")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(dir+"/mini.qc", c); err != nil {
		t.Fatal(err)
	}
	c2, err := Load(dir + "/mini.qc")
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != 2 {
		t.Errorf("round trip gates = %d", c2.NumGates())
	}
}

func TestBuildGraphs(t *testing.T) {
	c, _ := GenerateFT("ham3")
	a, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if g := a.QODG; g.NumNodes() != 21 {
		t.Errorf("QODG nodes = %d, want 21", g.NumNodes())
	}
	if ig := a.IIG; ig.Q != 3 {
		t.Errorf("IIG Q = %d", ig.Q)
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 18 {
		t.Fatalf("benchmark list has %d entries", len(names))
	}
	if names[0] != "8bitadder" {
		t.Errorf("first benchmark = %q (Table 3 order)", names[0])
	}
	if names[len(names)-1] != "gf2^256mult" {
		t.Errorf("last benchmark = %q", names[len(names)-1])
	}
}

func TestCalibrateImprovesOrHolds(t *testing.T) {
	train := make([]*Circuit, 0, 2)
	for _, name := range []string{"8bitadder", "ham3"} {
		c, err := GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		train = append(train, c)
	}
	p := DefaultParams()
	meanErr := func(q Params) float64 {
		sum := 0.0
		for _, c := range train {
			cmp, err := CompareWith(c, q, EstimateOptions{}, MapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sum += cmp.ErrorPct
		}
		return sum / float64(len(train))
	}
	before := meanErr(p)
	tuned, err := Calibrate(train, p)
	if err != nil {
		t.Fatal(err)
	}
	after := meanErr(tuned)
	if after > before+0.5 {
		t.Errorf("calibration worsened mean error: %.2f%% -> %.2f%%", before, after)
	}
	if tuned.QubitSpeed <= 0 {
		t.Errorf("calibrated v = %v", tuned.QubitSpeed)
	}
}

func TestCalibrateRejectsEmpty(t *testing.T) {
	if _, err := Calibrate(nil, DefaultParams()); err == nil {
		t.Error("want error for empty training set")
	}
}

func TestEstimateWithAblations(t *testing.T) {
	c, _ := GenerateFT("8bitadder")
	p := DefaultParams()
	def, err := EstimateWith(c, p, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noCong, err := EstimateWith(c, p, EstimateOptions{DisableCongestion: true})
	if err != nil {
		t.Fatal(err)
	}
	if noCong.EstimatedLatency > def.EstimatedLatency+1e-9 {
		t.Error("congestion ablation increased the estimate")
	}
}
