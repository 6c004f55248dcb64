package analysis_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ingest"
)

// qcBytes renders a circuit back to .qc text, the wire format the streaming
// equivalence tests push through ingest.
func qcBytes(t testing.TB, c *circuit.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := circuit.WriteQC(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pipeReader hides the Seeker of an in-memory source so the scanner takes
// the on-disk spool path, like a network body would.
type pipeReader struct{ io.Reader }

// TestAnalyzeStreamMatchesBatch is the tentpole equivalence check: across
// the paper benchmarks, streamed ingestion + AnalyzeStream must produce
// graphs topology-identical to the materialized Analyze and estimates that
// are bitwise identical — through the seekable rewind path, the spooled
// pipe path, and the in-memory CircuitStream adapter.
func TestAnalyzeStreamMatchesBatch(t *testing.T) {
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range suite(t) {
		c := ftCircuit(t, name)
		want, err := analysis.Analyze(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRes, err := est.EstimateAnalysis(want, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		qc := qcBytes(t, c)

		streams := map[string]analysis.GateStream{
			"seekable": ingest.NewScanner(bytes.NewReader(qc), c.Name, ingest.Options{}),
			"circuit":  analysis.NewCircuitStream(c),
		}
		// Spooling every benchmark writes hundreds of MB of temp files;
		// cover the pipe path on the smaller half of the suite.
		if len(qc) < 4<<20 {
			streams["spooled"] = ingest.NewScanner(pipeReader{bytes.NewReader(qc)}, c.Name, ingest.Options{})
		}
		for label, src := range streams {
			got, err := analysis.AnalyzeStream(src)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			if got.Name != c.Name || got.Qubits != want.Qubits || got.Operations != want.Operations || got.FT != want.FT {
				t.Fatalf("%s/%s: metadata %q/%d/%d/%v, want %q/%d/%d/%v", name, label,
					got.Name, got.Qubits, got.Operations, got.FT,
					want.Name, want.Qubits, want.Operations, want.FT)
			}
			assertQODGEqual(t, name+"/"+label, got.QODG, want.QODG)
			assertIIGEqual(t, name+"/"+label, got.IIG, want.IIG)
			gotRes, err := est.EstimateAnalysis(got, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("%s/%s: streamed estimate diverges from batch:\nstream: %.17g µs\nbatch:  %.17g µs",
					name, label, gotRes.EstimatedLatency, wantRes.EstimatedLatency)
			}
			if cl, ok := src.(io.Closer); ok {
				cl.Close()
			}
		}
	}
}

// TestArenaAnalyzeStream runs the arena-backed streamed analysis across
// circuits of different shapes through one recycled arena.
func TestArenaAnalyzeStream(t *testing.T) {
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ar := analysis.NewArena()
	fresh := make([]*core.Result, len(arenaSuite))
	arena := make([]*core.Result, len(arenaSuite))
	for i, name := range arenaSuite {
		c := ftCircuit(t, name)
		want, err := analysis.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		sc := ingest.NewScanner(bytes.NewReader(qcBytes(t, c)), c.Name, ingest.Options{})
		got, err := ar.AnalyzeStream(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertQODGEqual(t, name, got.QODG, want.QODG)
		assertIIGEqual(t, name, got.IIG, want.IIG)
		if fresh[i], err = est.EstimateAnalysis(want, nil); err != nil {
			t.Fatal(err)
		}
		// Estimate through the same arena while the analysis borrows it.
		if arena[i], err = est.EstimateAnalysis(got, ar); err != nil {
			t.Fatal(err)
		}
		sc.Close()
	}
	for i, name := range arenaSuite {
		if !reflect.DeepEqual(arena[i], fresh[i]) {
			t.Errorf("%s: arena streamed estimate diverges from fresh batch", name)
		}
	}
}

// TestEstimateStreamNonFT proves the FT-only counting pass fails with the
// error a non-FT analysis's estimate produces, names the first non-FT gate,
// and reports a wide non-FT gate as non-FT (not arity).
func TestEstimateStreamNonFT(t *testing.T) {
	est, err := core.New(fabric.Default(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("nonft", 3)
	c.Append(circuit.NewCNOT(0, 1), circuit.NewToffoli(0, 1, 2))
	nonFT := &analysis.Analysis{Name: c.Name, Qubits: 3, Operations: 2}
	_, wantErr := est.EstimateAnalysis(nonFT, nil)
	if wantErr == nil {
		t.Fatal("estimate of a non-FT analysis succeeded")
	}
	_, err = analysis.AnalyzeStreamContext(context.Background(), analysis.NewCircuitStream(c), nil, true)
	var nft *core.NonFTError
	if !errors.As(err, &nft) || err.Error() != wantErr.Error() || nft.Gate != 1 || nft.Type != circuit.Toffoli {
		t.Fatalf("streamed non-FT error = %v (%+v), want %q at gate 1", err, nft, wantErr)
	}
}

// TestAnalyzeStreamEdgeCases mirrors TestAnalyzeEdgeCases over the
// streaming path, including the empty circuit.
func TestAnalyzeStreamEdgeCases(t *testing.T) {
	cases := []*circuit.Circuit{
		circuit.New("empty", 1),
		circuit.New("idle", 4),
	}
	dup := circuit.New("dup-pairs", 3)
	dup.Append(
		circuit.NewCNOT(0, 1), circuit.NewCNOT(1, 0), circuit.NewCNOT(0, 1),
		circuit.NewSwap(1, 2), circuit.NewOneQubit(circuit.H, 2),
	)
	cases = append(cases, dup)
	for _, c := range cases {
		want, err := analysis.Analyze(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sc := ingest.NewScanner(bytes.NewReader(qcBytes(t, c)), c.Name, ingest.Options{})
		got, err := analysis.AnalyzeStream(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		assertQODGEqual(t, c.Name, got.QODG, want.QODG)
		assertIIGEqual(t, c.Name, got.IIG, want.IIG)
		sc.Close()
	}
}

// TestAnalyzeStreamRejectsWideGates mirrors the batch arity rejection.
func TestAnalyzeStreamRejectsWideGates(t *testing.T) {
	c := circuit.New("wide", 3)
	c.Append(circuit.NewToffoli(0, 1, 2))
	if _, err := analysis.AnalyzeStream(analysis.NewCircuitStream(c)); err == nil {
		t.Error("want error for 3-qubit gate")
	}
}

// cancelAfter cancels its context on the stream's scan number at, and
// counts every scan.
type cancelAfter struct {
	analysis.GateStream
	at, scans int
	cancel    context.CancelFunc
}

func (s *cancelAfter) Scan() bool {
	if s.scans++; s.scans == s.at {
		s.cancel()
	}
	return s.GateStream.Scan()
}

// TestCountingPassCheckOrder pins the order in which the FT-only counting
// pass meets its checks on a capped text stream: the context poll before
// any gate is read, the stream's parse error on gate MaxGates+1 before the
// gate cap, the cap before a non-FT gate, and a mid-stream cancellation
// within CtxCheckEvery gates.
func TestCountingPassCheckOrder(t *testing.T) {
	const maxGates = 8
	netlist := func(ftGates int, tail string) string {
		return ".v a b c\nBEGIN\n" + strings.Repeat("CNOT a b\n", ftGates) + tail + "END\n"
	}
	cases := []struct {
		name     string
		qc       string
		maxGates int
		cancelAt int // cancel on this scan; -1 cancels before the pass
		check    func(error) bool
		scans    int // the most scans the pass may make
	}{
		{"pre-cancelled", netlist(maxGates, ""), maxGates, -1,
			func(err error) bool { return errors.Is(err, context.Canceled) }, 0},
		{"syntax error beats the cap", netlist(maxGates, "bogus a\n"), maxGates, 0,
			func(err error) bool {
				var syn *circuit.SyntaxError
				return errors.As(err, &syn) && syn.Line == 2+maxGates+1 && syn.Col == 1
			}, maxGates + 1},
		{"cap beats a non-FT gate", netlist(maxGates, "TOF a b c\n"), maxGates, 0,
			func(err error) bool {
				var nft *analysis.NonFTError
				return errors.Is(err, ingest.ErrGateLimit) && !errors.As(err, &nft)
			}, maxGates + 1},
		{"non-FT gate under the cap", netlist(maxGates-1, "TOF a b c\n"), maxGates, 0,
			func(err error) bool {
				var nft *analysis.NonFTError
				return errors.As(err, &nft) && nft.Gate == maxGates-1 && nft.Type == circuit.Toffoli
			}, maxGates},
		{"cancelled mid-stream", netlist(3*analysis.CtxCheckEvery, ""), 0, 100,
			func(err error) bool { return errors.Is(err, context.Canceled) }, 100 + analysis.CtxCheckEvery},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAt < 0 {
				cancel()
			}
			sc := ingest.NewScanner(pipeReader{strings.NewReader(tc.qc)}, "order", ingest.Options{MaxGates: tc.maxGates})
			defer sc.Close()
			src := &cancelAfter{GateStream: sc, at: tc.cancelAt, cancel: cancel}
			a, err := analysis.AnalyzeStreamContext(ctx, src, nil, true)
			if a != nil || !tc.check(err) {
				t.Fatalf("err = %v", err)
			}
			if src.scans > tc.scans {
				t.Fatalf("%d scans, want at most %d", src.scans, tc.scans)
			}
		})
	}
}
