// Benchmark harness: one testing.B target per table/figure of the LEQA
// paper (cmd/experiments prints the same tables; its package doc lists
// them).
//
//	go test -bench=. -benchmem            # quick set
//	go test -bench=Table -benchtime=1x    # exactly one run per benchmark row
//	go test -bench=Full -benchtime=1x     # all 18 rows incl. gf2^256mult
//
// BenchmarkTable2/LEQA/* and /QSPR/* time the two tools per workload (the
// Table 3 runtime columns); the accuracy comparison itself is asserted in
// TestTable2Accuracy below so `go test` alone validates the reproduction.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/ingest"
	"repro/internal/qcbin"
	"repro/internal/qodg"
	"repro/internal/qspr"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/zonemodel"
	"repro/leqa"
)

// skipHeavyInShort gates the QSPR-backed benchmarks out of the CI bench
// smoke run (`go test -run '^$' -bench . -benchtime 1x -short`): detailed
// mapping of the large rows takes minutes to hours, which the smoke step
// only needs to prove compiles-and-runs for the estimator-side targets.
func skipHeavyInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("detailed-mapper benchmark skipped in -short mode")
	}
}

// quickSuite is the benchmark subset used by default bench runs; the full
// 18-row suite (incl. the 983k-op gf2^256mult) runs under -bench=Full.
var quickSuite = []string{
	"8bitadder", "gf2^16mult", "hwb15ps", "ham15", "hwb20ps", "mod1048576adder",
}

// ftCache avoids regenerating circuits across benchmark iterations.
var ftCache = map[string]*circuit.Circuit{}

func ftCircuit(tb testing.TB, name string) *circuit.Circuit {
	if c, ok := ftCache[name]; ok {
		return c
	}
	c, err := benchgen.GenerateFT(name)
	if err != nil {
		tb.Fatal(err)
	}
	ftCache[name] = c
	return c
}

// estimateCircuit is one estimate end to end on a materialized circuit:
// Analyze (into ar when non-nil), then EstimateAnalysis.
func estimateCircuit(est *core.Estimator, c *circuit.Circuit, ar *analysis.Arena) (*core.Result, error) {
	var a *analysis.Analysis
	var err error
	if ar != nil {
		a, err = ar.Analyze(c)
	} else {
		a, err = analysis.Analyze(c)
	}
	if err != nil {
		return nil, err
	}
	return est.EstimateAnalysis(a, ar)
}

// qodgOf is c's dependency graph as the estimator builds it.
func qodgOf(b *testing.B, c *circuit.Circuit) *qodg.Graph {
	a, err := analysis.Analyze(c)
	if err != nil {
		b.Fatal(err)
	}
	return a.QODG
}

// BenchmarkTable2 times LEQA (the estimator) per benchmark — the left half
// of Table 3's runtime columns and the inputs to Table 2.
func BenchmarkTable2(b *testing.B) {
	p := fabric.Default()
	for _, name := range quickSuite {
		c := ftCircuit(b, name)
		b.Run("LEQA/"+sanitize(name), func(b *testing.B) {
			est, err := core.New(p, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := estimateCircuit(est, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("QSPR/"+sanitize(name), func(b *testing.B) {
			skipHeavyInShort(b)
			m, err := qspr.New(p, qspr.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Map(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Full runs both tools over ALL 18 paper benchmarks and
// reports the speedup per row as a custom metric — the full Table 3.
// Use -benchtime=1x; the largest row maps ~1M operations.
func BenchmarkTable3Full(b *testing.B) {
	skipHeavyInShort(b)
	p := fabric.Default()
	for _, name := range benchgen.Names() {
		name := name
		b.Run(sanitize(name), func(b *testing.B) {
			c := ftCircuit(b, name)
			for i := 0; i < b.N; i++ {
				row, err := experiments.RunCircuit(c, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(row.Speedup, "speedup")
				b.ReportMetric(row.ErrorPct, "err%")
			}
		})
	}
}

// BenchmarkEstimate measures one estimate on a large (400×400) fabric in
// three configurations: the production path with the zone-model memo warm,
// the histogram-collapsed model computed cold every iteration, and the
// pre-refactor O(kmax·a·b) per-cell scan as the baseline the histogram path
// is required to beat (≥2×).
func BenchmarkEstimate(b *testing.B) {
	p := fabric.Default()
	p.Grid = fabric.Grid{Width: 400, Height: 400}
	c := ftCircuit(b, "gf2^64mult")
	est, err := core.New(p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// One warm-up estimate yields the model key this workload resolves to.
	res, err := estimateCircuit(est, c, nil)
	if err != nil {
		b.Fatal(err)
	}
	kmax := len(res.ESq) - 1
	key := zonemodel.Key{
		Grid:        p.Grid,
		ZoneSide:    res.ZoneSide,
		Q:           res.Qubits,
		Kmax:        kmax,
		Capacity:    p.ChannelCapacity,
		DUncongBits: math.Float64bits(res.DUncong),
	}

	b.Run("Memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := estimateCircuit(est, c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HistogramCold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := zonemodel.Compute(key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CellScan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			esq := zonemodel.ExpectedSurfacesCellScan(p.Grid, key.ZoneSide, key.Q, kmax)
			if esq[1] < 0 {
				b.Fatal("impossible")
			}
		}
	})
}

// BenchmarkEstimateWarm measures repeated estimates of one circuit — the
// steady-state leqad worker path — with the per-estimate scratch drawn from
// one reusable arena (graph build, weights and longest-path state all
// recycled; allocs/op collapses to the handful of escaping Result fields)
// against the fresh-allocation baseline.
func BenchmarkEstimateWarm(b *testing.B) {
	p := fabric.Default()
	names := []string{"gf2^128mult"}
	if !testing.Short() {
		names = append(names, "gf2^256mult")
	}
	for _, name := range names {
		c := ftCircuit(b, name)
		est, err := core.New(p, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("Arena/"+sanitize(name), func(b *testing.B) {
			ar := analysis.NewArena()
			if _, err := estimateCircuit(est, c, ar); err != nil {
				b.Fatal(err) // warm the arena outside the timed loop
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := estimateCircuit(est, c, ar); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Fresh/"+sanitize(name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := estimateCircuit(est, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLongestPath isolates the critical-path phase of an estimate:
// the serial pull over a one-column gate-type table, the single estimate's
// path.
func BenchmarkLongestPath(b *testing.B) {
	names := []string{"gf2^128mult"}
	if !testing.Short() {
		names = append(names, "gf2^256mult")
	}
	tab := make([]float64, int(circuit.CNOT)+1) // row 0 weighs the pseudo-nodes: 0
	for t := circuit.X; t < circuit.CNOT; t++ {
		tab[t] = 100.25
	}
	tab[circuit.CNOT] = 1000.5
	for _, name := range names {
		g := qodgOf(b, ftCircuit(b, name))
		b.Run("Serial/"+sanitize(name), func(b *testing.B) {
			s := new(qodg.PathScratch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.LongestPath(tab, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLongestPathMulti isolates the multi-weight kernel against its
// per-column baseline: K columns relaxed in one adjacency traversal (SoA
// predecessor and per-qubit distance rows) versus K one-column sweeps that
// each stream the graph again. Multi reads each node's K weights from a
// packed per-node slab (LongestPathMultiStrided, the kernel cmd/leqabench
// replays); ByType reads them from a (gate type × column) table, the
// estimator's batched path, with no per-node weights at all; PerColumn
// runs LongestPath once per column of the same table. One traversal saves
// the K-1 adjacency re-reads but touches K-wide rows per node, so whether
// it beats PerColumn on one core depends on the host's memory system:
// BENCH_9 (1 CPU) has Multi/K6 at 2.17× PerColumn, while on a 2-CPU host
// at -cpu 1 the two were level (16.5–18.1 vs 16.7–17.2 ms).
func BenchmarkLongestPathMulti(b *testing.B) {
	g := qodgOf(b, ftCircuit(b, "gf2^128mult"))
	const rows = int(circuit.CNOT) + 1 // row 0 weighs the pseudo-nodes: 0
	for _, k := range []int{2, 6} {
		tab := make([]float64, rows*k)
		cols := make([][]float64, k) // column c of tab as a one-column table
		for col := range cols {
			scale := 1 + float64(col)*0.25
			cols[col] = make([]float64, rows)
			for t := circuit.X; t < circuit.CNOT; t++ {
				cols[col][t] = 100.25 * scale
			}
			cols[col][circuit.CNOT] = 1000.5 * scale
			for t, w := range cols[col] {
				tab[t*k+col] = w
			}
		}
		wm := make([]float64, g.NumNodes()*k)
		for v, node := range g.Nodes {
			copy(wm[v*k:(v+1)*k], tab[int(node.Op.Type)*k:])
		}
		b.Run(fmt.Sprintf("Multi/K%d", k), func(b *testing.B) {
			s := new(qodg.PathScratch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.LongestPathMultiStrided(wm, k, s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ByType/K%d", k), func(b *testing.B) {
			s := new(qodg.PathScratch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.LongestPathMultiByType(tab, k, s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("PerColumn/K%d", k), func(b *testing.B) {
			s := new(qodg.PathScratch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, col := range cols {
					if _, err := g.LongestPath(col, s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSweep runs the estimator over the quick suite sequentially and
// through the leqa.Runner worker pool — the fleet-of-scenarios path.
func BenchmarkSweep(b *testing.B) {
	p := fabric.Default()
	circuits := make([]*circuit.Circuit, len(quickSuite))
	for i, name := range quickSuite {
		circuits[i] = ftCircuit(b, name)
	}
	b.Run("Sequential", func(b *testing.B) {
		est, err := core.New(p, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			for _, c := range circuits {
				if _, err := estimateCircuit(est, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Pool", func(b *testing.B) {
		runner, err := leqa.NewRunner(p, core.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			results, err := runner.SweepGridSources(ctx, leqa.CircuitSources(circuits), []leqa.Params{p})
			if err != nil {
				b.Fatal(err)
			}
			for _, sr := range results {
				if sr.Err != nil {
					b.Fatal(sr.Err)
				}
			}
		}
	})
}

// BenchmarkAnalyze measures the circuit-analysis front end on a
// Shor-scale workload (gf2^128mult, 246k FT operations): the fused build
// (QODG node records plus the IIG's CSR rows) into fresh graphs, and the
// same build into one arena reused across iterations, so its buffers stay
// warm. The first sub-benchmark keeps its FusedCSR name so reports stay
// comparable across BENCH_*.json files.
func BenchmarkAnalyze(b *testing.B) {
	c := ftCircuit(b, "gf2^128mult")
	b.Run("FusedCSR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Analyze(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Arena", func(b *testing.B) {
		b.ReportAllocs()
		ar := analysis.NewArena()
		for i := 0; i < b.N; i++ {
			if _, err := ar.Analyze(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyzeStream compares the streaming ingestion front end
// (internal/ingest + analysis.AnalyzeStream, the beyond-memory path)
// against the materialized parse+analyze pipeline on rendered .qc
// netlists of two sizes. Each sub-benchmark reports a retained-B metric:
// the live-heap bytes one analysis product pins after GC. The streamed
// path's retained and per-op bytes exclude the materialized []Gate and its
// per-gate operand slices entirely — its analysis product is the 16 B node
// records per gate (up to twice that in slab capacity, which grows by
// doubling) plus the IIG, and it reads one chunk at a time — which is the
// streaming path's peak-memory claim in measurable form.
func BenchmarkAnalyzeStream(b *testing.B) {
	for _, name := range []string{"gf2^32mult", "gf2^128mult"} {
		c := ftCircuit(b, name)
		var buf bytes.Buffer
		if err := circuit.WriteQC(&buf, c); err != nil {
			b.Fatal(err)
		}
		qc := buf.Bytes()
		b.Run("Materialized/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(qc)))
			for i := 0; i < b.N; i++ {
				parsed, err := circuit.ParseQC(bytes.NewReader(qc), name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := analysis.Analyze(parsed); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(retainedBytes(b, func() (any, error) {
				parsed, err := circuit.ParseQC(bytes.NewReader(qc), name)
				if err != nil {
					return nil, err
				}
				a, err := analysis.Analyze(parsed)
				// The materialized flow holds both the circuit and its
				// analysis.
				return []any{parsed, a}, err
			}), "retained-B")
		})
		b.Run("Streamed/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(qc)))
			for i := 0; i < b.N; i++ {
				sc := ingest.NewScanner(bytes.NewReader(qc), name, ingest.Options{})
				if _, err := analysis.AnalyzeStream(sc); err != nil {
					b.Fatal(err)
				}
				sc.Close()
			}
			b.StopTimer()
			b.ReportMetric(retainedBytes(b, func() (any, error) {
				sc := ingest.NewScanner(bytes.NewReader(qc), name, ingest.Options{})
				defer sc.Close()
				a, err := analysis.AnalyzeStream(sc)
				return a, err
			}), "retained-B")
		})
	}
}

// BenchmarkIngestBinary compares parse+analyze across the netlist
// containers on gf2^128mult — textual .qc, binary .qcb and gzipped .qcb,
// all through the magic-byte sniffing entry point — then a by-reference
// estimate from a stored analysis (no ingest at all) against the cold cell
// that pays ingest+analyze+estimate every time. The .qcb container parses
// and analyzes about 1.7× faster than text. BenchmarkCircuitPut times the
// uploads that fill a store.
func BenchmarkIngestBinary(b *testing.B) {
	const name = "gf2^128mult"
	c := ftCircuit(b, name)
	var qcBuf bytes.Buffer
	if err := circuit.WriteQC(&qcBuf, c); err != nil {
		b.Fatal(err)
	}
	var qcbBuf bytes.Buffer
	if err := qcbin.EncodeCircuit(&qcbBuf, c); err != nil {
		b.Fatal(err)
	}
	var gzBuf bytes.Buffer
	zw := gzip.NewWriter(&gzBuf)
	if _, err := zw.Write(qcbBuf.Bytes()); err != nil {
		b.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		b.Fatal(err)
	}

	// Arena-backed analysis for every container, exactly like the runner's
	// pooled workers: the recycled buffers take allocator and GC noise out
	// of the shared build cost, so the containers' parse work — the thing
	// under comparison — dominates each number.
	analyze := func(label string, data []byte) {
		b.Run(label, func(b *testing.B) {
			ar := analysis.NewArena()
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				sc, err := ingest.NewAutoStream(bytes.NewReader(data), name, ingest.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ar.AnalyzeStream(sc); err != nil {
					b.Fatal(err)
				}
				sc.Close()
			}
		})
	}
	analyze("AnalyzeQC", qcBuf.Bytes())
	analyze("AnalyzeQCB", qcbBuf.Bytes())
	analyze("AnalyzeQCBGz", gzBuf.Bytes())

	ctx := context.Background()
	params := []leqa.Params{leqa.DefaultParams()}
	qcbSource := func() []leqa.Source {
		return []leqa.Source{leqa.ReaderSource(name, bytes.NewReader(qcbBuf.Bytes()), leqa.IngestOptions{})}
	}
	gridCell := func(b *testing.B, r *leqa.Runner, src func() []leqa.Source) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cells, err := r.SweepGridSources(ctx, src(), params)
			if err != nil {
				b.Fatal(err)
			}
			if cells[0].Err != nil {
				b.Fatal(cells[0].Err)
			}
		}
	}

	cold, err := leqa.NewRunner(params[0], leqa.EstimateOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ColdCellQCB", func(b *testing.B) { gridCell(b, cold, qcbSource) })

	warm, err := leqa.NewRunner(params[0], leqa.EstimateOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	st, err := leqa.NewAnalysisStore(leqa.AnalysisStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := st.GetOrAnalyze(analysis.NewCircuitStream(c)); err != nil {
		b.Fatal(err)
	}
	digest, err := leqa.CircuitDigest(c)
	if err != nil {
		b.Fatal(err)
	}
	a, err := st.Get(digest)
	if err != nil {
		b.Fatal(err)
	}
	byRef := func() []leqa.Source { return []leqa.Source{leqa.AnalysisSource(name, a)} }
	b.Run("ByRefCell", func(b *testing.B) { gridCell(b, warm, byRef) })
}

// BenchmarkCircuitPut times what PUT /v1/circuits runs, on three circuits:
// a non-seekable body sniffed by ingest.NewAutoStream, then
// store.GetOrAnalyzeOutcome, which analyzes it in one pass and takes the
// digest from the analysis. Miss rows upload into an empty store and Hit
// rows re-upload a stored circuit, each as a .qc and a .qcb body: a hit
// pays the same pass as a miss, and is spared only the store's insert.
// DiskHitQCB rows re-upload a circuit whose image is on disk but not in
// memory (the memory tier purged), as after a restart: the image is
// checked against the upload's analysis, not analyzed again. DiskHit rows
// rebuild a stored circuit from its disk image, as a by-ref lookup does
// after a restart (store.Get with the memory tier purged).
func BenchmarkCircuitPut(b *testing.B) {
	ctx := context.Background()
	for _, name := range []string{"hwb100ps", "gf2^64mult", "gf2^128mult"} {
		c := ftCircuit(b, name)
		var qc, qcb bytes.Buffer
		if err := circuit.WriteQC(&qc, c); err != nil {
			b.Fatal(err)
		}
		if err := qcbin.EncodeCircuit(&qcb, c); err != nil {
			b.Fatal(err)
		}
		put := func(b *testing.B, st *store.Store, body []byte, want store.Outcome) {
			sc, err := ingest.NewAutoStream(pipeReader{bytes.NewReader(body)}, name, ingest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			_, _, outcome, err := st.GetOrAnalyzeOutcome(ctx, sc)
			sc.Close()
			if err != nil || outcome != want {
				b.Fatalf("upload = %v, %v; want %v", outcome, err, want)
			}
		}
		newStore := func(b *testing.B, opt store.Options) *store.Store {
			st, err := store.New(opt)
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		for _, body := range []struct {
			label string
			data  []byte
		}{{"QC", qc.Bytes()}, {"QCB", qcb.Bytes()}} {
			b.Run(sanitize(name)+"/Miss"+body.label, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body.data)))
				for i := 0; i < b.N; i++ {
					put(b, newStore(b, store.Options{}), body.data, store.OutcomeMiss)
				}
			})
			b.Run(sanitize(name)+"/Hit"+body.label, func(b *testing.B) {
				st := newStore(b, store.Options{})
				put(b, st, body.data, store.OutcomeMiss)
				b.ReportAllocs()
				b.SetBytes(int64(len(body.data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					put(b, st, body.data, store.OutcomeHit)
				}
			})
		}
		b.Run(sanitize(name)+"/DiskHitQCB", func(b *testing.B) {
			st := newStore(b, store.Options{Dir: b.TempDir()})
			put(b, st, qcb.Bytes(), store.OutcomeMiss)
			b.ReportAllocs()
			b.SetBytes(int64(qcb.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Purge()
				put(b, st, qcb.Bytes(), store.OutcomeDiskHit)
			}
		})
		b.Run(sanitize(name)+"/DiskHit", func(b *testing.B) {
			st := newStore(b, store.Options{Dir: b.TempDir()})
			_, digest, err := st.GetOrAnalyze(analysis.NewCircuitStream(c))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Purge()
				if _, outcome, err := st.GetOutcome(digest); err != nil || outcome != store.OutcomeDiskHit {
					b.Fatalf("lookup = %v, %v; want a disk hit", outcome, err)
				}
			}
		})
	}
}

// coldUploads are cmd/leqabench's cold-upload circuits: the paper's
// mid-size benchmarks, up to hwb100ps's 67,735 gates.
var coldUploads = []string{"hwb50ps", "gf2^50mult", "mod1048576adder", "gf2^64mult", "hwb100ps"}

// pipeReader hides a reader's Seek, as an HTTP request body has none.
type pipeReader struct{ io.Reader }

// BenchmarkColdUpload is leqad's raw-upload path in the warm suite: one op
// estimates the five cold-upload circuits as non-seekable .qc bodies
// through one warm Runner.EstimateStreamWith, each sniffed, spooled,
// parsed once, analyzed and estimated at K=1 as the upload handler does
// (BenchmarkIngestBinary/AnalyzeQC reads a seekable body, which never
// spools).
func BenchmarkColdUpload(b *testing.B) {
	bodies := make([][]byte, len(coldUploads))
	total := 0
	for i, name := range coldUploads {
		var buf bytes.Buffer
		if err := circuit.WriteQC(&buf, ftCircuit(b, name)); err != nil {
			b.Fatal(err)
		}
		bodies[i] = buf.Bytes()
		total += buf.Len()
	}
	p := leqa.DefaultParams()
	r, err := leqa.NewRunner(p, leqa.EstimateOptions{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	round := func() {
		for i, body := range bodies {
			st, err := ingest.NewAutoStream(pipeReader{bytes.NewReader(body)}, coldUploads[i], ingest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.EstimateStreamWith(ctx, st, p); err != nil {
				b.Fatal(err)
			}
			st.Close()
		}
	}
	round() // warm the runner's arena and the zone-model memo
	b.ReportAllocs()
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// retainedBytes measures the live-heap delta pinned by build's result: GC,
// baseline, build, GC, re-measure. Single-shot and approximate (concurrent
// allocator noise moves it by a few KiB), but the []Gate-retention gap it
// exists to show is tens of MiB.
func retainedBytes(b *testing.B, build func() (any, error)) float64 {
	b.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	v, err := build()
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(v)
	if m1.HeapAlloc <= m0.HeapAlloc {
		return 0
	}
	return float64(m1.HeapAlloc - m0.HeapAlloc)
}

// BenchmarkSweepGrid runs the quick suite × 3 parameter sets through the
// cross-product engine — the fabric-sizing batch path — against the naive
// per-cell Estimate loop that rebuilds the graphs for every cell.
func BenchmarkSweepGrid(b *testing.B) {
	circuits := make([]*circuit.Circuit, len(quickSuite))
	for i, name := range quickSuite {
		circuits[i] = ftCircuit(b, name)
	}
	p1 := fabric.Default()
	p2 := fabric.Default()
	p2.Grid = fabric.Grid{Width: 90, Height: 90}
	p3 := fabric.Default()
	p3.ChannelCapacity = 2
	paramSets := []fabric.Params{p1, p2, p3}

	b.Run("Grid", func(b *testing.B) {
		runner, err := leqa.NewRunner(p1, core.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cells, err := runner.SweepGridSources(ctx, leqa.CircuitSources(circuits), paramSets)
			if err != nil {
				b.Fatal(err)
			}
			for _, cell := range cells {
				if cell.Err != nil {
					b.Fatal(cell.Err)
				}
			}
		}
	})
	b.Run("SequentialCells", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range paramSets {
				est, err := core.New(p, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range circuits {
					if _, err := estimateCircuit(est, c, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkSweepGridBatched times the batched estimate phase of one grid
// row — 1 circuit × 6 parameter columns, the §4.2 design-space shape — with
// the analysis and the zone-model memo warmed outside the loop so the
// measurement isolates what the batch fuses: per-column EstimateAnalysis
// (K one-column batches: K weight fills + K critical-path sweeps) against
// one EstimateAnalysisBatch call (one type table + one multi-weight
// traversal). gf2^128mult's critical path holds 3,321 of its 246,143
// nodes, so its row barely pays for path recovery; LongPath/hwb100ps
// times an 8-column row of a circuit whose path holds about half of its
// 68k nodes, where recovery rivals relaxation. MemoCold/MemoWarm time a
// whole by-ref grid cell without and with a result-memo hit; the warm cell
// skips analyze and estimate entirely.
func BenchmarkSweepGridBatched(b *testing.B) {
	muts := []func(*fabric.Params){
		func(p *fabric.Params) {},
		func(p *fabric.Params) { p.Grid = fabric.Grid{Width: 90, Height: 90} },
		func(p *fabric.Params) { p.ChannelCapacity = 2 },
		func(p *fabric.Params) { p.QubitSpeed = 0.002 },
		func(p *fabric.Params) { p.TMove = 150 },
		func(p *fabric.Params) { p.DCNOT = 6000 },
		func(p *fabric.Params) { p.Grid = fabric.Grid{Width: 120, Height: 120} },
		func(p *fabric.Params) { p.ChannelCapacity = 6 },
	}
	// warmRow analyzes c and builds the estimators of its first cols
	// columns, running each once to warm the zone-model memo.
	warmRow := func(c *circuit.Circuit, cols int) (*analysis.Analysis, []fabric.Params, []*core.Estimator) {
		a, err := analysis.Analyze(c)
		if err != nil {
			b.Fatal(err)
		}
		paramSets := make([]fabric.Params, cols)
		ests := make([]*core.Estimator, cols)
		for j, mut := range muts[:cols] {
			p := fabric.Default()
			mut(&p)
			paramSets[j] = p
			if ests[j], err = core.New(p, core.Options{}); err != nil {
				b.Fatal(err)
			}
			if _, err := ests[j].EstimateAnalysis(a, nil); err != nil {
				b.Fatal(err)
			}
		}
		return a, paramSets, ests
	}
	batched := func(a *analysis.Analysis, ests []*core.Estimator) func(*testing.B) {
		return func(b *testing.B) {
			ar := analysis.NewArena()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := core.EstimateAnalysisBatch(ests, a, ar)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	c := ftCircuit(b, "gf2^128mult")
	a, paramSets, ests := warmRow(c, 6)

	b.Run("Batched", batched(a, ests))
	b.Run("PerColumn", func(b *testing.B) {
		ar := analysis.NewArena()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, est := range ests {
				if _, err := est.EstimateAnalysis(a, ar); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	la, _, lests := warmRow(ftCircuit(b, "hwb100ps"), 8)
	b.Run("LongPath/hwb100ps", batched(la, lests))

	digest, err := leqa.CircuitDigest(c)
	if err != nil {
		b.Fatal(err)
	}
	src := leqa.AnalysisSource(c.Name, a)
	src.Digest = digest
	runGrid := func(b *testing.B, r *leqa.Runner) {
		cells, err := r.SweepGridSources(context.Background(), []leqa.Source{src}, paramSets)
		if err != nil {
			b.Fatal(err)
		}
		for _, cell := range cells {
			if cell.Err != nil {
				b.Fatal(cell.Err)
			}
		}
	}
	b.Run("MemoCold", func(b *testing.B) {
		r, err := leqa.NewRunner(fabric.Default(), core.Options{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		memo := leqa.NewResultMemo(0)
		r.SetResultMemo(memo)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			memo.Purge() // every iteration recomputes all six columns
			b.StartTimer()
			runGrid(b, r)
		}
	})
	b.Run("MemoWarm", func(b *testing.B) {
		r, err := leqa.NewRunner(fabric.Default(), core.Options{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.SetResultMemo(leqa.NewResultMemo(0))
		runGrid(b, r) // fill the memo outside the timed loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runGrid(b, r)
		}
	})
}

// BenchmarkSweepGridRunner times a whole grid through a 2-worker Runner:
// by-ref analyses of leqabench's design-sweep circuits, gf2^64mult,
// hwb100ps, mod1048576adder and gf2^100mult in that order, × 8 parameter
// columns, with no result memo, so every cell is estimated. gf2^100mult,
// the largest row by far, comes last in input order and starts first, so
// the two workers finish together rather than one idling while the other
// runs it. first-row-ms and last-row-ms are the mean times from the
// start of the grid to its first and last emitted cell.
func BenchmarkSweepGridRunner(b *testing.B) {
	names := []string{"gf2^64mult", "hwb100ps", "mod1048576adder", "gf2^100mult"}
	sources := make([]leqa.Source, len(names))
	for i, name := range names {
		a, err := analysis.Analyze(ftCircuit(b, name))
		if err != nil {
			b.Fatal(err)
		}
		sources[i] = leqa.AnalysisSource(name, a)
	}
	paramSets := make([]fabric.Params, 8)
	for j := range paramSets {
		p := fabric.Default()
		p.Grid = fabric.Grid{Width: 40 + 20*j, Height: 40 + 20*j}
		p.ChannelCapacity = 1 + j
		paramSets[j] = p
	}
	r, err := leqa.NewRunner(fabric.Default(), core.Options{}, 2)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var first, last time.Duration
	grid := func() {
		start := time.Now()
		cells := 0
		err := r.SweepGridSourcesStream(ctx, sources, paramSets, func(cell leqa.GridCell) error {
			if cell.Err != nil {
				return cell.Err
			}
			if cells++; cells == 1 {
				first += time.Since(start)
			}
			return nil
		})
		last += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
	}
	grid() // warm the runner's arenas and the zone-model memo
	first, last = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid()
	}
	b.ReportMetric(first.Seconds()*1e3/float64(b.N), "first-row-ms")
	b.ReportMetric(last.Seconds()*1e3/float64(b.N), "last-row-ms")
}

// BenchmarkFigure5QueueModel times the M/M/1 evaluation (Eq. 8–11) — the
// Figure 5 model on its own.
func BenchmarkFigure5QueueModel(b *testing.B) {
	p := fabric.Default()
	est, err := core.New(p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c := ftCircuit(b, "gf2^16mult")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := estimateCircuit(est, c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTruncation compares the estimator with the paper's 20-term
// truncation against the exact all-Q evaluation (the Eq. 4 runtime claim).
func BenchmarkTruncation(b *testing.B) {
	p := fabric.Default()
	c := ftCircuit(b, "mod1048576adder")
	for _, cfg := range []struct {
		name  string
		trunc int
	}{{"20terms", 0}, {"exact", -1}} {
		b.Run(cfg.name, func(b *testing.B) {
			est, err := core.New(p, core.Options{Truncation: cfg.trunc})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := estimateCircuit(est, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingLEQA measures LEQA runtime vs operation count on the gf2
// family — the §4.2 claim that LEQA scales ~linearly.
func BenchmarkScalingLEQA(b *testing.B) {
	p := fabric.Default()
	for _, n := range []int{16, 32, 64, 128} {
		name := fmt.Sprintf("gf2^%dmult", n)
		b.Run(sanitize(name), func(b *testing.B) {
			c := ftCircuit(b, name)
			est, err := core.New(p, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := estimateCircuit(est, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingQSPR is the matching sweep for the detailed mapper (the
// §4.2 superlinear-scaling side).
func BenchmarkScalingQSPR(b *testing.B) {
	skipHeavyInShort(b)
	p := fabric.Default()
	for _, n := range []int{16, 32, 64, 128} {
		name := fmt.Sprintf("gf2^%dmult", n)
		b.Run(sanitize(name), func(b *testing.B) {
			c := ftCircuit(b, name)
			m, err := qspr.New(p, qspr.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := m.Map(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerate times the benchmark generators themselves.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"gf2^64mult", "hwb50ps", "mod1048576adder"} {
		b.Run(sanitize(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchgen.GenerateFT(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTable2Accuracy is the headline reproduction check: on the quick
// suite, LEQA's estimate must land within 35% of this repository's QSPR on
// every benchmark and within 12% on average (the paper reports 2.11% avg /
// 8.29% max against its own mapper; our from-scratch mapper tracks the
// estimator less tightly on the high-degree gf2 family, where gates queue
// for a hub ULB — `go run ./cmd/experiments -table 2 -full` prints the
// per-benchmark errors).
func TestTable2Accuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	p := fabric.Default()
	var errs []float64
	for _, name := range quickSuite {
		row, err := experiments.RunCircuit(ftCircuit(t, name), p)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-17s actual=%.3fs est=%.3fs err=%.2f%%",
			name, row.ActualSec, row.EstimateSec, row.ErrorPct)
		if row.ErrorPct > 35 {
			t.Errorf("%s: error %.2f%% exceeds 35%%", name, row.ErrorPct)
		}
		errs = append(errs, row.ErrorPct)
	}
	if mean := stats.Mean(errs); mean > 12 {
		t.Errorf("mean error %.2f%% exceeds 12%%", mean)
	}
}

// TestTable2Golden pins Table 2 (gnark's reference-stats idiom): LEQA's
// estimate, QSPR's latency and the error of every paper benchmark must
// equal testdata/table2.csv exactly, so any drift in either tool shows as
// an explicit per-row diff. Under -short it checks the quick suite's six
// rows, otherwise all 18. It logs the measured mean and max error beside
// the paper's.
func TestTable2Golden(t *testing.T) {
	const regen = "go run testdata/gentable2.go > testdata/table2.csv"
	f, err := os.Open("testdata/table2.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	names := benchgen.Names()
	if testing.Short() {
		names = quickSuite
	}
	rows, err := experiments.RunSuite(names, fabric.Default(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteTable2CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got[0], golden[0]) {
		t.Fatalf("header %v, golden %v; if the change is intentional, regenerate with\n  %s", got[0], golden[0], regen)
	}
	want := make(map[string][]string, len(golden)-1)
	for _, rec := range golden[1:] {
		want[rec[0]] = rec
	}
	var errs []float64
	for i, rec := range got[1:] {
		if !slices.Equal(rec, want[rec[0]]) {
			t.Errorf("%s: got %v, golden %v", rec[0], rec, want[rec[0]])
		}
		errs = append(errs, rows[i].ErrorPct)
	}
	if t.Failed() {
		t.Logf("if the change is intentional, regenerate the table with\n  %s", regen)
	}
	t.Logf("%d rows: mean error %.2f%%, max %.2f%% (paper: 2.11%% mean, 8.29%% max)",
		len(errs), stats.Mean(errs), stats.Max(errs))
}

// measureSpeedup times qsprReps runs of QSPR and leqaReps runs of LEQA on
// one circuit and returns the QSPR/LEQA ratio of their fastest runs. Each
// tool gets its own count: QSPR's runs are long, while LEQA's take
// milliseconds, so a few of them can all land in one loaded phase of the
// host. One warm-up run per tool excludes cold-cache effects (including the
// first zone-model computation, which is memoized thereafter).
func measureSpeedup(tb testing.TB, c *circuit.Circuit, p fabric.Params, qsprReps, leqaReps int) float64 {
	mapper, err := qspr.New(p, qspr.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	est, err := core.New(p, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	// Each tool's time is its fastest of reps runs after one warm-up:
	// interference from the rest of the host only ever adds time.
	fastest := func(reps int, run func() error) time.Duration {
		if err := run(); err != nil {
			tb.Fatal(err)
		}
		var best time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := run(); err != nil {
				tb.Fatal(err)
			}
			if d := time.Since(t0); i == 0 || d < best {
				best = d
			}
		}
		return best
	}
	qsprDur := fastest(qsprReps, func() error { _, err := mapper.Map(c); return err })
	leqaDur := fastest(leqaReps, func() error { _, err := estimateCircuit(est, c, nil); return err })
	return float64(qsprDur) / float64(leqaDur)
}

// TestSpeedupGrowsWithSize checks Table 3's qualitative claim: the
// LEQA-over-QSPR speedup increases with operation count, because QSPR's
// mapping time grows superlinearly while LEQA stays near-linear. The
// comparison runs between a mid-size and a large benchmark — with the zone
// model memoized, LEQA no longer pays a fabric-sized constant per estimate,
// so the sub-millisecond smallest circuits sit in a regime dominated by
// QSPR's own fixed overheads and timer noise.
func TestSpeedupGrowsWithSize(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	p := fabric.Default()
	// LEQA's millisecond runs take the fastest of 20 on both circuits.
	small := measureSpeedup(t, ftCircuit(t, "gf2^16mult"), p, 20, 20)
	big := measureSpeedup(t, ftCircuit(t, "gf2^100mult"), p, 2, 20)
	t.Logf("speedup: gf2^16mult %.2fx -> gf2^100mult %.2fx", small, big)
	if big <= small {
		t.Errorf("speedup did not grow: %.2fx (3.9k ops) vs %.2fx (150k ops)", small, big)
	}
}

// TestExperimentReportsRender smoke-tests every table/figure renderer so a
// formatting regression cannot hide until someone runs the binary.
func TestExperimentReportsRender(t *testing.T) {
	p := fabric.Default()
	var sb strings.Builder
	experiments.Table1(&sb, p)
	experiments.Figure1(&sb)
	if err := experiments.Figure2(&sb); err != nil {
		t.Fatal(err)
	}
	experiments.Figure3(&sb, p)
	experiments.Figure4(&sb, p)
	experiments.Figure5(&sb, p, 850)
	for _, want := range []string{"d_CNOT", "ULB", "ham3", "P=", "q=", "uncongested"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered reports missing %q", want)
		}
	}
	rows := []experiments.Row{
		{Name: "8bitadder", Qubits: 24, Operations: 822, ActualSec: 1.6,
			EstimateSec: 1.66, ErrorPct: 3.1, QSPRRuntime: 1e6, LEQARuntime: 1e5, Speedup: 10},
		{Name: "gf2^16mult", Qubits: 48, Operations: 3885, ActualSec: 4.4,
			EstimateSec: 4.5, ErrorPct: 1.4, QSPRRuntime: 3e6, LEQARuntime: 2e5, Speedup: 15},
	}
	var tb strings.Builder
	experiments.Table2(&tb, rows)
	experiments.Table3(&tb, rows)
	if err := experiments.Extrapolation(&tb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "Shor-1024") {
		t.Error("extrapolation report missing Shor-1024 line")
	}
}

// TestAblationsRender smoke-tests the ablation reports end to end on tiny
// inputs.
func TestAblationsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations skipped in -short mode")
	}
	p := fabric.Default()
	checks := []func(io.Writer) error{
		func(w io.Writer) error { return experiments.AblationTruncation(w, "8bitadder", p) },
		func(w io.Writer) error { return experiments.AblationCongestion(w, []string{"8bitadder"}, p) },
		func(w io.Writer) error { return experiments.AblationPlacement(w, []string{"8bitadder"}, p) },
		func(w io.Writer) error { return experiments.AblationMeeting(w, []string{"8bitadder"}, p) },
		func(w io.Writer) error { return experiments.AblationTSPBound(w, 7) },
		func(w io.Writer) error { return experiments.AblationChannelCapacity(w, "8bitadder", p) },
		func(w io.Writer) error { return experiments.FabricSizeSweep(w, "8bitadder", p, []int{4, 10, 60}) },
	}
	for i, f := range checks {
		var sb strings.Builder
		if err := f(&sb); err != nil {
			t.Errorf("ablation %d: %v", i, err)
		}
		if sb.Len() == 0 {
			t.Errorf("ablation %d rendered nothing", i)
		}
	}
}

func sanitize(name string) string {
	return strings.NewReplacer("^", "_", "/", "_").Replace(name)
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
