package server_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/qcbin"
	"repro/internal/server"
	"repro/leqa"
	"repro/leqa/client"
)

// uploadQC is a small FT netlist the circuit-store tests upload.
const uploadQC = ".v a b c d\n.i a b c\nBEGIN\nH a\nCNOT a b\nT c\nCNOT b d\nT* d\nCNOT a d\nEND\n"

// gzipBytes compresses data with gzip.
func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// qcbBytes renders the netlist in the binary .qcb container.
func qcbBytes(t *testing.T, name, qc string) []byte {
	t.Helper()
	c, err := leqa.Parse(strings.NewReader(qc), name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := leqa.WriteQCB(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCircuitUploadEstimateByRef covers the content-store round trip: PUT a
// netlist, estimate it by reference, and match the inline estimate bitwise.
// A second identical by-reference request must be answered from the memory
// tier — /healthz's analysisStore hit counter rises.
func TestCircuitUploadEstimateByRef(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	info, err := c.PutCircuit(ctx, "refcirc", strings.NewReader(uploadQC))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.Digest, "sha256:") || info.Qubits != 4 || info.Operations != 6 || !info.FT {
		t.Fatalf("upload info = %+v", info)
	}

	// Metadata reads back by digest; HEAD answers existence.
	got, err := c.Circuit(ctx, info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *info {
		t.Fatalf("GET circuit = %+v, want %+v", got, info)
	}

	// Re-uploading the same circuit as a gzipped binary netlist lands on
	// the same digest: the digest covers gates, not containers.
	again, err := c.PutCircuit(ctx, "refcirc", bytes.NewReader(gzipBytes(t, qcbBytes(t, "refcirc", uploadQC))))
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != info.Digest {
		t.Fatalf("binary re-upload digest %s, want %s", again.Digest, info.Digest)
	}

	want, err := c.Estimate(ctx, client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{QC: uploadQC, Name: "refcirc"},
		Params:      &client.ParamSpec{Grid: "16x16"},
	})
	if err != nil {
		t.Fatal(err)
	}

	estimateByRef := func() *leqa.ResultRecord {
		rec, err := c.Estimate(ctx, client.EstimateRequest{
			CircuitSpec: client.CircuitSpec{Ref: info.Digest},
			Params:      &client.ParamSpec{Grid: "16x16"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	first := estimateByRef()
	if first.EstimatedLatencyUs != want.EstimatedLatencyUs || first.Operations != want.Operations {
		t.Fatalf("by-ref estimate %+v diverges from inline %+v", first, want)
	}
	h1, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second := estimateByRef()
	if second.EstimatedLatencyUs != want.EstimatedLatencyUs {
		t.Fatalf("second by-ref estimate diverges: %+v", second)
	}
	h2, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2.AnalysisStore.Hits <= h1.AnalysisStore.Hits {
		t.Fatalf("second identical by-ref request did not raise store hits: %+v -> %+v",
			h1.AnalysisStore, h2.AnalysisStore)
	}
	if h2.AnalysisStore.Misses != h1.AnalysisStore.Misses {
		t.Fatalf("by-ref requests re-analyzed: misses %d -> %d",
			h1.AnalysisStore.Misses, h2.AnalysisStore.Misses)
	}
}

// TestCircuitRefErrors covers the failure edges of by-reference specs:
// unknown digests are 404, malformed refs 400, ref+inline mixes 400, and a
// bad ref inside a batch is one error row, not a failed request.
func TestCircuitRefErrors(t *testing.T) {
	ts, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	unknown := "sha256:" + strings.Repeat("ab", 32)

	var apiErr *client.APIError
	_, err := c.Estimate(ctx, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Ref: unknown}})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ref: %v, want 404", err)
	}
	_, err = c.Estimate(ctx, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Ref: "md5:nope"}})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ref: %v, want 400", err)
	}
	_, err = c.Estimate(ctx, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Ref: unknown, Generate: "ham7"}})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("ref+generate: %v, want 400", err)
	}
	_, err = c.Circuit(ctx, unknown)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown circuit: %v, want 404", err)
	}
	resp, err := ts.Client().Head(ts.URL + "/v1/circuits/" + unknown)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD unknown circuit: %d, want 404", resp.StatusCode)
	}

	// Batch: a good generated spec plus a dangling ref → two rows, one error.
	var rows []leqa.ResultRecord
	err = c.Sweep(ctx, client.SweepRequest{
		Circuits: []client.CircuitSpec{{Generate: "ham7"}, {Ref: unknown}},
	}, func(rec leqa.ResultRecord) error {
		rows = append(rows, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Error != "" || rows[1].Error == "" {
		t.Fatalf("mixed batch rows = %+v", rows)
	}
	if rows[1].Circuit != unknown {
		t.Fatalf("error row labeled %q, want the ref", rows[1].Circuit)
	}
}

// TestGridMixedRefAndInline runs a grid mixing a stored reference with an
// inline netlist across two parameter columns and checks it against the
// all-inline grid cell for cell.
func TestGridMixedRefAndInline(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.PutCircuit(ctx, "stored", strings.NewReader(uploadQC))
	if err != nil {
		t.Fatal(err)
	}
	cols := []client.ParamSpec{{Grid: "16x16"}, {Grid: "24x24"}}
	collect := func(specs []client.CircuitSpec) []leqa.ResultRecord {
		var rows []leqa.ResultRecord
		if err := c.Grid(ctx, client.GridRequest{Circuits: specs, ParamSets: cols},
			func(rec leqa.ResultRecord) error { rows = append(rows, rec); return nil }); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := collect([]client.CircuitSpec{{QC: uploadQC, Name: "stored"}, {Generate: "ham7"}})
	got := collect([]client.CircuitSpec{{Ref: info.Digest, Name: "stored"}, {Generate: "ham7"}})
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Error != "" || want[i].Error != "" {
			t.Fatalf("row %d errs: ref %q, inline %q", i, got[i].Error, want[i].Error)
		}
		if got[i].EstimatedLatencyUs != want[i].EstimatedLatencyUs || got[i].Circuit != want[i].Circuit {
			t.Fatalf("row %d: ref grid %+v diverges from inline %+v", i, got[i], want[i])
		}
	}
}

// TestEstimateSniffedContainers uploads the same netlist to /v1/estimate in
// all four containers; every estimate must be identical.
func TestEstimateSniffedContainers(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	qcb := qcbBytes(t, "sniffed", uploadQC)
	bodies := map[string][]byte{
		"qc":     []byte(uploadQC),
		"qc.gz":  gzipBytes(t, []byte(uploadQC)),
		"qcb":    qcb,
		"qcb.gz": gzipBytes(t, qcb),
	}
	var want *leqa.ResultRecord
	for container, body := range bodies {
		rec, err := c.EstimateQC(ctx, "sniffed", bytes.NewReader(body), &client.ParamSpec{Grid: "16x16"})
		if err != nil {
			t.Fatalf("%s: %v", container, err)
		}
		if want == nil {
			want = rec
			continue
		}
		if rec.EstimatedLatencyUs != want.EstimatedLatencyUs || rec.Operations != want.Operations {
			t.Fatalf("%s: estimate %+v diverges from %+v", container, rec, want)
		}
	}
}

// TestGzipInflateLimit422: a gzip upload inflating past the spool cap is
// 422 (unprocessable content); an oversized raw upload keeps being 413.
func TestGzipInflateLimit422(t *testing.T) {
	_, c := newTestServer(t, server.Config{MaxSpoolBytes: 32})
	ctx := context.Background()
	var apiErr *client.APIError
	_, err := c.PutCircuit(ctx, "big", bytes.NewReader(gzipBytes(t, []byte(uploadQC))))
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("gzip over cap: %v, want 422", err)
	}
	_, err = c.PutCircuit(ctx, "bigbin", bytes.NewReader(qcbBytes(t, "bigbin", uploadQC)))
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("raw binary over cap: %v, want 413", err)
	}
}

// TestStorePersistsAcrossRestart builds a second server over the same
// store directory — the in-process restart — and estimates by reference:
// the analysis must come from the persisted image (a disk hit, zero
// misses) and match the original estimate bitwise.
func TestStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, c1 := newTestServer(t, server.Config{StoreDir: dir})
	info, err := c1.PutCircuit(ctx, "durable", strings.NewReader(uploadQC))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Estimate(ctx, client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Ref: info.Digest},
		Params:      &client.ParamSpec{Grid: "16x16"},
	})
	if err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, server.Config{StoreDir: dir})
	got, err := c2.Estimate(ctx, client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Ref: info.Digest},
		Params:      &client.ParamSpec{Grid: "16x16"},
	})
	if err != nil {
		t.Fatalf("by-ref estimate after restart: %v", err)
	}
	if got.EstimatedLatencyUs != want.EstimatedLatencyUs || got.LCNOTAvgUs != want.LCNOTAvgUs {
		t.Fatalf("post-restart estimate %+v diverges from %+v", got, want)
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.AnalysisStore.DiskHits == 0 {
		t.Fatalf("restarted server served no disk hits: %+v", h.AnalysisStore)
	}
	if h.AnalysisStore.Misses != 0 {
		t.Fatalf("restarted server re-analyzed: %+v", h.AnalysisStore)
	}
	if h.AnalysisStore.DiskEntries == 0 || h.AnalysisStore.DiskBytes == 0 {
		t.Fatalf("disk tier accounting empty after scan: %+v", h.AnalysisStore)
	}
}

// TestMetricsExposeStoreSeries checks the /metrics exposition carries the
// analysis-store series.
func TestMetricsExposeStoreSeries(t *testing.T) {
	ts, c := newTestServer(t, server.Config{})
	if _, err := c.PutCircuit(context.Background(), "m", strings.NewReader(uploadQC)); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, series := range []string{
		"leqad_analysis_store_hits_total",
		"leqad_analysis_store_misses_total 1",
		"leqad_analysis_store_disk_hits_total",
		"leqad_analysis_store_entries 1",
		`leqad_requests_total{endpoint="circuits"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestDigestMatchesClientSide: the digest PUT returns equals the digest
// computed locally over the parsed circuit — clients can address circuits
// without uploading them first.
func TestDigestMatchesClientSide(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	circ, err := leqa.Parse(strings.NewReader(uploadQC), "local")
	if err != nil {
		t.Fatal(err)
	}
	digest, err := leqa.CircuitDigest(circ)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.PutCircuit(context.Background(), "local", strings.NewReader(uploadQC))
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != qcbin.FormatRef(digest) {
		t.Fatalf("server digest %s, local %s", info.Digest, qcbin.FormatRef(digest))
	}
}

// TestCircuitPutGateCap holds MaxGates on the store path: a PUT of a .qc
// or .qcb netlist over the cap is a 422 naming the cap, counted as
// gate_cap, and stores nothing.
func TestCircuitPutGateCap(t *testing.T) {
	ts, c := newTestServer(t, server.Config{MaxGates: 4})
	ctx := context.Background()
	circ, err := leqa.Parse(strings.NewReader(uploadQC), "capped")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := leqa.CircuitDigest(circ)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []struct {
		container string
		data      []byte
	}{
		{"qc", []byte(uploadQC)},
		{"qcb", qcbBytes(t, "capped", uploadQC)},
	} {
		before, _ := scrapeTestMetrics(t, ts, ts.URL).Value("leqad_throttled_total", map[string]string{"reason": "gate_cap"})
		_, err := c.PutCircuit(ctx, "capped", bytes.NewReader(body.data))
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: err = %v, want 422 from the gate cap", body.container, err)
		}
		if want := `circuit "capped" exceeds the server cap of 4 operations`; apiErr.Message != want {
			t.Fatalf("%s: message %q, want %q", body.container, apiErr.Message, want)
		}
		after := metricValue(t, scrapeTestMetrics(t, ts, ts.URL), "leqad_throttled_total", map[string]string{"reason": "gate_cap"})
		if after != before+1 {
			t.Fatalf("%s: gate_cap throttles %v -> %v, want +1", body.container, before, after)
		}
		if _, err := c.Circuit(ctx, leqa.FormatDigestRef(ref)); !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: the capped circuit was stored: GET err = %v", body.container, err)
		}
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.AnalysisStore.Entries != 0 {
		t.Fatalf("capped uploads reached the store: %+v", h.AnalysisStore)
	}
}

// TestCircuitPutAbortStoresNothing is Server.Abort on an in-flight PUT: the
// upload's passes poll the request context, so a body still streaming when
// the server aborts fails and leaves the store as it was.
func TestCircuitPutAbortStoresNothing(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Abort reaches the request context from a goroutine of its own, which
	// the scheduler may hold back for a time slice (10 ms) while the
	// upload's goroutines hand the CPU to each other. The body is long
	// enough that streaming what follows the abort takes several slices.
	var body bytes.Buffer
	body.WriteString(".v a b c\nBEGIN\n")
	for body.Len() < 4<<20 {
		body.WriteString("CNOT a b\nT c\nCNOT c a\n")
	}
	body.WriteString("END\n")
	qc := body.Bytes()
	ref, err := leqa.StreamDigest(ingest.NewScanner(bytes.NewReader(qc), "aborted", ingest.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	h0, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := c.PutCircuit(ctx, "aborted", pr)
		done <- err
	}()
	head := 64 << 10
	if _, err := pw.Write(qc[:head]); err != nil {
		t.Fatal(err)
	}
	srv.Abort()
	go func() {
		if _, err := pw.Write(qc[head:]); err == nil {
			pw.Close()
		}
	}()
	err = <-done
	pr.CloseWithError(io.ErrClosedPipe) // release the writer if the server stopped reading
	if err == nil {
		t.Fatal("PUT completed and stored its circuit after Abort")
	}
	var apiErr *client.APIError
	if _, err := c.Circuit(ctx, leqa.FormatDigestRef(ref)); !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("aborted upload was stored: GET err = %v", err)
	}
	h1, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h1.AnalysisStore.Entries != h0.AnalysisStore.Entries {
		t.Fatalf("store entries %d -> %d across an aborted upload", h0.AnalysisStore.Entries, h1.AnalysisStore.Entries)
	}
}
