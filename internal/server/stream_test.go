package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/server"
	"repro/leqa"
	"repro/leqa/client"
)

// chunked hides the reader's length so net/http sends the body with
// Transfer-Encoding: chunked — the upload shape the streaming path exists
// for.
type chunked struct{ io.Reader }

// bigFTCircuit builds an FT netlist whose .qc rendering comfortably
// exceeds n bytes.
func bigFTCircuit(t *testing.T, name string, minBytes int) (*leqa.Circuit, []byte) {
	t.Helper()
	c := circuit.New(name, 24)
	for len(c.Gates)*4 < minBytes { // gate lines render to ≥5 bytes each
		i := len(c.Gates)
		c.Append(circuit.NewCNOT(i%24, (i+7)%24))
		c.Append(circuit.NewOneQubit(circuit.H, i%24))
	}
	var buf bytes.Buffer
	if err := circuit.WriteQC(&buf, c); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= minBytes {
		t.Fatalf("test netlist only %d bytes, need > %d", buf.Len(), minBytes)
	}
	return c, buf.Bytes()
}

// TestEstimateChunkedUploadPastMaxBodyBytes is the acceptance check for the
// streaming upload path: a chunked raw .qc body much larger than
// MaxBodyBytes is accepted (spooled to disk, never buffered in RAM) and the
// estimate is bitwise identical to the in-process batch path.
func TestEstimateChunkedUploadPastMaxBodyBytes(t *testing.T) {
	const maxBody = 4 << 10
	_, c := newTestServer(t, server.Config{MaxBodyBytes: maxBody})
	circ, qc := bigFTCircuit(t, "bulk", 8*maxBody)

	want, err := leqa.Estimate(circ, leqa.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.EstimateQC(context.Background(), "bulk", chunked{bytes.NewReader(qc)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Circuit != "bulk" || rec.Operations != circ.NumGates() {
		t.Fatalf("record identity mismatch: %+v", rec)
	}
	if rec.EstimatedLatencyUs != want.EstimatedLatency || rec.LCNOTAvgUs != want.LCNOTAvg {
		t.Fatalf("streamed upload estimate %v, want bitwise %v", rec.EstimatedLatencyUs, want.EstimatedLatency)
	}
}

// TestEstimateUploadSpoolCap moves the 413 semantics to the disk-spool
// limit: a body over MaxSpoolBytes is rejected with 413 even though the
// old in-RAM cap no longer applies to raw uploads.
func TestEstimateUploadSpoolCap(t *testing.T) {
	_, c := newTestServer(t, server.Config{MaxBodyBytes: 1 << 20, MaxSpoolBytes: 2 << 10})
	_, qc := bigFTCircuit(t, "overflow", 16<<10)
	_, err := c.EstimateQC(context.Background(), "overflow", chunked{bytes.NewReader(qc)}, nil)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want 413 from the spool cap", err)
	}
}

// TestEstimateUploadNonFTTooLargeToDecompose pins the fallback boundary:
// non-FT uploads up to MaxBodyBytes still decompose (TestEstimateRawQCUpload
// covers that), larger ones are refused with a diagnostic instead of
// ballooning memory.
func TestEstimateUploadNonFTTooLargeToDecompose(t *testing.T) {
	const maxBody = 1 << 10
	_, c := newTestServer(t, server.Config{MaxBodyBytes: maxBody})
	// A large netlist whose final gate is non-FT.
	circ, _ := bigFTCircuit(t, "tail-toffoli", 8*maxBody)
	circ.Append(circuit.NewToffoli(0, 1, 2))
	var buf bytes.Buffer
	if err := circuit.WriteQC(&buf, circ); err != nil {
		t.Fatal(err)
	}
	_, err := c.EstimateQC(context.Background(), "tail-toffoli", chunked{&buf}, nil)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422", err)
	}
	if !strings.Contains(apiErr.Message, "decomposition cap") {
		t.Fatalf("message %q does not explain the decomposition cap", apiErr.Message)
	}
}

// TestEstimateUploadNonFTFirstGateTooLarge is the early-abort variant: the
// FT-only counting pass stops after the FIRST gate with almost the whole
// body unread, and the fallback gate must still see the netlist's true
// size — not the few KiB consumed so far — and refuse to materialize it.
func TestEstimateUploadNonFTFirstGateTooLarge(t *testing.T) {
	const maxBody = 1 << 10
	_, c := newTestServer(t, server.Config{MaxBodyBytes: maxBody})
	circ, _ := bigFTCircuit(t, "head-toffoli", 64*maxBody)
	head := circuit.New("head-toffoli", 24)
	head.Append(circuit.NewToffoli(0, 1, 2))
	head.Append(circ.Gates...)
	var buf bytes.Buffer
	if err := circuit.WriteQC(&buf, head); err != nil {
		t.Fatal(err)
	}
	_, err := c.EstimateQC(context.Background(), "head-toffoli", chunked{&buf}, nil)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422", err)
	}
	if !strings.Contains(apiErr.Message, "decomposition cap") {
		t.Fatalf("message %q does not explain the decomposition cap", apiErr.Message)
	}
}

// containerBodies renders c in all four upload containers.
func containerBodies(t *testing.T, c *leqa.Circuit) map[string][]byte {
	t.Helper()
	var qc, qcb bytes.Buffer
	if err := circuit.WriteQC(&qc, c); err != nil {
		t.Fatal(err)
	}
	if err := leqa.WriteQCB(&qcb, c); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"qc":     qc.Bytes(),
		"qcb":    qcb.Bytes(),
		"qc.gz":  gzipBytes(t, qc.Bytes()),
		"qcb.gz": gzipBytes(t, qcb.Bytes()),
	}
}

// TestDecomposeFallbackCapEveryContainer holds the decompose fallback's
// MaxBodyBytes cap on the netlist's size in every container, inflated for
// gzip, whatever the bytes on the wire. A chunked non-FT netlist over the
// cap gets a 422 naming the decomposition cap, whether its first gate or
// its last is the non-FT one, even when its .qcb or gzip body is far
// smaller than the cap; one under the cap is decomposed and estimated as
// Estimate(Decompose(c)) is.
func TestDecomposeFallbackCapEveryContainer(t *testing.T) {
	const maxBody = 1 << 10
	_, c := newTestServer(t, server.Config{MaxBodyBytes: maxBody})
	ft, _ := bigFTCircuit(t, "big", 8*maxBody)
	tail := ft.Clone()
	tail.Name = "tail"
	tail.Append(circuit.NewToffoli(0, 1, 2))
	head := circuit.New("head", ft.NumQubits())
	head.Append(circuit.NewToffoli(0, 1, 2))
	head.Append(ft.Gates...)
	for _, over := range []*leqa.Circuit{head, tail} {
		for container, body := range containerBodies(t, over) {
			if container == "qcb" && len(body) <= maxBody {
				t.Fatalf("%s .qcb netlist only %d bytes, need > %d", over.Name, len(body), maxBody)
			}
			_, err := c.EstimateQC(context.Background(), over.Name, chunked{bytes.NewReader(body)}, nil)
			var apiErr *client.APIError
			if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s as %s (%d B on the wire): err = %v, want 422", over.Name, container, len(body), err)
			}
			if !strings.Contains(apiErr.Message, "decomposition cap") {
				t.Fatalf("%s as %s: message %q does not explain the decomposition cap", over.Name, container, apiErr.Message)
			}
		}
	}

	small, err := leqa.Parse(strings.NewReader(uploadQC), "small")
	if err != nil {
		t.Fatal(err)
	}
	small.Append(circuit.NewToffoli(0, 1, 2))
	dc, err := leqa.Decompose(small)
	if err != nil {
		t.Fatal(err)
	}
	want, err := leqa.Estimate(dc, leqa.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for container, body := range containerBodies(t, small) {
		rec, err := c.EstimateQC(context.Background(), "small", chunked{bytes.NewReader(body)}, nil)
		if err != nil {
			t.Fatalf("small as %s: %v", container, err)
		}
		if rec.Operations != dc.NumGates() || rec.EstimatedLatencyUs != want.EstimatedLatency {
			t.Fatalf("small as %s: %d operations, D = %v; want %d, %v",
				container, rec.Operations, rec.EstimatedLatencyUs, dc.NumGates(), want.EstimatedLatency)
		}
	}
}

// TestEstimateUploadEmptyBody keeps the pre-streaming 400 for empty raw
// uploads.
func TestEstimateUploadEmptyBody(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	_, err := c.EstimateQC(context.Background(), "nothing", chunked{strings.NewReader("")}, nil)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
	if !strings.Contains(apiErr.Message, "empty .qc body") {
		t.Fatalf("message %q", apiErr.Message)
	}
}

// TestEstimateUploadGateCap enforces MaxGates on the flowing stream.
func TestEstimateUploadGateCap(t *testing.T) {
	_, c := newTestServer(t, server.Config{MaxGates: 100})
	_, qc := bigFTCircuit(t, "toomany", 8<<10)
	_, err := c.EstimateQC(context.Background(), "toomany", chunked{bytes.NewReader(qc)}, nil)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422 from the gate cap", err)
	}
	if !strings.Contains(apiErr.Message, "server cap of 100 operations") {
		t.Fatalf("message %q does not name the gate cap", apiErr.Message)
	}
}

// TestEstimateUploadSyntaxErrorPosition checks streamed parse failures
// surface the shared line/column diagnostics.
func TestEstimateUploadSyntaxErrorPosition(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	qc := ".v a b\nBEGIN\nt2 a b\nbogus a\nEND\n"
	_, err := c.EstimateQC(context.Background(), "syntax", chunked{strings.NewReader(qc)}, nil)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422", err)
	}
	if !strings.Contains(apiErr.Message, ".qc line 4") {
		t.Fatalf("message %q lacks line diagnostics", apiErr.Message)
	}
}

// TestMetricsEndpoint scrapes GET /metrics after driving each estimation
// endpoint and checks the per-endpoint request/row/latency series.
func TestMetricsEndpoint(t *testing.T) {
	ts, c := newTestServer(t, server.Config{})
	if _, err := c.Estimate(context.Background(), client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "ham7"},
	}); err != nil {
		t.Fatal(err)
	}
	rows := 0
	err := c.Sweep(context.Background(), client.SweepRequest{
		Circuits: []client.CircuitSpec{{Generate: "ham7"}, {Generate: "4bitadder"}},
	}, func(leqa.ResultRecord) error {
		rows++
		return nil
	})
	if err != nil || rows != 2 {
		t.Fatalf("sweep rows = %d, err = %v", rows, err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`leqad_requests_total{endpoint="estimate"} 1`,
		`leqad_requests_total{endpoint="sweep"} 1`,
		`leqad_requests_total{endpoint="grid"} 0`,
		`leqad_rows_streamed_total{endpoint="sweep"} 2`,
		`leqad_rows_streamed_total{endpoint="estimate"} 1`,
		`leqad_request_duration_seconds_count{endpoint="estimate"} 1`,
		`leqad_request_duration_seconds_bucket{endpoint="sweep",le="+Inf"} 1`,
		"leqad_zone_model_cache_hits_total",
		"leqad_workers",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestMetricsPhaseSeries drives one JSON estimate and one raw .qc upload,
// then checks /metrics splits the pipeline into per-phase histograms with
// exact counts: ingest (spec resolution, JSON only), analyze (fused graph
// build) and estimate (Algorithm 1) once per request.
func TestMetricsPhaseSeries(t *testing.T) {
	ts, c := newTestServer(t, server.Config{})
	if _, err := c.Estimate(context.Background(), client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "ham7"},
	}); err != nil {
		t.Fatal(err)
	}
	qc := ".v a b c\nBEGIN\nt2 a b\nH c\ncnot b c\nEND\n"
	if _, err := c.EstimateQC(context.Background(), "phased", chunked{strings.NewReader(qc)}, nil); err != nil {
		t.Fatal(err)
	}
	m := scrapeTestMetrics(t, ts, ts.URL)
	for phase, want := range map[string]float64{"ingest": 1, "analyze": 2, "estimate": 2} {
		lbl := map[string]string{"phase": phase}
		if got := metricValue(t, m, "leqad_phase_duration_seconds_count", lbl); got != want {
			t.Errorf("phase %q count = %v, want %v", phase, got, want)
		}
		if got := metricValue(t, m, "leqad_phase_duration_seconds_bucket", map[string]string{"phase": phase, "le": "+Inf"}); got != want {
			t.Errorf("phase %q +Inf bucket = %v, want %v", phase, got, want)
		}
	}
}
