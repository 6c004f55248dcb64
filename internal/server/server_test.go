package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/leqa"
	"repro/leqa/client"
)

// newTestServer spins up the service under httptest and returns an
// in-process client for it.
func newTestServer(t *testing.T, cfg server.Config) (*httptest.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL, ts.Client())
}

// gridBody marshals a request body for raw HTTP calls.
func gridBody(t *testing.T, req any) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

func intp(v int) *int { return &v }

// makeRelease returns a gate channel for blocking FlushHooks plus an
// idempotent closer that t.Cleanup also runs, so a failing assertion can
// never strand a handler (and hang httptest.Server.Close) behind the gate.
func makeRelease(t *testing.T) (chan struct{}, func()) {
	t.Helper()
	release := make(chan struct{})
	var once sync.Once
	closer := func() { once.Do(func() { close(release) }) }
	t.Cleanup(closer)
	return release, closer
}

func TestEstimateGeneratedBenchmark(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	rec, err := c.Estimate(context.Background(), client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "ham7"},
		Params:      &client.ParamSpec{Grid: "31x29", ChannelCapacity: intp(4)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The reply must be bitwise identical to running the public API
	// directly under the same parameters.
	circ, err := leqa.GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	p := leqa.DefaultParams()
	p.Grid = leqa.Grid{Width: 31, Height: 29}
	p.ChannelCapacity = 4
	want, err := leqa.Estimate(circ, p)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Circuit != "ham7" || rec.Qubits != want.Qubits || rec.Operations != want.Operations {
		t.Fatalf("record identity mismatch: %+v", rec)
	}
	if rec.EstimatedLatencyUs != want.EstimatedLatency {
		t.Fatalf("estimate = %v, want bitwise %v", rec.EstimatedLatencyUs, want.EstimatedLatency)
	}
	if rec.LCNOTAvgUs != want.LCNOTAvg || rec.DUncongUs != want.DUncong {
		t.Fatalf("intermediates differ: %+v vs %+v", rec, want)
	}
}

func TestEstimateRawQCUpload(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	// A non-FT netlist: the server lowers it before estimating.
	qc := ".v a b c\n.i a b c\n.o a b c\nBEGIN\nt3 a b c\nEND\n"
	rec, err := c.EstimateQC(context.Background(), "tinytof", strings.NewReader(qc),
		&client.ParamSpec{Grid: "16x16"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Circuit != "tinytof" {
		t.Fatalf("circuit = %q, want tinytof", rec.Circuit)
	}
	if rec.Operations != 15 { // one Toffoli → the 15-gate FT network
		t.Fatalf("operations = %d, want 15", rec.Operations)
	}
	if rec.GridWidth != 16 || rec.GridHeight != 16 {
		t.Fatalf("params not applied: %+v", rec)
	}
}

// TestGridStreamsIncrementallyInOrder is the PR's acceptance test: POST a
// multi-circuit grid, receive the first NDJSON row while the batch is
// provably incomplete, receive all rows in input order, and match a direct
// Runner.SweepGridSources call bitwise.
func TestGridStreamsIncrementallyInOrder(t *testing.T) {
	release, releaseStream := makeRelease(t)
	firstFlushed := make(chan struct{})
	cfg := server.Config{
		FlushHook: func(rows int) {
			if rows == 1 {
				close(firstFlushed)
				<-release // hold the stream right after row 1 reaches the wire
			}
		},
	}
	ts, _ := newTestServer(t, cfg)

	specs := []string{"ham7", "4bitadder", "mod16adder"}
	req := client.GridRequest{
		Circuits: []client.CircuitSpec{{Generate: specs[0]}, {Generate: specs[1]}, {Generate: specs[2]}},
		ParamSets: []client.ParamSpec{
			{Grid: "21x21"},
			{Grid: "33x33", ChannelCapacity: intp(3)},
		},
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/grid", gridBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	// The first row must be readable while the stream is paused after row
	// one — i.e. strictly before batch completion.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first streamed row: %v", err)
	}
	select {
	case <-firstFlushed:
	case <-time.After(10 * time.Second):
		t.Fatal("flush hook never fired")
	}
	var first leqa.ResultRecord
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatalf("first row %q: %v", line, err)
	}
	if first.CircuitIndex != 0 || first.ParamsIndex != 0 {
		t.Fatalf("first row is (%d,%d), want (0,0)", first.CircuitIndex, first.ParamsIndex)
	}
	got := []leqa.ResultRecord{first}
	releaseStream()
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var rec leqa.ResultRecord
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				t.Fatalf("row %q: %v", line, jerr)
			}
			got = append(got, rec)
		}
		if err != nil {
			break
		}
	}

	// Reference: the same batch through the public engine directly.
	circuits := make([]*leqa.Circuit, len(specs))
	for i, name := range specs {
		if circuits[i], err = leqa.GenerateFT(name); err != nil {
			t.Fatal(err)
		}
	}
	p0 := leqa.DefaultParams()
	p0.Grid = leqa.Grid{Width: 21, Height: 21}
	p1 := leqa.DefaultParams()
	p1.Grid = leqa.Grid{Width: 33, Height: 33}
	p1.ChannelCapacity = 3
	runner, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := runner.SweepGridSources(context.Background(), leqa.CircuitSources(circuits), []leqa.Params{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]leqa.ResultRecord, len(cells))
	for i, cell := range cells {
		want[i] = cell.Record()
	}

	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(got), len(want))
	}
	for k := range want {
		i, j := k/2, k%2
		if got[k].CircuitIndex != i || got[k].ParamsIndex != j {
			t.Fatalf("row %d is (%d,%d), want (%d,%d): rows must keep circuit-major input order",
				k, got[k].CircuitIndex, got[k].ParamsIndex, i, j)
		}
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("row %d differs from direct SweepGridSources:\nhttp:   %+v\ndirect: %+v", k, got[k], want[k])
		}
	}
}

func TestSecondRequestHitsZoneModelCache(t *testing.T) {
	// Disable the result memo: it would satisfy the second request before
	// the estimate phase (and thus the zone-model memo) is ever reached.
	_, c := newTestServer(t, server.Config{ResultMemoEntries: -1})
	req := client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "ham7"},
		// A fabric no other test uses, so the first request computes the
		// zone model and the second memo-hits it.
		Params: &client.ParamSpec{Grid: "43x47"},
	}
	if _, err := c.Estimate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	h1, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Estimate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	h2, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h2.ZoneModelCache.Hits <= h1.ZoneModelCache.Hits {
		t.Fatalf("second identical request must hit the shared memo: hits %d → %d",
			h1.ZoneModelCache.Hits, h2.ZoneModelCache.Hits)
	}
	if h2.Status != "ok" || h2.Version == "" || h2.GoVersion == "" {
		t.Fatalf("healthz build info incomplete: %+v", h2)
	}
}

func TestGridCancellationStopsBatch(t *testing.T) {
	release, releaseStream := makeRelease(t)
	firstFlushed := make(chan struct{})
	logBuf := &syncBuffer{}
	cfg := server.Config{
		Logger: slog.New(slog.NewJSONHandler(logBuf, nil)),
		FlushHook: func(rows int) {
			if rows == 1 {
				close(firstFlushed)
				<-release
			}
		},
	}
	_, c := newTestServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	done := make(chan error, 1)
	go func() {
		done <- c.Grid(ctx, client.GridRequest{
			Circuits: []client.CircuitSpec{
				{Generate: "ham7"}, {Generate: "4bitadder"}, {Generate: "mod16adder"},
			},
			ParamSets: []client.ParamSpec{{Grid: "22x22"}, {Grid: "23x23"}, {Grid: "24x24"}},
		}, func(leqa.ResultRecord) error { rows++; return nil })
	}()

	select {
	case <-firstFlushed:
	case <-time.After(10 * time.Second):
		t.Fatal("first row never flushed")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled stream must surface an error to the client")
	}
	// At most row 1 can have reached the client (delivery of the flushed
	// bytes races the cancel): rows 2+ were held behind the hook until
	// after the cancellation, and by then the reader was gone.
	if rows > 1 {
		t.Fatalf("client received %d rows before cancelling, want at most 1", rows)
	}
	// Give the disconnect a moment to reach the server's connection
	// reader, then unblock the stream so the handler can observe it.
	time.Sleep(50 * time.Millisecond)
	releaseStream()

	// The handler must notice the cancellation, stop the batch, log it
	// under the request's ID and finish.
	deadline := time.Now().Add(10 * time.Second)
	var batchID, requestID string
	for {
		for _, m := range logLines(t, logBuf) {
			switch {
			case m["msg"] == "batch canceled" || m["msg"] == "batch ended early":
				batchID, _ = m["id"].(string)
			case m["msg"] == "request" && m["path"] == "/v1/grid":
				requestID, _ = m["id"].(string)
			}
		}
		h, err := c.Health(context.Background())
		if err == nil && h.BatchesCanceled >= 1 && batchID != "" && requestID != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never recorded and logged the cancelled batch:\n%s", logBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if batchID != requestID {
		t.Fatalf("batch log carries id %q, the grid request's access log %q", batchID, requestID)
	}
}

// TestAbortedBatchIsNotACleanEOF pins the NDJSON truncation contract: a
// batch ended early server-side (here via Abort, the forced-shutdown path)
// must reach the client as a transport error, never as a clean EOF that
// masquerades as a complete, shorter batch.
func TestAbortedBatchIsNotACleanEOF(t *testing.T) {
	release, releaseStream := makeRelease(t)
	firstFlushed := make(chan struct{})
	srv, err := server.New(server.Config{
		FlushHook: func(rows int) {
			if rows == 1 {
				close(firstFlushed)
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())

	done := make(chan error, 1)
	go func() {
		done <- c.Sweep(context.Background(), client.SweepRequest{
			Circuits: []client.CircuitSpec{{Generate: "2bitadder"}, {Generate: "3bitadder"}},
		}, func(leqa.ResultRecord) error { return nil })
	}()
	select {
	case <-firstFlushed:
	case <-time.After(10 * time.Second):
		t.Fatal("first row never flushed")
	}
	srv.Abort()
	// Abort's cancellation reaches request contexts via context.AfterFunc
	// (its own goroutine); give it a beat before letting the stream move.
	time.Sleep(50 * time.Millisecond)
	releaseStream()
	if err := <-done; err == nil {
		t.Fatal("aborted mid-batch stream ended in a clean EOF; truncation must be a transport error")
	}
}

func TestSweepPerRowErrorsKeepBatchAlive(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	var got []leqa.ResultRecord
	err := c.Sweep(context.Background(), client.SweepRequest{
		Circuits: []client.CircuitSpec{
			{Generate: "ham7"},
			{Generate: "no-such-benchmark"},
			{QC: "this is not a netlist"},
			{Generate: "mod16adder"},
		},
		Params: &client.ParamSpec{Grid: "18x18"},
	}, func(rec leqa.ResultRecord) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("streamed %d rows, want 4 (bad rows must not abort the batch)", len(got))
	}
	for k, rec := range got {
		if rec.CircuitIndex != k {
			t.Fatalf("row %d has circuitIndex %d; order must match the request", k, rec.CircuitIndex)
		}
	}
	if got[0].Error != "" || got[3].Error != "" {
		t.Fatalf("good rows carry errors: %q / %q", got[0].Error, got[3].Error)
	}
	if got[1].Error == "" || got[2].Error == "" {
		t.Fatalf("bad rows must carry per-row errors: %+v / %+v", got[1], got[2])
	}
	if got[1].Circuit != "no-such-benchmark" {
		t.Fatalf("error row name = %q", got[1].Circuit)
	}
	if got[0].EstimatedLatencyUs <= 0 || got[3].EstimatedLatencyUs <= 0 {
		t.Fatalf("good rows missing estimates: %+v / %+v", got[0], got[3])
	}
}

func TestSweepSSE(t *testing.T) {
	ts, c := newTestServer(t, server.Config{})
	req := client.SweepRequest{
		Circuits: []client.CircuitSpec{{Generate: "ham7"}, {Generate: "mod16adder"}},
		Params:   &client.ParamSpec{Grid: "19x19"},
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", gridBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}

	var rows []leqa.ResultRecord
	var doneSeen bool
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			payload := strings.TrimPrefix(line, "data: ")
			switch event {
			case "":
				var rec leqa.ResultRecord
				if err := json.Unmarshal([]byte(payload), &rec); err != nil {
					t.Fatalf("bad SSE row %q: %v", payload, err)
				}
				rows = append(rows, rec)
			case "done":
				doneSeen = true
			case "error":
				t.Fatalf("unexpected SSE error frame: %s", payload)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !doneSeen {
		t.Fatalf("rows=%d doneSeen=%v, want 2 rows and a done event", len(rows), doneSeen)
	}

	// SSE and NDJSON must carry identical records.
	var ndRows []leqa.ResultRecord
	if err := c.Sweep(context.Background(), req, func(rec leqa.ResultRecord) error {
		ndRows = append(ndRows, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, ndRows) {
		t.Fatalf("SSE rows differ from NDJSON rows:\nsse:    %+v\nndjson: %+v", rows, ndRows)
	}
}

func TestBenchmarksCatalog(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	cat, err := c.Benchmarks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Benchmarks) != 18 {
		t.Fatalf("catalog lists %d benchmarks, want the paper's 18", len(cat.Benchmarks))
	}
	for _, b := range cat.Benchmarks {
		if b.Name == "" || b.Qubits <= 0 || b.Operations <= 0 {
			t.Fatalf("incomplete catalog entry: %+v", b)
		}
	}
	if len(cat.Families) == 0 {
		t.Fatal("catalog must list generator families")
	}
	foundShor := false
	for _, f := range cat.Families {
		if strings.HasPrefix(f, "shor") {
			foundShor = true
		}
	}
	if !foundShor {
		t.Fatalf("families %v missing the shor generator", cat.Families)
	}
}

func TestRequestLimits(t *testing.T) {
	// MaxGates sits between 2bitadder's conservative size bound (~900) and
	// ham7's (~14k), so one generated spec is admitted and one rejected.
	ts, c := newTestServer(t, server.Config{
		MaxBodyBytes: 256,
		MaxGates:     2000,
		MaxCells:     4,
	})

	t.Run("body too large", func(t *testing.T) {
		big := client.EstimateRequest{CircuitSpec: client.CircuitSpec{QC: strings.Repeat("x", 1024)}}
		_, err := c.Estimate(context.Background(), big)
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("err = %v, want 413", err)
		}
	})

	t.Run("gate cap on estimate", func(t *testing.T) {
		_, err := c.Estimate(context.Background(), client.EstimateRequest{
			CircuitSpec: client.CircuitSpec{Generate: "ham7"}, // bound ~14k > 2000
		})
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("err = %v, want 422", err)
		}
	})

	t.Run("oversized generator spec rejected before synthesis", func(t *testing.T) {
		// Admission control: this must 422 instantly from the closed-form
		// size bound — synthesizing shor-2000000 would OOM the process.
		start := time.Now()
		_, err := c.Estimate(context.Background(), client.EstimateRequest{
			CircuitSpec: client.CircuitSpec{Generate: "shor-2000000"},
		})
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("err = %v, want 422", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("rejection took %v; it must not synthesize anything", elapsed)
		}
	})

	t.Run("gate cap is a per-row error in batches", func(t *testing.T) {
		var got []leqa.ResultRecord
		err := c.Sweep(context.Background(), client.SweepRequest{
			Circuits: []client.CircuitSpec{{Generate: "2bitadder"}, {Generate: "ham7"}},
		}, func(rec leqa.ResultRecord) error {
			got = append(got, rec)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("rows = %d, want 2", len(got))
		}
		if got[0].Error != "" {
			t.Fatalf("small circuit failed: %q", got[0].Error)
		}
		if !strings.Contains(got[1].Error, "over the server cap") {
			t.Fatalf("over-cap row error = %q", got[1].Error)
		}
	})

	t.Run("cell cap", func(t *testing.T) {
		err := c.Grid(context.Background(), client.GridRequest{
			Circuits:  []client.CircuitSpec{{Generate: "2bitadder"}, {Generate: "3bitadder"}, {Generate: "4bitadder"}},
			ParamSets: []client.ParamSpec{{Grid: "10x10"}, {Grid: "11x11"}},
		}, func(leqa.ResultRecord) error { return nil })
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Fatalf("err = %v, want 400 for 6 cells over the cap of 4", err)
		}
	})

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("unknown field", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/v1/grid", "application/json",
			strings.NewReader(`{"circuits":[{"generate":"2bitadder"}],"paramGrids":[{"grid":"9x9"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 for a misspelled field", resp.StatusCode)
		}
	})

	t.Run("bad params", func(t *testing.T) {
		err := c.Grid(context.Background(), client.GridRequest{
			Circuits:  []client.CircuitSpec{{Generate: "2bitadder"}},
			ParamSets: []client.ParamSpec{{Grid: "0x0"}},
		}, func(leqa.ResultRecord) error { return nil })
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Fatalf("err = %v, want 400 before streaming starts", err)
		}
	})
}

func TestConcurrencyLimit(t *testing.T) {
	release, releaseStream := makeRelease(t)
	firstFlushed := make(chan struct{})
	_, c := newTestServer(t, server.Config{
		MaxConcurrent: 1,
		FlushHook: func(rows int) {
			if rows == 1 {
				close(firstFlushed)
				<-release
			}
		},
	})
	done := make(chan error, 1)
	go func() {
		done <- c.Sweep(context.Background(), client.SweepRequest{
			Circuits: []client.CircuitSpec{{Generate: "ham7"}},
		}, func(leqa.ResultRecord) error { return nil })
	}()
	select {
	case <-firstFlushed:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never started streaming")
	}

	_, err := c.Estimate(context.Background(), client.EstimateRequest{
		CircuitSpec: client.CircuitSpec{Generate: "2bitadder"},
	})
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 while the only slot streams", err)
	}
	releaseStream()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

// asAPIError unwraps err into an *client.APIError.
func asAPIError(err error, target **client.APIError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*client.APIError)
	if ok {
		*target = e
	}
	return ok
}

// TestHealthzUnderLoad sanity-checks the counters move.
func TestHealthzUnderLoad(t *testing.T) {
	_, c := newTestServer(t, server.Config{Version: "test-build"})
	h0, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	if err := c.Sweep(context.Background(), client.SweepRequest{
		Circuits: []client.CircuitSpec{{Generate: "2bitadder"}, {Generate: "3bitadder"}},
	}, func(leqa.ResultRecord) error { rows++; return nil }); err != nil {
		t.Fatal(err)
	}
	h1, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h1.Version != "test-build" {
		t.Fatalf("version = %q", h1.Version)
	}
	if h1.Requests <= h0.Requests {
		t.Fatalf("request counter did not move: %d → %d", h0.Requests, h1.Requests)
	}
	if h1.RowsStreamed < h0.RowsStreamed+uint64(rows) {
		t.Fatalf("rowsStreamed %d → %d, want +%d", h0.RowsStreamed, h1.RowsStreamed, rows)
	}
}

// TestHealthzEstimateLatencyCounters proves every admitted estimation
// request lands in the latency recorder: count tracks requests, the sum and
// max move, the histogram stays consistent with the count, and read-only
// endpoints (healthz itself) are not timed.
func TestHealthzEstimateLatencyCounters(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	h0, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h0.EstimateLatency.Count != 0 {
		t.Fatalf("fresh server reports %d timed requests", h0.EstimateLatency.Count)
	}
	req := client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: "ham7"}}
	for i := 0; i < 3; i++ {
		if _, err := c.Estimate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lat := h.EstimateLatency
	if lat.Count != 3 {
		t.Fatalf("latency count = %d after 3 estimates, want 3", lat.Count)
	}
	if lat.SumMs <= 0 || lat.MaxMs <= 0 || lat.AvgMs <= 0 {
		t.Fatalf("latency aggregates must be positive: %+v", lat)
	}
	if lat.MaxMs > lat.SumMs {
		t.Fatalf("max %v exceeds sum %v", lat.MaxMs, lat.SumMs)
	}
	if len(lat.Buckets) != len(lat.BucketBoundsMs)+1 {
		t.Fatalf("histogram shape: %d buckets for %d bounds", len(lat.Buckets), len(lat.BucketBoundsMs))
	}
	var inBuckets uint64
	for _, b := range lat.Buckets {
		inBuckets += b
	}
	if inBuckets != lat.Count {
		t.Fatalf("histogram holds %d requests, count says %d", inBuckets, lat.Count)
	}
	// Rejected requests must not skew the metric: an unknown generator is
	// a 4xx that never estimated anything.
	if _, err := c.Estimate(context.Background(),
		client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: "nosuchbench"}}); err == nil {
		t.Fatal("bogus generator spec was accepted")
	}
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.EstimateLatency.Count != 3 {
		t.Fatalf("rejected request was timed: count %d, want 3", h.EstimateLatency.Count)
	}
}
