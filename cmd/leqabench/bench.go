package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/zonemodel"
	"repro/leqa"
	"repro/leqa/client"
)

// config is one workload run. measure, traced and replay are separate so
// the smoke test can shorten them without a command-line knob.
type config struct {
	workload string
	seed     int64
	setups   int           // set-ups timed; setup_s is their median
	warmup   time.Duration // untimed, before the measured window
	measure  time.Duration // the untraced measured window
	traced   time.Duration // the traced window; 0 skips tracing and replay
	replay   time.Duration // wall-time budget of the replay
	sample   int           // distinct cells the oracle checks
	out      string        // directory for <workload>.spans.jsonl; "" writes none
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is everything one workload run measured.
type report struct {
	workload  string
	attempted int // ops sent in the measured windows
	failed    int // failed ops plus wrong cells
	wrong     int // cells that disagreed with the oracle or with themselves
	checked   int // distinct cells the oracle recomputed
	p99       float64
	samples   int
	e2e       []metric
	layers    []metric // nil unless traced
	spans     []span
	ledger    *ledger
}

// service is one in-process leqad behind httptest, with the client that
// drives it.
type service struct {
	h   *tracingHandler
	ts  *httptest.Server
	tr  *http.Transport
	cli *client.Client
}

func startService() (*service, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	s := &service{h: &tracingHandler{next: srv}, tr: &http.Transport{MaxIdleConnsPerHost: clients}}
	s.ts = httptest.NewServer(s.h)
	s.cli = client.New(s.ts.URL, &http.Client{Transport: spanTransport{s.tr}})
	return s, nil
}

func (s *service) close() {
	s.tr.CloseIdleConnections()
	s.ts.Close()
}

// clientState is one closed-loop client: its place in its op sequence, the
// estimate it first saw for each cell, and the current window's tallies.
type clientState struct {
	id           int
	next         int
	seen         map[cellKey]uint64 // math.Float64bits of the first estimate seen
	inconsistent int

	lat                []time.Duration
	ops, cells, failed int
	err                error // first failure of the window
	traced             []tracedOp
}

func (cs *clientState) got(k cellKey, rec leqa.ResultRecord) {
	bits := math.Float64bits(rec.EstimatedLatencyUs)
	if prev, ok := cs.seen[k]; !ok {
		cs.seen[k] = bits
	} else if prev != bits {
		cs.inconsistent++
	}
}

// windowStats is what the clients saw in one window.
type windowStats struct {
	ops, cells, failed int
	elapsed            time.Duration
	lat                []time.Duration // sorted, successful ops only
	err                error
}

// window runs the closed loop for d: each client sends its next op as soon
// as the previous one completes. With log set the window is traced.
func (b *bench) window(ctx context.Context, svc *service, cs []*clientState, d time.Duration, log *spanLog) windowStats {
	svc.h.log.Store(log)
	defer svc.h.log.Store(nil)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		c.lat, c.ops, c.cells, c.failed, c.err, c.traced = c.lat[:0], 0, 0, 0, nil, nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				b.runOp(ctx, svc, c, log)
			}
		}()
	}
	wg.Wait()
	w := windowStats{elapsed: time.Since(start)}
	for _, c := range cs {
		w.ops += c.ops
		w.cells += c.cells
		w.failed += c.failed
		w.lat = append(w.lat, c.lat...)
		if w.err == nil {
			w.err = c.err
		}
	}
	slices.Sort(w.lat)
	if w.err == nil {
		w.err = ctx.Err()
	}
	return w
}

// runOp sends the client's next op and tallies it.
func (b *bench) runOp(ctx context.Context, svc *service, c *clientState, log *spanLog) {
	o := b.opAt(c.id, c.next)
	c.next++
	call, finish := traceCall(direct), func(time.Time, time.Time, int) {}
	var keys []zonemodel.Key
	got := c.got
	if log != nil {
		call, finish = log.opSpans(opID(o.client, o.seq))
		got = func(k cellKey, rec leqa.ResultRecord) {
			c.got(k, rec)
			keys = append(keys, zoneKey(k.col.params(), rec))
		}
	}
	t0 := time.Now()
	cells, err := b.do(ctx, svc.cli, o, call, got)
	t1 := time.Now()
	c.ops++
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = fmt.Errorf("op %d of client %d: %w", o.seq, c.id, err)
		}
		return
	}
	c.cells += cells
	c.lat = append(c.lat, t1.Sub(t0))
	if log != nil {
		finish(t0, t1, cells)
		c.traced = append(c.traced, tracedOp{op: o, keys: keys})
	}
}

// setup starts a fresh leqad, uploads the workload's shared circuits and
// sends set-up op i: what a user waits for before the first result. The
// zone-model memo is process-wide, so it is purged first to make every
// set-up as cold as a new leqad process.
func (b *bench) setup(ctx context.Context, i int, sc *clientState) (*service, time.Duration, error) {
	zonemodel.Shared.Purge()
	t0 := time.Now()
	svc, err := startService()
	if err != nil {
		return nil, 0, err
	}
	for i, up := range b.uploads {
		info, err := svc.cli.PutCircuit(ctx, b.names[i], bytes.NewReader(up))
		if err == nil && info.Digest != b.refs[i] {
			err = fmt.Errorf("stored as %s, want %s", info.Digest, b.refs[i])
		}
		if err != nil {
			svc.close()
			return nil, 0, fmt.Errorf("uploading %s: %w", b.names[i], err)
		}
	}
	if _, err := b.do(ctx, svc.cli, b.opAt(setupClient, i), direct, sc.got); err != nil {
		svc.close()
		return nil, 0, fmt.Errorf("first op: %w", err)
	}
	return svc, time.Since(t0), nil
}

// run measures one workload: set-ups, warm-up, the measured window, the
// traced window and its replay when asked, then the oracle check.
func run(ctx context.Context, cfg config) (*report, error) {
	b, err := newBench(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	cs := make([]*clientState, clients)
	for i := range cs {
		cs[i] = &clientState{id: i, seen: map[cellKey]uint64{}}
	}
	sc := &clientState{id: setupClient, seen: map[cellKey]uint64{}}
	// The first set-up of a process also pays one-off runtime costs (heap
	// growth, first GC cycles), so it is run untimed.
	var svc *service
	setups := make([]float64, max(cfg.setups, 1))
	for i := -1; i < len(setups); i++ {
		if svc != nil {
			svc.close()
		}
		var d time.Duration
		if svc, d, err = b.setup(ctx, i+1, sc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i >= 0 {
			setups[i] = d.Seconds()
		}
	}
	defer svc.close()

	if w := b.window(ctx, svc, cs, cfg.warmup, nil); w.err != nil {
		return nil, fmt.Errorf("warm-up: %w", w.err)
	}
	h0, err := svc.cli.Health(ctx)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	var w windowStats
	runtime.ReadMemStats(&m0)
	rss, err := rssDuring(func() { w = b.window(ctx, svc, cs, cfg.measure, nil) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	h1, err := svc.cli.Health(ctx)
	if err != nil {
		return nil, err
	}
	if w.ops == 0 || w.cells == 0 {
		return nil, fmt.Errorf("no op completed in the %s window: %v", cfg.measure, w.err)
	}
	rep := &report{workload: b.name, attempted: w.ops, failed: w.failed, samples: len(w.lat)}
	if w.err != nil {
		fmt.Fprintf(os.Stderr, "leqabench: %s: %v\n", b.name, w.err)
	}
	cells := float64(w.cells)
	p50 := ms(percentile(w.lat, 0.50))
	rep.p99 = ms(percentile(w.lat, 0.99))
	rep.e2e = []metric{
		{"cells_per_s", cells / w.elapsed.Seconds(), "cells/s"},
		{"latency_p50_ms", p50, "ms"},
		{"latency_p90_ms", ms(percentile(w.lat, 0.90)), "ms"},
		{"setup_s", median(setups), "s"},
		{"alloc_kb_per_cell", float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / cells, "KiB"},
		{"allocs_per_cell", float64(m1.Mallocs-m0.Mallocs) / cells, "count"},
		{"rss_mb", rss, "MiB"},
	}

	if cfg.traced > 0 {
		log := newSpanLog()
		tw := b.window(ctx, svc, cs, cfg.traced, log)
		rep.attempted += tw.ops
		rep.failed += tw.failed
		if tw.err != nil {
			fmt.Fprintf(os.Stderr, "leqabench: %s traced: %v\n", b.name, tw.err)
		}
		var traced [clients][]tracedOp
		for i, c := range cs {
			traced[i] = c.traced
		}
		lg, err := b.replay(ctx, log, traced, cfg.replay)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		lg.countDeltas(h0, h1)
		lg.overheadPct = 100 * (ms(percentile(tw.lat, 0.50)) - p50) / p50
		rep.ledger = lg
		rep.layers = lg.metrics()
		rep.spans = log.spans
	}

	wrong, checked, err := b.check(append(cs, sc), cfg.sample)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	rep.wrong, rep.checked = wrong, checked
	rep.failed += wrong
	if cfg.out != "" && rep.spans != nil {
		if err := writeSpans(cfg.out, b.name, rep.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// check merges the clients' cells and recomputes a seeded sample of up to
// n distinct ones with the oracle. It returns the cells that disagree with
// the oracle bitwise, plus every cell reported with two different values.
func (b *bench) check(cs []*clientState, n int) (wrong, checked int, err error) {
	all := map[cellKey]uint64{}
	for _, c := range cs {
		wrong += c.inconsistent
		for k, v := range c.seen {
			if prev, ok := all[k]; ok && prev != v {
				wrong++
			}
			all[k] = v
		}
	}
	keys := make([]cellKey, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b cellKey) int {
		return cmp.Or(cmp.Compare(a.circ, b.circ), cmp.Compare(a.src, b.src),
			cmp.Compare(a.col.side, b.col.side), cmp.Compare(a.col.nc, b.col.nc), cmp.Compare(a.col.speed, b.col.speed))
	})
	r := newRNG(b.seed, b.stream, math.MaxUint64-1)
	for i := len(keys) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	keys = keys[:min(n, len(keys))]
	errs := make([]error, len(keys))
	bad := make([]bool, len(keys))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				var want float64
				want, errs[i] = b.oracle(keys[i])
				bad[i] = errs[i] == nil && math.Float64bits(want) != all[keys[i]]
			}
		}()
	}
	wg.Wait()
	for _, x := range bad {
		if x {
			wrong++
		}
	}
	return wrong, len(keys), errors.Join(errs...)
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssDuring runs f while sampling the process's resident set (VmRSS)
// every 100 ms, and returns the samples' median in MiB. A median over the
// window follows what serving holds resident; a peak would hinge on
// where one garbage-collection cycle happened to land.
func rssDuring(f func()) (float64, error) {
	stop, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	var err error
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			var v float64
			if v, err = residentMiB(); err != nil {
				return
			}
			samples = append(samples, v)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	f()
	close(stop)
	<-done
	if err != nil {
		return 0, err
	}
	return median(samples), nil
}

// residentMiB reads the process's resident set size from /proc.
func residentMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("resident set: %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("resident set: no VmRSS in /proc/self/status")
}
