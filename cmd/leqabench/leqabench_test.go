package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkMetrics lists every metric name BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names = append(names, m.Name)
	}
	if len(names) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	return names
}

func (r *report) metric(name string) (metric, bool) {
	for _, m := range append(slices.Clip(r.e2e), r.layers...) {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// TestSmoke runs every workload for about a second, traced, through the
// function the command runs, and checks the run's invariants.
func TestSmoke(t *testing.T) {
	names := benchmarkMetrics(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			rep, err := run(context.Background(), config{
				workload: w, seed: 1, setups: 1,
				warmup: 200 * time.Millisecond, measure: 400 * time.Millisecond,
				traced: 400 * time.Millisecond, replay: 400 * time.Millisecond,
				sample: 16, out: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.wrong != 0 || rep.checked == 0 {
				t.Fatalf("failed=%d wrong=%d checked=%d", rep.failed, rep.wrong, rep.checked)
			}
			for _, n := range names {
				m, ok := rep.metric(n)
				if !ok {
					t.Errorf("metric %s missing", n)
				} else if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("metric %s = %v", n, m.value)
				}
			}

			// Every parent exists; a served span lies inside its parent, so
			// no self time on the traced path is negative.
			byID := map[int64]span{}
			for _, s := range rep.spans {
				byID[s.ID] = s
			}
			for _, s := range rep.spans {
				if s.Parent == 0 {
					continue
				}
				p, ok := byID[s.Parent]
				switch {
				case !ok:
					t.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
				case p.Op != s.Op:
					t.Errorf("span %d %s: op %d, parent's op %d", s.ID, s.Name, s.Op, p.Op)
				case s.Name == "server.serve" && (s.Start < p.Start || s.End > p.End):
					t.Errorf("server span %d outside its client call %d", s.ID, p.ID)
				}
			}

			lg := rep.ledger
			if lg.ops == 0 || lg.replayed == 0 {
				t.Fatalf("ledger of %d traced and %d replayed ops", lg.ops, lg.replayed)
			}
			sum := lg.unattributedMs
			for _, l := range layers {
				if lg.self[l] < 0 {
					t.Errorf("layer %s self time %v < 0", l, lg.self[l])
				}
				sum += lg.self[l]
			}
			if math.Abs(sum-lg.serveMs) > 0.01*lg.serveMs {
				t.Errorf("layers sum to %v ms, server.serve_ms is %v", sum, lg.serveMs)
			}
			client, _ := rep.metric("client.self_ms")
			if math.Abs(client.value+lg.serveMs-lg.opMs) > 1e-9*lg.opMs {
				t.Errorf("client %v + serve %v != op %v ms", client.value, lg.serveMs, lg.opMs)
			}
		})
	}
}

// opsDigest hashes the first n ops of every client, set-up included: the
// bodies, circuit references and parameter columns they send.
func opsDigest(b *bench, n int) string {
	h := sha256.New()
	for c := 0; c <= setupClient; c++ {
		for seq := 0; seq < n; seq++ {
			o := b.opAt(c, seq)
			if b.name == "cold-upload" {
				for i := range o.circs {
					io.Copy(h, b.body(o, i))
				}
			} else {
				for _, i := range o.circs {
					fmt.Fprintln(h, b.refs[i])
					h.Write(b.uploads[i])
				}
			}
			fmt.Fprintln(h, o.cols)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestOpsDeterministic checks that a seed fixes the op sequence, byte for
// byte, and that another seed changes it.
func TestOpsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		var digests [3]string
		for i, seed := range []int64{1, 1, 2} {
			b, err := newBench(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = opsDigest(b, 64)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: seed 1 gave two op sequences", w)
		}
		if digests[0] == digests[2] {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", w)
		}
	}
}
