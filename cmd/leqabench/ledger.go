package main

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/qodg"
	"repro/leqa/client"
)

// layers are the replayed layers, in ledger order.
var layers = []string{"ingest", "store", "analysis", "zonemodel", "core", "qodg", "leqa", "server.emit"}

// ledger splits the traced op latency into layers: client and server time
// from the traced window, the server's layers from the replay, and the
// remainder of server time no replayed layer explains.
type ledger struct {
	ops, replayed  int
	opMs, serveMs  float64
	self           map[string]float64 // per-op self time, ms, floored at 0
	raw            map[string]float64 // per-op self time, ms, as measured
	unattributedMs float64
	ingestMBps     float64
	analysisMGps   float64
	qodgMNCps      float64
	sharded        float64 // share of analyses at or over the shard threshold
	parallel       float64 // share of critical-path sweeps at or over the parallel threshold

	memoHit, zoneHit, throttled float64
	overheadPct                 float64
}

// newLedger folds the traced window's and the replay's spans into per-op
// means. A span's self time is its duration minus its children's; a
// layer's self time is the sum over its spans. The children of a pool span
// ran at once, so they share its wall time in proportion to their own
// durations and it keeps none; rates use the durations as measured.
func newLedger(spans []span) *ledger {
	under := map[int64]int64{}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			under[s.Parent] += s.dur()
		}
	}
	// scale is the factor a span's self time counts with: the product of
	// the pool shares above it.
	var scale func(s span) float64
	scale = func(s span) float64 {
		p, ok := byID[s.Parent]
		if !ok {
			return 1
		}
		f := scale(p)
		if p.Pool > 1 && under[p.ID] > 0 {
			f *= float64(p.dur()) / float64(under[p.ID])
		}
		return f
	}
	lg := &ledger{self: map[string]float64{}, raw: map[string]float64{}}
	var opNs, serveNs int64
	selfNs := map[string]float64{}
	measuredNs := map[string]int64{}
	var bytes, gates, nodeCols int64
	var analyses, sharded, sweeps, parallel int
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		switch {
		case s.Name == "op":
			lg.ops++
			opNs += s.dur()
		case s.Name == "server.serve":
			serveNs += s.dur()
		case s.Name == "replay":
			lg.replayed++
		case layer == "client", s.Pool > 1:
		default:
			if s.Name == "server.emit" {
				layer = s.Name
			}
			selfNs[layer] += float64(s.dur()-under[s.ID]) * scale(s)
			measuredNs[layer] += s.dur() - under[s.ID]
			switch layer {
			case "ingest":
				bytes += s.Bytes
			case "analysis":
				gates += int64(s.Gates)
				analyses++
				if s.Gates >= analysis.ShardThreshold && s.Gang > 1 {
					sharded++
				}
			case "qodg":
				nodeCols += int64(s.Nodes * s.K)
				sweeps++
				if s.Nodes >= qodg.ParallelThreshold && s.Gang > 1 {
					parallel++
				}
			}
		}
	}
	if lg.ops == 0 || lg.replayed == 0 {
		return lg
	}
	lg.opMs = float64(opNs) / 1e6 / float64(lg.ops)
	lg.serveMs = float64(serveNs) / 1e6 / float64(lg.ops)
	lg.unattributedMs = lg.serveMs
	for _, l := range layers {
		lg.raw[l] = selfNs[l] / 1e6 / float64(lg.replayed)
		lg.self[l] = max(lg.raw[l], 0)
		lg.unattributedMs -= lg.self[l]
	}
	lg.ingestMBps = rate(float64(bytes)/1e6, measuredNs["ingest"])
	lg.analysisMGps = rate(float64(gates)/1e6, measuredNs["analysis"])
	lg.qodgMNCps = rate(float64(nodeCols)/1e6, measuredNs["qodg"])
	lg.sharded = ratio(float64(sharded), float64(analyses))
	lg.parallel = ratio(float64(parallel), float64(sweeps))
	return lg
}

func rate(work float64, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return work / (float64(ns) / 1e9)
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// countDeltas takes the server's counters over the untraced window.
func (lg *ledger) countDeltas(h0, h1 *client.Health) {
	d := func(a, b uint64) float64 { return float64(b - a) }
	mh, mm := d(h0.ResultMemo.Hits, h1.ResultMemo.Hits), d(h0.ResultMemo.Misses, h1.ResultMemo.Misses)
	lg.memoHit = ratio(mh, mh+mm)
	zh, zm := d(h0.ZoneModelCache.Hits, h1.ZoneModelCache.Hits), d(h0.ZoneModelCache.Misses, h1.ZoneModelCache.Misses)
	lg.zoneHit = ratio(zh, zh+zm)
	if h0.Saturation != nil && h1.Saturation != nil {
		for reason, n := range h1.Saturation.Throttled {
			lg.throttled += d(h0.Saturation.Throttled[reason], n)
		}
	}
}

// metrics lists the per-layer metrics, in BENCHMARK.json order.
func (lg *ledger) metrics() []metric {
	of := func(l string) float64 { return ratio(lg.self[l], lg.opMs) }
	return []metric{
		{"client.self_ms", lg.opMs - lg.serveMs, "ms"},
		{"client.share", ratio(lg.opMs-lg.serveMs, lg.opMs), "ratio"},
		{"server.serve_ms", lg.serveMs, "ms"},
		{"server.emit_ms", lg.self["server.emit"], "ms"},
		{"server.unattributed_ms", lg.unattributedMs, "ms"},
		{"server.unattributed_share", ratio(lg.unattributedMs, lg.opMs), "ratio"},
		{"server.throttled", lg.throttled, "count"},
		{"leqa.self_ms", lg.self["leqa"], "ms"},
		{"leqa.share", of("leqa"), "ratio"},
		{"leqa.memo_hit_ratio", lg.memoHit, "ratio"},
		{"store.share", of("store"), "ratio"},
		{"ingest.share", of("ingest"), "ratio"},
		{"ingest.mb_per_s", lg.ingestMBps, "MB/s"},
		{"analysis.share", of("analysis"), "ratio"},
		{"analysis.mgates_per_s", lg.analysisMGps, "Mgates/s"},
		{"analysis.sharded_share", lg.sharded, "ratio"},
		{"zonemodel.share", of("zonemodel"), "ratio"},
		{"zonemodel.hit_ratio", lg.zoneHit, "ratio"},
		{"core.share", of("core"), "ratio"},
		{"qodg.share", of("qodg"), "ratio"},
		{"qodg.mnode_cols_per_s", lg.qodgMNCps, "Mnodecols/s"},
		{"qodg.parallel_share", lg.parallel, "ratio"},
		{"trace.overhead_pct", lg.overheadPct, "%"},
	}
}
