package qodg

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/circuit"
	"repro/internal/csr"
)

// ParallelThreshold is the node count at or above which LongestPath fans the
// level-partitioned relaxation across GOMAXPROCS workers. Below it the
// serial sweep wins outright (per-level synchronization costs more than the
// whole scan), so small circuits always take the serial fast path. The
// parallel sweep is bitwise identical to the serial one by construction;
// the threshold is a performance knob, never a correctness one.
//
// The variable is read without synchronization on every sweep: tune it at
// program start, before any concurrent estimates run. For per-call control
// use PathScratch.MaxWorkers instead.
var ParallelThreshold = 1 << 16

// spanGrain is the minimum number of same-level nodes dispatched to a
// worker per chunk. Levels narrower than one grain are relaxed inline by
// the coordinator with no synchronization at all, so deep-and-narrow graphs
// degrade gracefully to the serial scan plus one level-index pass.
const spanGrain = 1024

// PathScratch carries the reusable state of a longest-path sweep: the
// dist/from relaxation vectors plus the ASAP level index the parallel sweep
// partitions work by. A zero PathScratch is ready to use; buffers grow to
// the largest graph seen and are reused across calls, so a warm scratch
// performs no allocation. Not safe for concurrent use; pool one per worker.
type PathScratch struct {
	// MaxWorkers caps the parallel sweep's worker count for calls through
	// this scratch; 0 means GOMAXPROCS. Callers that already saturate the
	// machine with their own worker pool (leqa.Runner sets this to
	// GOMAXPROCS divided by its pool size) use it to keep pool-workers ×
	// sweep-helpers from oversubscribing the host; 1 forces the serial
	// sweep. Purely a performance knob — results are bitwise identical at
	// every setting.
	MaxWorkers int

	// Predecessors and the recovery walk hold node IDs as int32: CSR
	// offsets are int32, so every node ID of a graph fits.
	dist       []float64
	from       []int32
	distM      []float64 // SoA multi-column dist: column c of node v at [v*K+c]
	fromM      []int32   // SoA multi-column from, same layout
	weightM    []float64 // SoA multi-column weights, same layout (packed columns)
	typeTab    []float64 // the parallel by-type sweep's copy of its (gate type × column) table
	walk       []int32   // path recovery's end→start walk
	level      []int32   // ASAP level per node
	levelOff   []int32   // level l's nodes sit at levelNodes[levelOff[l]:levelOff[l+1]]
	levelCur   []int32   // counting-sort fill cursors
	levelNodes []NodeID  // node IDs grouped by level, ascending within a level
	prepCnt    []int32   // per-worker level histograms/cursors of the parallel index build
}

// Nodes reports the node count of the largest graph the scratch has swept:
// every sweep's path recovery sizes walk to its graph, and the scratch's
// other slabs scale with it.
func (s *PathScratch) Nodes() int { return cap(s.walk) }

// grow is csr.Grow under a local name: resize, reallocating only when the
// capacity is insufficient, contents unspecified.
func grow[T any](buf []T, n int) []T { return csr.Grow(buf, n) }

// CriticalPath holds the result of a longest-path query.
type CriticalPath struct {
	// Length is the total weight along the heaviest start→end path.
	Length float64
	// Nodes lists the path's node IDs from start to end (inclusive).
	Nodes []NodeID
	// CountByType counts operation nodes on the path per gate type; the
	// paper's N_CNOT^critical and N_g^critical.
	CountByType map[circuit.GateType]int
}

// LongestPath computes the critical path under the given node weights (the
// O(|V|+|E|) DAG longest-path algorithm the paper cites; the node array is
// already in topological order). Graphs with at least ParallelThreshold
// nodes on a multi-core machine take the level-partitioned parallel sweep;
// the result is bitwise identical either way.
func (g *Graph) LongestPath(w Weights) (CriticalPath, error) {
	return g.LongestPathInto(w, nil)
}

// LongestPathInto is LongestPath with caller-owned scratch: a warm
// PathScratch makes the sweep allocation-free apart from the returned
// path and count map. A nil scratch allocates a temporary one.
func (g *Graph) LongestPathInto(w Weights, s *PathScratch) (CriticalPath, error) {
	if len(w) != len(g.Nodes) {
		return CriticalPath{}, fmt.Errorf("qodg: %d weights for %d nodes", len(w), len(g.Nodes))
	}
	if s == nil {
		s = new(PathScratch)
	}
	n := len(g.Nodes)
	s.dist = grow(s.dist, n)
	s.from = grow(s.from, n)
	if workers := s.autoWorkers(n); workers > 0 {
		g.relaxParallel(w, s, workers)
	} else {
		g.relaxSerial(w, s.dist, s.from)
	}
	return recoverPath(g, s, s.dist, s.from, 1, 0), nil
}

// autoWorkers is the dispatch rule of every auto-dispatched sweep: the
// level-partitioned relaxation's worker count for an n-node graph, or 0
// when the serial pass runs — below ParallelThreshold, or on a budget of
// one core (GOMAXPROCS capped by MaxWorkers).
func (s *PathScratch) autoWorkers(n int) int {
	workers := runtime.GOMAXPROCS(0)
	if s.MaxWorkers > 0 && workers > s.MaxWorkers {
		workers = s.MaxWorkers
	}
	if n < ParallelThreshold || workers < 2 {
		return 0
	}
	return workers
}

// LongestPathParallel forces the level-partitioned relaxation with the given
// worker count regardless of ParallelThreshold and GOMAXPROCS — the
// equivalence tests and benchmarks drive the parallel machinery through it
// even on graphs and machines the auto dispatch would run serially.
func (g *Graph) LongestPathParallel(w Weights, s *PathScratch, workers int) (CriticalPath, error) {
	if len(w) != len(g.Nodes) {
		return CriticalPath{}, fmt.Errorf("qodg: %d weights for %d nodes", len(w), len(g.Nodes))
	}
	if s == nil {
		s = new(PathScratch)
	}
	if workers < 1 {
		workers = 1
	}
	n := len(g.Nodes)
	s.dist = grow(s.dist, n)
	s.from = grow(s.from, n)
	g.relaxParallel(w, s, workers)
	return recoverPath(g, s, s.dist, s.from, 1, 0), nil
}

// relaxSerial runs the push relaxation over the topological node order:
// for each node u in order, every successor edge (u,v) offers dist[u]+w[v].
// The first offer a node sees is always taken (from[v] == -1), later offers
// only when strictly greater — so ties resolve to the lowest-ID predecessor.
func (g *Graph) relaxSerial(w Weights, dist []float64, from []int32) {
	clear(dist)
	for i := range from {
		from[i] = -1
	}
	n := len(g.Nodes)
	for u := 0; u < n; u++ {
		du := dist[u]
		for _, v := range g.Succ(NodeID(u)) {
			if cand := du + w[v]; cand > dist[v] || from[v] == -1 {
				dist[v] = cand
				from[v] = int32(u)
			}
		}
	}
}

// relaxParallel is the pull-based, level-partitioned relaxation. ASAP
// levels stratify the DAG so that every predecessor of a level-l node sits
// strictly below level l; once a level's predecessors are finalized, each of
// its nodes can compute its own dist/from independently by scanning its
// predecessor list. Predecessor lists are sorted ascending — the same order
// the serial push visits a node's incoming edges in — and the max uses the
// identical float expression and tie rule, so the result is bitwise equal
// to relaxSerial no matter how levels are chunked across workers.
func (g *Graph) relaxParallel(w Weights, s *PathScratch, workers int) {
	depth := g.buildLevelIndex(s, workers)
	dist, from := s.dist, s.from
	clear(dist)
	for i := range from {
		from[i] = -1
	}
	g.forEachLevel(s, workers, depth, func(span []NodeID) {
		g.relaxSpan(w, dist, from, span)
	})
}

// buildLevelIndex computes the ASAP level of every node and the level-grouped
// node index (levelOff offsets + levelNodes, ascending by ID within each
// level) into the scratch, returning the DAG depth — the partition both the
// single- and multi-weight parallel sweeps chunk work by.
func (g *Graph) buildLevelIndex(s *PathScratch, workers int) int32 {
	n := len(g.Nodes)

	// ASAP levels + depth, via the same kernel Levels uses. The push pass
	// stays serial: each node's level depends on its predecessors', so the
	// recurrence offers no safe partition — unlike everything downstream.
	s.level = grow(s.level, n)
	level := s.level
	depth := g.computeLevels(level)

	// Counting sort: group node IDs by level, ascending within each level.
	// The histogram and placement passes are embarrassingly parallel over
	// contiguous node chunks, so wide graphs split them across the worker
	// budget; narrow or level-heavy graphs (per-worker rows would rival the
	// node array) keep the serial passes. Both produce the identical index.
	s.levelOff = grow(s.levelOff, int(depth)+2)
	off := s.levelOff
	clear(off)
	s.levelNodes = grow(s.levelNodes, n)
	nodes := s.levelNodes
	nLev := int(depth) + 1
	if workers > 1 && (nLev+1)*workers <= n {
		s.prepCnt = indexLevels(level, off, nodes, s.prepCnt, nLev, workers)
	} else {
		for _, lv := range level {
			off[lv+1]++
		}
		for i := 1; i < len(off); i++ {
			off[i] += off[i-1]
		}
		s.levelCur = grow(s.levelCur, nLev)
		cur := s.levelCur
		copy(cur, off[:nLev])
		for u := 0; u < n; u++ {
			lv := level[u]
			nodes[cur[lv]] = NodeID(u)
			cur[lv]++
		}
	}
	return depth
}

// forEachLevel drives the per-level worker gang over the scratch's level
// index, calling relax on disjoint spans of same-level nodes. relax must be
// safe to call concurrently on disjoint spans.
//
// Helpers block on the jobs channel; the coordinator relaxes narrow levels
// inline (no synchronization) and splits wide levels into ≥spanGrain-node
// chunks, taking the first chunk itself. wg.Wait is the inter-level barrier:
// level l+1 only starts once every level-l chunk has finished, so each pull
// reads finalized dist values. The gang is spawned lazily at the first level
// wide enough to dispatch, so deep-narrow graphs degrade to the serial scan
// plus one level-index pass with no goroutine churn at all.
func (g *Graph) forEachLevel(s *PathScratch, workers int, depth int32, relax func(span []NodeID)) {
	off, nodes := s.levelOff, s.levelNodes
	type span struct{ lo, hi int32 }
	helpers := workers - 1
	var jobs chan span
	var wg, gang sync.WaitGroup
	startGang := func() {
		jobs = make(chan span, helpers)
		gang.Add(helpers)
		for i := 0; i < helpers; i++ {
			go func() {
				defer gang.Done()
				for sp := range jobs {
					relax(nodes[sp.lo:sp.hi])
					wg.Done()
				}
			}()
		}
	}
	for lv := int32(1); lv <= depth; lv++ {
		lo, hi := off[lv], off[lv+1]
		width := hi - lo
		per := (width + int32(workers) - 1) / int32(workers)
		if per < spanGrain {
			per = spanGrain
		}
		chunks := (width + per - 1) / per
		if helpers == 0 || chunks <= 1 {
			relax(nodes[lo:hi])
			continue
		}
		if jobs == nil {
			startGang()
		}
		wg.Add(int(chunks) - 1)
		for c := int32(1); c < chunks; c++ {
			clo := lo + c*per
			chi := clo + per
			if chi > hi {
				chi = hi
			}
			jobs <- span{clo, chi}
		}
		relax(nodes[lo : lo+per])
		wg.Wait()
	}
	if jobs != nil {
		close(jobs)
		gang.Wait()
	}
}

// indexLevels builds the level index (levelOff offsets + levelNodes grouped
// by level) with the histogram and placement passes fanned across workers
// over contiguous node chunks. Each worker histograms its chunk into a
// private count row; a serial O(workers·levels) pass turns the rows into
// level offsets and per-worker fill cursors; the placement pass then writes
// every chunk through its own cursors. Chunks ascend by node ID and cursor
// bases ascend by worker within each level, so the nodes of every level come
// out ascending by ID — byte-identical to the serial counting sort.
func indexLevels(level, off []int32, nodes []NodeID, prepCnt []int32, nLev, workers int) []int32 {
	n := len(level)
	prepCnt = grow(prepCnt, workers*nLev)
	clear(prepCnt)
	chunk := (n + workers - 1) / workers
	span := func(w int) (int, int) {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	var wg sync.WaitGroup
	forkJoin := func(pass func(cnt []int32, lo, hi int)) {
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				lo, hi := span(w)
				pass(prepCnt[w*nLev:(w+1)*nLev], lo, hi)
			}(w)
		}
		lo, hi := span(0)
		pass(prepCnt[:nLev], lo, hi)
		wg.Wait()
	}
	forkJoin(func(cnt []int32, lo, hi int) {
		for _, lv := range level[lo:hi] {
			cnt[lv]++
		}
	})
	total := int32(0)
	for lv := 0; lv < nLev; lv++ {
		off[lv] = total
		for w := 0; w < workers; w++ {
			c := prepCnt[w*nLev+lv]
			prepCnt[w*nLev+lv] = total
			total += c
		}
	}
	off[nLev] = total
	forkJoin(func(cnt []int32, lo, hi int) {
		for u := lo; u < hi; u++ {
			lv := level[u]
			nodes[cnt[lv]] = NodeID(u)
			cnt[lv]++
		}
	})
	return prepCnt
}

// relaxSpan finalizes dist/from for a slice of same-level nodes. Scanning
// the sorted predecessor list with "first offer always taken, later offers
// only when strictly greater" reproduces the serial push byte for byte: the
// push visits a node's incoming edges in exactly ascending predecessor
// order, computes the same dist[p]+w[v] sums, and breaks ties the same way.
func (g *Graph) relaxSpan(w Weights, dist []float64, from []int32, span []NodeID) {
	for _, v := range span {
		wv := w[v]
		best := 0.0
		bestFrom := int32(-1)
		for _, p := range g.Pred(v) {
			if cand := dist[p] + wv; cand > best || bestFrom == -1 {
				best = cand
				bestFrom = int32(p)
			}
		}
		if bestFrom != -1 {
			dist[v] = best
			from[v] = bestFrom
		}
	}
}

// numGateTypes sizes path recovery's per-type counters: one slot per
// circuit.GateType up to the last one defined, so every node type a
// circuit can hold has one.
const numGateTypes = int(circuit.Swap) + 1

// recoverPath reads one column's critical path out of the relaxation state:
// node v's distance and predecessor sit at dist[v*stride+col] and
// from[v*stride+col], so stride 1, column 0 is the single-column layout and
// stride K, column c is column c of the multi-column slabs. One walk down
// the from-chain, from the end node back to the start, fills the scratch's
// walk buffer and counts gate types in a fixed array; the path is then
// copied out start→end and CountByType built from the non-zero counts.
func recoverPath(g *Graph, s *PathScratch, dist []float64, from []int32, stride, col int) CriticalPath {
	s.walk = grow(s.walk, len(g.Nodes)) // a path visits each node at most once
	walk := s.walk
	var counts [numGateTypes]int
	steps := 0
	for v := g.End(); ; {
		walk[steps] = int32(v)
		steps++
		if node := &g.Nodes[v]; !node.IsPseudo() {
			counts[node.Op.Type]++
		}
		p := from[int(v)*stride+col]
		if v == 0 || p == -1 {
			break
		}
		v = NodeID(p)
	}
	types := 0
	for _, c := range counts {
		if c > 0 {
			types++
		}
	}
	cp := CriticalPath{
		Length:      dist[int(g.End())*stride+col],
		Nodes:       make([]NodeID, steps),
		CountByType: make(map[circuit.GateType]int, types),
	}
	for i, v := range walk[:steps] {
		cp.Nodes[steps-1-i] = NodeID(v)
	}
	for t, c := range counts {
		if c > 0 {
			cp.CountByType[circuit.GateType(t)] = c
		}
	}
	return cp
}
