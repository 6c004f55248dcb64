// Package qspr is this repository's stand-in for the paper's baseline: the
// quantum scheduling, placement and routing tool (QSPR, Dousti & Pedram,
// DATE 2012) that computes the "actual" latency of an FT netlist mapped to
// the tiled quantum architecture. The original tool is closed-source Java;
// this is a from-scratch detailed mapper with the same fabric model:
//
//   - placement — logical qubits are placed on the ULB grid in IIG
//     breadth-first order along a center-out spiral, so strongly interacting
//     qubits start near each other (a clustered constructive placement);
//   - scheduling — greedy list scheduling over the QODG in program order;
//     each qubit carries a free-at time, so every dependency in the QODG is
//     honored through its operand qubits;
//   - routing — dimension-ordered (XY) routing through the inter-ULB
//     channels; every channel segment has Nc lanes and a qubit crossing a
//     full segment occupies one lane for T_move, queueing FIFO when all
//     lanes are busy (the congestion the M/M/1 model of LEQA approximates);
//   - ULB exclusivity — a ULB executes one FT operation at a time; gates
//     arriving at a busy ULB wait for it.
//
// The mapper is fully deterministic, so Table-2 comparisons are exactly
// reproducible.
package qspr

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/fabric"
)

// Placement selects the initial-placement strategy.
type Placement int

const (
	// PlaceClustered is the default: the IIG-BFS qubit order packed onto
	// a dense center-out spiral of adjacent ULBs — the constructive
	// clustered placement that minimizes partner distances, and the
	// density-one packing LEQA's presence-zone model assumes (a zone of
	// area B_i holds M_i+1 qubits).
	PlaceClustered Placement = iota
	// PlaceSpaced leaves one free ULB between neighboring qubits
	// (spacing 2) — extra elbow room at doubled distances (ablation).
	PlaceSpaced
	// PlaceSpread assigns qubits, in IIG breadth-first order, to a
	// center-out spiral over a ⌈√Q⌉×⌈√Q⌉ subgrid scaled to span the whole
	// fabric — every qubit owns a region (placement ablation).
	PlaceSpread
	// PlaceRowMajor ignores the IIG and fills the grid row by row — the
	// naive baseline for the placement ablation.
	PlaceRowMajor
)

// Options tunes the mapper; the zero value is the default configuration.
type Options struct {
	// Placement selects the initial placement strategy.
	Placement Placement
	// DisableChannelContention gives every segment infinite capacity —
	// isolates how much of the latency is congestion (ablation).
	DisableChannelContention bool
	// DisableULBExclusivity lets a ULB run any number of concurrent
	// gates (ablation).
	DisableULBExclusivity bool
	// MidpointMeeting makes CNOT operands meet at the midpoint of their
	// positions instead of at the busier operand's ULB (ablation).
	MidpointMeeting bool
	// Trace records the per-gate schedule. Costs memory on big circuits.
	Trace bool
}

// GateEvent is one scheduled operation in the trace.
type GateEvent struct {
	GateIndex int
	Type      circuit.GateType
	ULB       fabric.Coord
	Start     float64 // µs
	End       float64 // µs
}

// Result is the mapping outcome.
type Result struct {
	// Latency is the actual end-to-end latency in µs: the time the last
	// operation finishes.
	Latency float64
	// Moves counts ULB-to-ULB hops across all qubits.
	Moves int
	// CongestionWait is the total time (µs·qubit) spent waiting for busy
	// channel lanes.
	CongestionWait float64
	// ULBWait is the total time (µs·gate) spent waiting for busy ULBs.
	ULBWait float64
	// Operations echoes the gate count.
	Operations int
	// Events is the per-gate schedule if Options.Trace was set.
	Events []GateEvent
	// FinalPositions maps each qubit to its last ULB.
	FinalPositions []fabric.Coord
}

// Mapper binds the physical parameters and options.
type Mapper struct {
	Params  fabric.Params
	Options Options
}

// New constructs a Mapper after validating parameters.
func New(p fabric.Params, opt Options) (*Mapper, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Mapper{Params: p, Options: opt}, nil
}

// Map schedules, places and routes the FT circuit on the fabric and returns
// the actual latency.
func (m *Mapper) Map(c *circuit.Circuit) (*Result, error) {
	if !c.IsFT() {
		return nil, fmt.Errorf("qspr: circuit %q contains non-FT gates; run decompose.ToFT first", c.Name)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	grid := m.Params.Grid
	if c.NumQubits() > grid.Area() {
		return nil, fmt.Errorf("qspr: %d qubits exceed fabric capacity %d (grid %dx%d)",
			c.NumQubits(), grid.Area(), grid.Width, grid.Height)
	}

	st, err := m.newState(c)
	if err != nil {
		return nil, err
	}
	for gi, g := range c.Gates {
		if err := st.schedule(gi, g); err != nil {
			return nil, fmt.Errorf("qspr: gate %d: %w", gi, err)
		}
	}

	res := &Result{
		Latency:        st.latency,
		Moves:          st.moves,
		CongestionWait: st.congestionWait,
		ULBWait:        st.ulbWait,
		Operations:     c.NumGates(),
		Events:         st.events,
		FinalPositions: st.pos,
	}
	return res, nil
}

// state carries the mutable mapping state.
type state struct {
	m    *Mapper
	grid fabric.Grid

	pos      []fabric.Coord // current ULB of each qubit
	freeAt   []float64      // time each qubit becomes available, µs
	occupant []int16        // qubits currently resident per ULB index
	ulbCal   []calendar     // per-ULB reservation calendar
	chans    *channels

	latency        float64
	moves          int
	congestionWait float64
	ulbWait        float64
	events         []GateEvent
}

func (m *Mapper) newState(c *circuit.Circuit) (*state, error) {
	grid := m.Params.Grid
	st := &state{
		m:        m,
		grid:     grid,
		pos:      make([]fabric.Coord, c.NumQubits()),
		freeAt:   make([]float64, c.NumQubits()),
		occupant: make([]int16, grid.Area()),
		ulbCal:   make([]calendar, grid.Area()),
		chans:    newChannels(grid, m.Params.ChannelCapacity, m.Options.DisableChannelContention),
	}

	var order []int
	switch m.Options.Placement {
	case PlaceSpread, PlaceClustered, PlaceSpaced:
		a, err := analysis.Analyze(c)
		if err != nil {
			return nil, err
		}
		order = a.IIG.BFSOrder()
	case PlaceRowMajor:
		order = make([]int, c.NumQubits())
		for i := range order {
			order[i] = i
		}
	default:
		return nil, fmt.Errorf("qspr: unknown placement %d", m.Options.Placement)
	}

	var slots []fabric.Coord
	switch m.Options.Placement {
	case PlaceSpread:
		slots = placementSlots(grid, c.NumQubits(), 0)
	case PlaceSpaced:
		slots = placementSlots(grid, c.NumQubits(), 2)
	default: // PlaceClustered, PlaceRowMajor
		slots = grid.SpiralOrder()
	}
	for slot, q := range order {
		st.pos[q] = slots[slot]
		st.occupant[grid.Index(slots[slot])]++
	}
	return st, nil
}

// placementSlots builds q placement slots on a ⌈√q⌉×⌈√q⌉ virtual subgrid
// enumerated center-out (spiral) and scaled onto the fabric with the given
// inter-qubit spacing; spacing 0 means "stretch over the whole fabric"
// (uniform spread). Consecutive slots are adjacent in the subgrid, so
// BFS-ordered qubits keep their locality. If the requested spacing does not
// fit (q·spacing² exceeds the fabric) it is reduced until it does.
func placementSlots(grid fabric.Grid, q, spacing int) []fabric.Coord {
	k := 1
	for k*k < q {
		k++
	}
	if spacing == 0 {
		// Stretch: spacing so the subgrid spans the smaller dimension.
		spacing = grid.Width / k
		if s2 := grid.Height / k; s2 < spacing {
			spacing = s2
		}
	}
	for spacing > 1 && ((k-1)*spacing >= grid.Width || (k-1)*spacing >= grid.Height) {
		spacing--
	}
	if spacing < 1 {
		spacing = 1
	}
	sub, _ := fabric.NewGrid(k, k) // k ≥ 1 always valid
	center := grid.Center()
	slots := make([]fabric.Coord, 0, q)
	used := make(map[fabric.Coord]bool, q)
	for _, s := range sub.SpiralOrder() {
		if len(slots) == q {
			break
		}
		c := fabric.Coord{
			X: center.X + (s.X-sub.Center().X)*spacing,
			Y: center.Y + (s.Y-sub.Center().Y)*spacing,
		}
		c = grid.Clamp(c)
		// Clamping (or spacing 1) can collide; fall back to the nearest
		// free ULB found by ring search.
		if used[c] {
			c = nearestFree(grid, c, used)
		}
		used[c] = true
		slots = append(slots, c)
	}
	return slots
}

// nearestFree scans rings around c for an unused ULB; the grid is guaranteed
// to have one because callers never place more qubits than ULBs.
func nearestFree(grid fabric.Grid, c fabric.Coord, used map[fabric.Coord]bool) fabric.Coord {
	maxR := grid.Width + grid.Height
	for r := 1; r <= maxR; r++ {
		for dx := -r; dx <= r; dx++ {
			dy := r - abs(dx)
			for _, cand := range [...]fabric.Coord{
				{X: c.X + dx, Y: c.Y + dy},
				{X: c.X + dx, Y: c.Y - dy},
			} {
				if grid.Contains(cand) && !used[cand] {
					return cand
				}
			}
		}
	}
	return c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// schedule maps one gate.
func (st *state) schedule(gi int, g circuit.Gate) error {
	switch {
	case g.Type == circuit.CNOT:
		return st.scheduleCNOT(gi, g)
	case g.Type.IsOneQubit():
		return st.scheduleOneQubit(gi, g)
	default:
		return fmt.Errorf("unsupported FT gate %s", g.Type)
	}
}

func (st *state) scheduleOneQubit(gi int, g circuit.Gate) error {
	q := g.Targets[0]
	t := st.freeAt[q]
	at := st.pos[q]
	// The paper's empirical model: a one-qubit op runs in the qubit's own
	// ULB, or the nearest free ULB when the current one is shared. When a
	// move is needed, pick the neighbor with the smallest backlog.
	if st.occupant[st.grid.Index(at)] > 1 {
		dst := st.bestNeighbor(at, t)
		t = st.moveQubit(q, t, at, dst)
		at = dst
	}
	d, err := st.m.Params.DelayOf(g.Type)
	if err != nil {
		return err
	}
	start, end := st.execute(at, t, d)
	st.freeAt[q] = end
	st.record(gi, g.Type, at, start, end)
	return nil
}

func (st *state) scheduleCNOT(gi int, g circuit.Gate) error {
	a, b := g.Controls[0], g.Targets[0]
	pa, pb := st.pos[a], st.pos[b]
	// Meeting ULB: a greedy scheduler choice. Candidates are either
	// operand's current ULB and the midpoint; pick the one with the
	// earliest achievable gate start, accounting for both travel times and
	// the candidate ULB's backlog. Midpoint-only meeting is available as
	// an ablation.
	mid := st.grid.Clamp(fabric.Coord{X: (pa.X + pb.X) / 2, Y: (pa.Y + pb.Y) / 2})
	var meet fabric.Coord
	if st.m.Options.MidpointMeeting {
		meet = mid
	} else {
		meet = st.bestMeeting(a, b, []fabric.Coord{pa, pb, mid})
	}
	ta := st.moveQubit(a, st.freeAt[a], pa, meet)
	tb := st.moveQubit(b, st.freeAt[b], pb, meet)
	t := ta
	if tb > t {
		t = tb
	}
	start, end := st.execute(meet, t, st.m.Params.DCNOT)
	st.freeAt[a] = end
	st.freeAt[b] = end
	st.record(gi, circuit.CNOT, meet, start, end)
	return nil
}

// bestMeeting scores candidate meeting ULBs for a CNOT on qubits a and b by
// the earliest achievable start time — travel of both operands (congestion
// ignored in the preview; the actual routing pays it) plus the candidate's
// execution backlog — and returns the winner (first minimum in candidate
// order, so the choice is deterministic).
func (st *state) bestMeeting(a, b int, candidates []fabric.Coord) fabric.Coord {
	tm := st.m.Params.TMove
	best := candidates[0]
	bestStart := 0.0
	for i, m := range candidates {
		arrA := st.freeAt[a] + float64(st.pos[a].ManhattanDist(m))*tm
		arrB := st.freeAt[b] + float64(st.pos[b].ManhattanDist(m))*tm
		start := arrA
		if arrB > start {
			start = arrB
		}
		if !st.m.Options.DisableULBExclusivity {
			start = st.ulbCal[st.grid.Index(m)].earliest(start, st.m.Params.DCNOT)
		}
		if i == 0 || start < bestStart {
			bestStart = start
			best = m
		}
	}
	return best
}

// execute reserves the ULB calendar (unless disabled) and returns the gate
// interval.
func (st *state) execute(at fabric.Coord, ready float64, d float64) (start, end float64) {
	idx := st.grid.Index(at)
	start = ready
	if !st.m.Options.DisableULBExclusivity {
		start = st.ulbCal[idx].reserve(ready, d)
		st.ulbWait += start - ready
	}
	end = start + d
	if end > st.latency {
		st.latency = end
	}
	return start, end
}

// moveQubit routes q from src to dst starting at time t, reserving channel
// lanes hop by hop, and returns the arrival time. Updates position and
// occupancy.
func (st *state) moveQubit(q int, t float64, src, dst fabric.Coord) float64 {
	if src == dst {
		return t
	}
	tm := st.m.Params.TMove
	cur := src
	// Dimension-ordered route with adaptive order selection: of the two
	// minimal L-routes (X-then-Y, Y-then-X) take the one whose first
	// channel segment frees up sooner — a one-step-lookahead congestion
	// dodge. Straight-line routes have only one choice.
	xFirst := true
	if src.X != dst.X && src.Y != dst.Y {
		xNext, yNext := src, src
		if dst.X > src.X {
			xNext.X++
		} else {
			xNext.X--
		}
		if dst.Y > src.Y {
			yNext.Y++
		} else {
			yNext.Y--
		}
		xFirst = st.chans.freeAt(src, xNext, t, tm) <= st.chans.freeAt(src, yNext, t, tm)
	}
	for pass := 0; pass < 2; pass++ {
		doX := xFirst == (pass == 0)
		if doX {
			for cur.X != dst.X {
				next := cur
				if dst.X > cur.X {
					next.X++
				} else {
					next.X--
				}
				t = st.crossSegment(cur, next, t, tm)
				cur = next
				st.moves++
			}
		} else {
			for cur.Y != dst.Y {
				next := cur
				if dst.Y > cur.Y {
					next.Y++
				} else {
					next.Y--
				}
				t = st.crossSegment(cur, next, t, tm)
				cur = next
				st.moves++
			}
		}
	}
	st.occupant[st.grid.Index(src)]--
	st.occupant[st.grid.Index(dst)]++
	st.pos[q] = dst
	return t
}

// crossSegment reserves a lane on the channel between adjacent ULBs and
// returns the time the qubit exits the segment.
func (st *state) crossSegment(from, to fabric.Coord, t, tm float64) float64 {
	start, wait := st.chans.reserve(from, to, t, tm)
	st.congestionWait += wait
	return start + tm
}

// bestNeighbor picks the adjacent ULB where a gate ready at time t could
// start earliest (smallest execution backlog), breaking ties by occupancy
// then by fixed E, W, S, N order — deterministic.
func (st *state) bestNeighbor(at fabric.Coord, t float64) fabric.Coord {
	best := at
	first := true
	var bestStart float64
	var bestOcc int16
	for _, d := range [...]fabric.Coord{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
		n := fabric.Coord{X: at.X + d.X, Y: at.Y + d.Y}
		if !st.grid.Contains(n) {
			continue
		}
		idx := st.grid.Index(n)
		start := t
		if !st.m.Options.DisableULBExclusivity {
			// Representative duration for backlog comparison; the exact
			// gate delay is applied at execute time.
			start = st.ulbCal[idx].earliest(t, st.m.Params.DCNOT)
		}
		occ := st.occupant[idx]
		if first || start < bestStart || (start == bestStart && occ < bestOcc) {
			first = false
			bestStart = start
			bestOcc = occ
			best = n
		}
	}
	return best
}

func (st *state) record(gi int, t circuit.GateType, at fabric.Coord, start, end float64) {
	if st.m.Options.Trace {
		st.events = append(st.events, GateEvent{
			GateIndex: gi, Type: t, ULB: at, Start: start, End: end,
		})
	}
}
