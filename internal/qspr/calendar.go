package qspr

import "sort"

// calendar is a time-indexed reservation list for one exclusive resource
// (a ULB). Reservations are kept as disjoint half-open intervals sorted by
// start time; reserve finds the earliest gap that fits. Unlike a scalar
// busy-until watermark, a calendar lets a gate that is *processed* later but
// *scheduled* earlier slot into a past gap — without it, skew between qubit
// chains falsely serializes independent work, as in the gf2 multipliers,
// whose partial-product chains pipeline through shared ULBs.
type calendar struct {
	start []float64
	end   []float64
}

// earliest returns the first time ≥ ready at which a reservation of length
// dur would fit, without reserving.
func (c *calendar) earliest(ready, dur float64) float64 {
	n := len(c.start)
	// First interval ending after `ready` can conflict.
	i := sort.Search(n, func(k int) bool { return c.end[k] > ready })
	t := ready
	for ; i < n; i++ {
		if c.start[i] >= t+dur {
			return t // fits before interval i
		}
		if c.end[i] > t {
			t = c.end[i]
		}
	}
	return t
}

// reserve books [start, start+dur) at the earliest feasible time ≥ ready
// and returns the start.
func (c *calendar) reserve(ready, dur float64) float64 {
	t := c.earliest(ready, dur)
	// Insert keeping sort order.
	i := sort.SearchFloat64s(c.start, t)
	c.start = append(c.start, 0)
	c.end = append(c.end, 0)
	copy(c.start[i+1:], c.start[i:])
	copy(c.end[i+1:], c.end[i:])
	c.start[i] = t
	c.end[i] = t + dur
	return t
}

// segmentCal tracks crossings of one routing-channel segment. Every
// crossing has the same duration (T_move) and the segment carries at most
// `capacity` concurrent qubits, so feasibility of a crossing starting at s
// is: fewer than capacity existing crossings start within (s−tm, s+tm).
//
// Crossing starts are kept in a chunked sorted list (√-decomposition):
// hot segments on large workloads accumulate 10^5+ crossings, and a flat
// sorted slice would pay O(k) memmove per insertion — quadratic overall.
// Chunks bound the per-insert copy at maxChunk elements.
type segmentCal struct {
	chunks [][]float64 // each sorted; concatenation sorted
	total  int
}

// maxChunk bounds chunk size before splitting; inserts copy at most this
// many elements.
const maxChunk = 256

// find returns the global index of the first crossing ≥ x.
func (s *segmentCal) find(x float64) int {
	idx := 0
	for _, ch := range s.chunks {
		if len(ch) == 0 {
			continue
		}
		if ch[len(ch)-1] < x {
			idx += len(ch)
			continue
		}
		return idx + sort.SearchFloat64s(ch, x)
	}
	return idx
}

// at returns the crossing start at global index i.
func (s *segmentCal) at(i int) float64 {
	for _, ch := range s.chunks {
		if i < len(ch) {
			return ch[i]
		}
		i -= len(ch)
	}
	panic("segmentCal: index out of range")
}

// insert adds a crossing start, keeping order.
func (s *segmentCal) insert(v float64) {
	s.total++
	for ci, ch := range s.chunks {
		if len(ch) > 0 && (v <= ch[len(ch)-1] || ci == len(s.chunks)-1) {
			i := sort.SearchFloat64s(ch, v)
			ch = append(ch, 0)
			copy(ch[i+1:], ch[i:])
			ch[i] = v
			s.chunks[ci] = ch
			if len(ch) > maxChunk {
				s.splitChunk(ci)
			}
			return
		}
	}
	s.chunks = append(s.chunks, []float64{v})
}

// splitChunk halves an oversized chunk.
func (s *segmentCal) splitChunk(ci int) {
	ch := s.chunks[ci]
	mid := len(ch) / 2
	right := make([]float64, len(ch)-mid)
	copy(right, ch[mid:])
	left := ch[:mid:mid]
	s.chunks = append(s.chunks, nil)
	copy(s.chunks[ci+2:], s.chunks[ci+1:])
	s.chunks[ci] = left
	s.chunks[ci+1] = right
}

// earliest returns the first feasible crossing start ≥ ready.
func (s *segmentCal) earliest(ready, tm float64, capacity int) float64 {
	t := ready
	for {
		lo := s.find(t - tm + 1e-12)
		hi := s.find(t + tm - 1e-12)
		if hi-lo < capacity {
			return t
		}
		// Jump past enough conflicting crossings that at most capacity−1
		// of the current window could remain — proportional progress on
		// long saturated stretches instead of one crossing per step.
		cand := s.at(hi-capacity) + tm
		// Gate delays quantize many crossings onto identical timestamps;
		// the jump target can then sit a float-epsilon above t and the
		// search would crawl. Force a minimum step of tm/16 — a bounded
		// (≤ T_move/16) overshoot of the true earliest slot, negligible
		// against the delays being modeled.
		if minStep := t + tm/16; cand < minStep {
			cand = minStep
		}
		t = cand
	}
}

// reserve books a crossing at the earliest feasible start ≥ ready and
// returns it.
func (s *segmentCal) reserve(ready, tm float64, capacity int) float64 {
	t := s.earliest(ready, tm, capacity)
	s.insert(t)
	return t
}
