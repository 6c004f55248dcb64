// Package csr holds the shared building blocks of the arena-backed
// builders: turning a degree count array into compressed-sparse-row
// offsets plus the flat element array (the IIG's rows, filled by
// analysis), and Grow, the resize step of every reusable buffer (analysis,
// and qodg's sweep scratch).
package csr

// Grow returns buf resized to n elements, reallocating only when the
// capacity is insufficient — the shared resize step of every arena buffer.
// Contents are unspecified; callers overwrite (or clear) every slot.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Offsets converts a degree array (with one extra trailing slot) into CSR
// row offsets and allocates the element array. On return deg[i] holds row
// i's start offset — ready to serve as the fill cursor of the second pass —
// and the returned offsets are the immutable copy.
func Offsets[E any](deg []int32) ([]int32, []E) {
	return OffsetsInto[E](deg, nil, nil)
}

// OffsetsInto is Offsets into reusable buffers: off and elem backing arrays
// are recycled when large enough, so a warm arena runs the offsets step
// without allocating. Element contents are unspecified — the fill pass
// overwrites every counted slot.
func OffsetsInto[E any](deg []int32, off []int32, elem []E) ([]int32, []E) {
	n := len(deg) - 1
	off = Grow(off, n+1)
	var total int32
	for i := 0; i < n; i++ {
		off[i] = total
		total += deg[i]
		deg[i] = off[i]
	}
	off[n] = total
	return off, Grow(elem, int(total))
}
