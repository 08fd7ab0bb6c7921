// Package spare holds the storage rule of the simulation's per-peer sets
// and keeps released set storage for reuse.
//
// The per-peer sets (a protocol.Machine's related set, l_nn and pending
// tables; an overlay peer's link sets) hold their first Inline elements in
// an array inside the struct that owns them, so a peer at leaf size never
// touches the Go heap for them. The push that finds the array full moves
// the set to a heap slice SpillFactor times as large, so that a set that
// has just spilled does not regrow at once; the set stays there until its
// owner clears it (View, Slices.Push, Trunc, Stored).
//
// Role changes and departures give that heap storage back by the
// thousand, and the next promotion or spill asks for the same sizes
// again. A host keeps one store and passes it to every set it owns: a
// released slice waits in the store, by power-of-two capacity class, for
// the next set that needs that class. A store holds at most as many spare
// arrays of a class as the host's sets hold in use, and at least one:
// enough to serve the churn of a population, while the storage of a
// demotion wave that leaves few sets of its size behind goes back to the
// garbage collector.
//
// A store is not safe for concurrent use; each host touches it only from
// its serial membership and message path. A nil store keeps nothing and
// allocates as make and the built-in append do, so a host that passes none
// behaves exactly as one without the package.
package spare

import "math/bits"

// Inline is the number of elements a set holds in its owner's array. It
// comes from the measured end-of-run leaf related-set sizes — steady100k:
// 2/3/4/5/≥6 entries on 63 434/25 402/6 670/1 298/207 leaves, 98.5 % ≤ 4;
// churn50k: 92 % ≤ 4 — and from the overlay's M = 2 supers per leaf, each
// good for one link (with room for a transient third), one l_nn report and
// two outstanding requests; a super's k_s = 3 to 4 super links fit too.
//
// SpillFactor is the size of a set's first heap slice in arrays. Before
// the store, BenchmarkScaleTick allocated 1133, 846 and 777 objects a tick
// at factors 2, 4 and 8, in 278, 301 and 430 kB: 4 is the knee.
const (
	Inline      = 4
	SpillFactor = 4
)

// View returns the n elements of a set held in buf while heap is nil and
// in heap (whose length is n) afterwards.
func View[T any](buf, heap []T, n int) []T {
	if heap != nil {
		return heap
	}
	return buf[:n]
}

// Trunc shortens the heap half of such a set to n elements; the caller
// sets n. The set keeps its heap slice, so Trunc never touches a store.
func Trunc[T any](heap *[]T, n int) {
	if *heap != nil {
		*heap = (*heap)[:n]
	}
}

// Stored reports whether a set of n elements is held the way View reads
// it: in buf with no heap slice, or in a heap slice of length n.
func Stored[T any](buf, heap []T, n int) bool {
	if heap == nil {
		return 0 <= n && n <= len(buf)
	}
	return len(heap) == n
}

// Slices is a store of released []T arrays, one LIFO list per capacity
// class. Released arrays are not cleared, so T must hold no pointers the
// garbage collector should stop seeing. The zero value is an empty store.
type Slices[T any] struct {
	free [bits.UintSize][][]T
	// used counts, per class, the arrays Make handed out and Release has
	// not taken back.
	used [bits.UintSize]int
}

// Make returns an empty slice of capacity c, which must be a power of two:
// the array released last with that capacity, or a new one.
func (s *Slices[T]) Make(c int) []T {
	if s != nil {
		k := bits.Len(uint(c)) - 1
		s.used[k]++
		if l := s.free[k]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			s.free[k] = l[:len(l)-1]
			return b
		}
	}
	return make([]T, 0, c)
}

// Append appends v to b, whose capacity must be a power of two. When b is
// full its elements move to a slice of twice the capacity from Make and
// b's array is released, so the result's capacity is a power of two again.
// With a nil s it is the built-in append.
func (s *Slices[T]) Append(b []T, v T) []T {
	if s == nil || len(b) < cap(b) {
		return append(b, v)
	}
	return s.grow(b, v)
}

// Push stores v as element n of a set held in buf or heap (see View); the
// caller increments n. The push that finds buf full moves the set to a
// heap slice of SpillFactor·len(buf) from Make.
func (s *Slices[T]) Push(buf []T, heap *[]T, n int, v T) {
	switch {
	case *heap != nil:
		*heap = s.Append(*heap, v)
	case n < len(buf):
		buf[n] = v
	default:
		*heap = append(append(s.Make(SpillFactor*len(buf)), buf...), v)
	}
}

// grow is Append's move to the next capacity, kept out of line so that
// the common append inlines.
func (s *Slices[T]) grow(b []T, v T) []T {
	grown := append(s.Make(2*cap(b)), b...)
	s.Release(b)
	return append(grown, v)
}

// Release keeps b's array for a later Make of its capacity, then lets go
// of the newest spares of that capacity beyond the bound: as many as are
// still in use, and at least one. The caller must not use b afterwards. A
// nil s, an empty b, or a capacity that is not a power of two keeps
// nothing.
func (s *Slices[T]) Release(b []T) {
	c := cap(b)
	if s == nil || c == 0 || c&(c-1) != 0 {
		return
	}
	k := bits.Len(uint(c)) - 1
	s.used[k]--
	l := append(s.free[k], b[:0])
	for len(l) > max(s.used[k], 1) {
		l[len(l)-1] = nil
		l = l[:len(l)-1]
	}
	s.free[k] = l
}
