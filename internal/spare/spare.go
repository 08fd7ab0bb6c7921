// Package spare keeps released set storage for reuse.
//
// The simulation's per-peer sets (a protocol.Machine's related set, l_nn
// and pending tables; an overlay peer's link sets) hold their first few
// elements inline and move to a heap slice when they outgrow them. Role
// changes and departures give that storage back by the thousand, and the
// next promotion or spill asks for the same sizes again. A host keeps one
// store and passes it to every set it owns: a released slice waits in the
// store, by power-of-two capacity class, for the next set that needs that
// class (flatidx.Pool does the same for position indexes and their
// tables). A store holds at most as many spare arrays of a class as the
// host's sets hold in use, and at least one: enough to serve the churn of
// a population, while the storage of a demotion wave that leaves few sets
// of its size behind goes back to the garbage collector.
//
// A store is not safe for concurrent use; each host touches it only from
// its serial membership and message path. A nil store keeps nothing and
// allocates as make and the built-in append do, so a host that passes none
// behaves exactly as one without the package.
package spare

import "math/bits"

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
