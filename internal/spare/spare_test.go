package spare

import (
	"testing"
	"unsafe"
)

// TestSlicesBound holds the store to its bound: after every Make and
// Release it keeps at most as many spare arrays of a class as are in use,
// and at least one; Make returns the newest spare before allocating; and
// Append doubles a full slice through the store.
func TestSlicesBound(t *testing.T) {
	var s Slices[uint32]
	check := func(when string, inUse int) {
		t.Helper()
		if got, limit := len(s.free[4]), max(inUse, 1); got > limit {
			t.Fatalf("%s: %d spares of capacity 16 with %d in use, want at most %d", when, got, inUse, limit)
		}
	}
	held := make([][]uint32, 8)
	for i := range held {
		held[i] = s.Make(16)
		check("make", i+1)
	}
	for i := range held[:4] {
		s.Release(held[i])
		check("release", len(held)-1-i)
	}
	if len(s.free[4]) != 4 {
		t.Fatalf("%d spares after releasing four of eight, want 4", len(s.free[4]))
	}
	newest := unsafe.SliceData(held[3])
	if b := s.Make(16); unsafe.SliceData(b) != newest || len(b) != 0 || cap(b) != 16 {
		t.Fatalf("Make took len %d cap %d at %p, want the newest spare %p, empty, capacity 16", len(b), cap(b), unsafe.SliceData(b), newest)
	}
	// In use now: held[4:] and the array Make just returned.
	for i := range held[4:] {
		s.Release(held[4+i])
		check("release", 4-i)
	}
	if len(s.free[4]) != 1 {
		t.Fatalf("%d spares with one in use, want 1", len(s.free[4]))
	}

	full := append(s.Make(16), make([]uint32, 16)...)
	spare := unsafe.SliceData(full)
	grown := s.Append(full, 7)
	if cap(grown) != 32 || len(grown) != 17 || grown[16] != 7 {
		t.Fatalf("Append of a full slice gave len %d cap %d", len(grown), cap(grown))
	}
	if b := s.Make(16); unsafe.SliceData(b) != spare {
		t.Fatal("Append did not release the outgrown array")
	}

	var none *Slices[uint32]
	none.Release(grown)
	if b := none.Append(make([]uint32, 16), 1); len(b) != 17 {
		t.Fatalf("nil store Append gave len %d", len(b))
	}
}
