package flatidx

import (
	"dlm/internal/msg"
	"dlm/internal/spare"
)

// Table maps peer IDs to values of type V: an open-addressed hash table
// with linear probing and backward-shift deletion, so no tombstones build
// up under churn. Its array has a power-of-two length of at least
// minSlots, grows before the load passes 3/4, and never shrinks; it comes
// from, and an outgrown one goes back to, the spare.Slices store the
// caller passes. A position from Find, and a value pointer from At or
// Claim, is valid until the next Claim or Release. The zero value is an
// empty table.
type Table[V any] struct {
	slots []Slot[V] // nil while the table has never held an entry
	n     int
}

// Slot is one position of a Table's array: an ID and its value.
type Slot[V any] struct {
	// key is the ID plus one, so that 0 marks an empty slot and Clear and
	// growth are plain zeroing; ^msg.PeerID(0) is the one ID a table
	// cannot hold.
	key uint32
	val V
}

// hashMul is the 32-bit Fibonacci multiplier (2^32/φ); sequential keys —
// the common case for peer IDs — spread evenly across the table.
const hashMul = 0x9E3779B9

// minSlots is the size of a table's first array.
const minSlots = 16

// home returns the position key's probe chain starts from in an array of
// mask+1 slots.
func home(key, mask uint32) uint32 { return (key - 1) * hashMul & mask }

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// probe returns the position holding key, or the empty position where
// key's probe chain ends. The table must have an array.
func (t *Table[V]) probe(key uint32) int {
	mask := uint32(len(t.slots) - 1)
	i := home(key, mask)
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return int(i)
}

// Find returns the position of id's entry, or -1.
func (t *Table[V]) Find(id msg.PeerID) int {
	if t.n == 0 {
		return -1
	}
	i := t.probe(uint32(id) + 1)
	if t.slots[i].key == 0 {
		return -1
	}
	return i
}

// At returns the value at position i, which Find or Claim returned.
func (t *Table[V]) At(i int) *V { return &t.slots[i].val }

// Claim returns id's value, inserting a zero one if id is absent. A table
// that must grow takes its new array from st and gives the old one back.
func (t *Table[V]) Claim(id msg.PeerID, st *spare.Slices[Slot[V]]) *V {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow(st)
	}
	key := uint32(id) + 1
	s := &t.slots[t.probe(key)]
	if s.key == 0 {
		s.key = key
		t.n++
	}
	return &s.val
}

// Release empties position i, shifting later entries of the probe chain
// back into the hole whenever their home lies at or before it
// (cyclically), so every entry stays reachable from its home.
func (t *Table[V]) Release(i int) {
	mask := uint32(len(t.slots) - 1)
	hole := uint32(i)
	for j := (hole + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-home(t.slots[j].key, mask))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = Slot[V]{}
	t.n--
}

// Clear empties the table in place, keeping its array.
func (t *Table[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// Free empties the table and gives its array to st.
func (t *Table[V]) Free(st *spare.Slices[Slot[V]]) {
	st.Release(t.slots)
	*t = Table[V]{}
}

// grow doubles the array through st: the new one may be an array another
// table outgrew, so it is cleared before the rehash.
func (t *Table[V]) grow(st *spare.Slices[Slot[V]]) {
	old := t.slots
	size := max(minSlots, 2*len(old))
	t.slots = st.Make(size)[:size]
	clear(t.slots)
	for _, s := range old {
		if s.key != 0 {
			t.slots[t.probe(s.key)] = s
		}
	}
	st.Release(old)
}
