// Package flatidx provides Set, the ordered set of peer IDs that holds an
// overlay peer's links and a protocol machine's related set G, and Store,
// a host's store of the storage its sets release.
//
// Both sets iterate in a deterministic (insertion, swap-delete) order —
// part of the observable, byte-identical behavior — and both are small
// for most peers and unbounded for a few: a super's leaf degree and its G
// reach the tens of thousands when million-peer bootstrap concentrates
// leaves on the earliest supers. So a Set keeps its first IDs inline by
// spare's rule, scans them while it is small, and past IndexThreshold
// bolts on a position index that makes Index, Contains and Remove O(1).
// The index is pure acceleration — consulted, never iterated — and a
// removal swaps the same element into place whether it found its victim
// by scan or by index, so indexed and scanned sets behave identically.
//
// The index needs exactly three fast operations: get, put, delete. A
// runtime map pays for genericity it doesn't use (tophash groups, random
// iteration seeds, pointer-laden buckets the GC must scan); a flat table
// of packed uint64 slots with linear probing is several times cheaper on
// this access pattern — link maintenance is the hottest loop of the
// million-peer runs — and is invisible to the garbage collector. Keys are
// peer IDs, which the overlay allocates sequentially from zero; the
// all-ones key ^uint32(0) is reserved to keep the empty-slot encoding
// branch-free and must never be inserted.
package flatidx

import (
	"fmt"

	"dlm/internal/msg"
	"dlm/internal/spare"
)

// Set is an ordered set of peer IDs. The first spare.Inline IDs live in
// the set itself — inside the Peer or Machine that holds it — and a set
// that outgrows them moves to a heap slice from its host's Store. Past
// IndexThreshold IDs it takes a position index from the Store as well.
//
// A set keeps its heap slice and index until Clear, which gives both back
// to the Store: the host clears a set when the tenancy that needed the
// storage ends (a role change, a departure), and Remove and Truncate never
// touch a store. Nothing in the set points into it, so a by-value copy of
// an inline set is independent. The zero value is an empty set.
type Set struct {
	n    int32
	buf  [spare.Inline]msg.PeerID
	heap []msg.PeerID // length n; nil while the IDs fit buf
	idx  *index
}

// IndexThreshold is the set size past which a set builds its position
// index; below it the scan wins.
const IndexThreshold = 32

// Store is a host's store of released set storage: heap slices by
// capacity, and position indexes with their tables by size. A host keeps
// one and passes it to every Append and Clear of the sets it owns. The
// zero value is an empty store; a nil *Store keeps nothing.
type Store struct {
	ids  spare.Slices[msg.PeerID]
	idxs pool
}

// IDs returns the store's ID slices, for the host's other ID arrays to
// share; nil for a nil store.
func (st *Store) IDs() *spare.Slices[msg.PeerID] {
	if st == nil {
		return nil
	}
	return &st.ids
}

func (st *Store) indexes() *pool {
	if st == nil {
		return nil
	}
	return &st.idxs
}

// Len returns the set size.
func (s *Set) Len() int { return int(s.n) }

// IDs returns the IDs in (insertion, swap-delete) order. The slice aliases
// the set and is valid until the next mutation; the only write a caller
// may make through it is an in-place compaction followed by Truncate.
func (s *Set) IDs() []msg.PeerID { return spare.View(s.buf[:], s.heap, int(s.n)) }

// Index returns id's position, or -1. During a compaction through IDs the
// indexed positions are stale until Truncate, but membership stays right.
func (s *Set) Index(id msg.PeerID) int {
	if s.idx != nil {
		if i, ok := s.idx.Get(uint32(id)); ok {
			return int(i)
		}
		return -1
	}
	for i, v := range s.IDs() {
		if v == id {
			return i
		}
	}
	return -1
}

// Contains reports membership.
func (s *Set) Contains(id msg.PeerID) bool { return s.Index(id) >= 0 }

// Indexed reports whether the set holds a position index.
func (s *Set) Indexed() bool { return s.idx != nil }

// Append adds id, which the caller has established is absent, taking any
// heap slice or index it needs from st.
func (s *Set) Append(id msg.PeerID, st *Store) {
	st.IDs().Push(s.buf[:], &s.heap, int(s.n), id)
	s.n++
	if s.idx != nil {
		s.idx.Put(uint32(id), s.n-1)
	} else if s.n > IndexThreshold {
		s.idx = st.indexes().Get()
		s.reindex()
	}
}

// RemoveAt swap-deletes the ID at position i: the last ID takes its place.
func (s *Set) RemoveAt(i int) {
	ids := s.IDs()
	last := len(ids) - 1
	id, moved := ids[i], ids[last]
	ids[i] = moved
	s.n = int32(last)
	spare.Trunc(&s.heap, last)
	if s.idx != nil {
		s.idx.Delete(uint32(id))
		if i < last {
			s.idx.Put(uint32(moved), int32(i))
		}
	}
}

// Remove deletes id; it reports whether the id was present.
func (s *Set) Remove(id msg.PeerID) bool {
	i := s.Index(id)
	if i < 0 {
		return false
	}
	s.RemoveAt(i)
	return true
}

// Truncate cuts the set to its first n IDs, after the caller compacted the
// ones it keeps to the front through IDs. The set keeps its heap slice,
// and an index is rebuilt in its own table, which held more and so never
// grows.
func (s *Set) Truncate(n int) {
	s.n = int32(n)
	spare.Trunc(&s.heap, n)
	if s.idx != nil {
		s.idx.Clear()
		s.reindex()
	}
}

// reindex puts every ID's position into the (empty) index.
func (s *Set) reindex() {
	for i, v := range s.IDs() {
		s.idx.Put(uint32(v), int32(i))
	}
}

// Clear empties the set: the IDs return to the inline array, the heap
// slice and the index go to st.
func (s *Set) Clear(st *Store) {
	st.IDs().Release(s.heap)
	st.indexes().Release(s.idx)
	*s = Set{}
}

// Check verifies the count against the storage, the IDs against
// duplicates and the index against the IDs; it returns a description of
// the first inconsistency, or "".
func (s *Set) Check() string {
	if !spare.Stored(s.buf[:], s.heap, int(s.n)) {
		return fmt.Sprintf("count %d, inline array of %d, heap slice of %d", s.n, len(s.buf), len(s.heap))
	}
	ids := s.IDs()
	if s.idx == nil {
		for i, v := range ids {
			for _, w := range ids[:i] {
				if v == w {
					return fmt.Sprintf("id %d held twice", v)
				}
			}
		}
		return ""
	}
	if s.idx.Len() != len(ids) {
		return fmt.Sprintf("index holds %d ids, set %d", s.idx.Len(), len(ids))
	}
	for i, v := range ids {
		if p, ok := s.idx.Get(uint32(v)); !ok || int(p) != i {
			return fmt.Sprintf("id %d at position %d, index disagrees", v, i)
		}
	}
	return ""
}

// index is an open-addressed uint32→int32 hash table with linear probing
// and backward-shift deletion (no tombstones, so long-lived tables don't
// degrade under churn). The zero value is ready to use.
type index struct {
	// slots packs (key+1)<<32 | uint32(value); 0 means empty. The +1 bias
	// keeps a stored key 0 distinct from an empty slot while letting
	// Clear and growth use plain zeroing.
	slots []uint64
	mask  uint32
	n     int
	// pool supplies and takes back the tables; nil allocates and drops.
	pool *pool
}

// hashMul is the 32-bit Fibonacci multiplier (2^32/φ); sequential keys —
// the common case for peer IDs — spread evenly across the table.
const hashMul = 0x9E3779B9

func (m *index) home(k uint32) uint32 { return (k * hashMul) & m.mask }

// Len returns the number of stored entries.
func (m *index) Len() int { return m.n }

// Get returns the value stored for k.
func (m *index) Get(k uint32) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	want := (uint64(k) + 1) << 32
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := m.slots[i]
		if s == 0 {
			return 0, false
		}
		if s&^0xFFFFFFFF == want {
			return int32(uint32(s)), true
		}
	}
}

// Put inserts or overwrites the value for k. k must not be ^uint32(0).
func (m *index) Put(k uint32, v int32) {
	// Grow at 3/4 load so probe chains stay short.
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	want := (uint64(k) + 1) << 32
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := m.slots[i]
		if s == 0 {
			m.slots[i] = want | uint64(uint32(v))
			m.n++
			return
		}
		if s&^0xFFFFFFFF == want {
			m.slots[i] = want | uint64(uint32(v))
			return
		}
	}
}

// Delete removes k's entry if present, back-shifting the probe chain so
// the table stays tombstone-free.
func (m *index) Delete(k uint32) {
	if m.n == 0 {
		return
	}
	want := (uint64(k) + 1) << 32
	i := m.home(k)
	for {
		s := m.slots[i]
		if s == 0 {
			return
		}
		if s&^0xFFFFFFFF == want {
			break
		}
		i = (i + 1) & m.mask
	}
	m.n--
	// Shift later entries of the chain back into the hole whenever their
	// home position lies at or before it (cyclically), preserving the
	// probe-reachability invariant.
	for j := (i + 1) & m.mask; ; j = (j + 1) & m.mask {
		s := m.slots[j]
		if s == 0 {
			break
		}
		h := m.home(uint32(s>>32) - 1)
		if (j-h)&m.mask >= (j-i)&m.mask {
			m.slots[i] = s
			i = j
		}
	}
	m.slots[i] = 0
}

// Clear empties the table in place, keeping the backing array.
func (m *index) Clear() {
	clear(m.slots)
	m.n = 0
}

func (m *index) grow() {
	newCap := 2 * len(m.slots)
	if newCap < 16 {
		newCap = 16
	}
	old := m.slots
	m.slots = m.pool.table(newCap)
	m.mask = uint32(newCap - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		for i := m.home(uint32(s>>32) - 1); ; i = (i + 1) & m.mask {
			if m.slots[i] == 0 {
				m.slots[i] = s
				break
			}
		}
	}
	m.pool.release(old)
}

// pool keeps released indexes and, by size, their tables, under the bound
// of spare.Slices: at most as many spare indexes as are in use, and at
// least one. The zero value is an empty pool; a nil *pool keeps nothing.
// A pool is not safe for concurrent use, and neither is any index it
// handed out.
type pool struct {
	maps []*index
	// inUse counts the indexes Get handed out and Release has not taken
	// back.
	inUse  int
	tables spare.Slices[uint64]
}

// Get returns an empty index bound to p: the one released last, or a new
// one.
func (p *pool) Get() *index {
	if p == nil {
		return new(index)
	}
	p.inUse++
	if l := len(p.maps); l > 0 {
		m := p.maps[l-1]
		p.maps[l-1] = nil
		p.maps = p.maps[:l-1]
		return m
	}
	return &index{pool: p}
}

// Release empties m, gives its table back to p and keeps m for a later
// Get, letting go of the newest spare Maps beyond the bound; the caller
// must not use m afterwards. A nil p or m keeps nothing.
func (p *pool) Release(m *index) {
	if p == nil || m == nil {
		return
	}
	p.tables.Release(m.slots)
	*m = index{pool: p}
	p.inUse--
	l := append(p.maps, m)
	for len(l) > max(p.inUse, 1) {
		l[len(l)-1] = nil
		l = l[:len(l)-1]
	}
	p.maps = l
}

// table returns a zeroed table of c slots.
func (p *pool) table(c int) []uint64 {
	if p == nil {
		return make([]uint64, c)
	}
	t := p.tables.Make(c)[:c]
	clear(t)
	return t
}

// release keeps an outgrown table for a later Map of its size.
func (p *pool) release(t []uint64) {
	if p != nil {
		p.tables.Release(t)
	}
}
