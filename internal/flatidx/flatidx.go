// Package flatidx provides Set, the ordered set of peer IDs that holds an
// overlay peer's links and a protocol machine's related set G; Table, the
// open-addressed peer-ID hash table behind a large Set's positions and the
// query package's content index; and Store, a host's store of the storage
// its sets release.
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
// A Table is only ever probed, never iterated, so its slot order cannot
// reach any output. It is hand-rolled rather than a runtime map because
// link maintenance is the hottest loop of the large runs, and the map lost
// where measured: with every position index a map[msg.PeerID]int32, pooled
// and cleared on release, churn50k read +12.6 % allocs_per_peer_unit and
// +12.9 % wall_s (2 pairs), steady100k +6.7 % on each (3 pairs). A Table's
// arrays hold no pointers, so the garbage collector never scans them.
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

// index maps each ID of an indexed set to its position.
type index = Table[int32]

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
		if i := s.idx.Find(id); i >= 0 {
			return int(*s.idx.At(i))
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
		*s.idx.Claim(id, st.indexes().tables()) = s.n - 1
	} else if s.n > IndexThreshold {
		s.idx = st.indexes().Get()
		s.reindex(st.indexes().tables())
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
		s.idx.Release(s.idx.Find(id))
		if i < last {
			*s.idx.At(s.idx.Find(moved)) = int32(i)
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
// grows: no store is needed.
func (s *Set) Truncate(n int) {
	s.n = int32(n)
	spare.Trunc(&s.heap, n)
	if s.idx != nil {
		s.idx.Clear()
		s.reindex(nil)
	}
}

// reindex puts every ID's position into the (empty) index, growing it
// through st.
func (s *Set) reindex(st *spare.Slices[Slot[int32]]) {
	for i, v := range s.IDs() {
		*s.idx.Claim(v, st) = int32(i)
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
		if p := s.idx.Find(v); p < 0 || int(*s.idx.At(p)) != i {
			return fmt.Sprintf("id %d at position %d, index disagrees", v, i)
		}
	}
	return ""
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
	arrays spare.Slices[Slot[int32]]
}

// Get returns an empty index: the one released last, or a new one.
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
	return new(index)
}

// tables returns the store the indexes grow through; nil for a nil pool.
func (p *pool) tables() *spare.Slices[Slot[int32]] {
	if p == nil {
		return nil
	}
	return &p.arrays
}

// Release frees m's table to p and keeps m for a later Get, letting go of
// the newest spare indexes beyond the bound; the caller must not use m
// afterwards. A nil p or m keeps nothing.
func (p *pool) Release(m *index) {
	if p == nil || m == nil {
		return
	}
	m.Free(&p.arrays)
	p.inUse--
	l := append(p.maps, m)
	for len(l) > max(p.inUse, 1) {
		l[len(l)-1] = nil
		l = l[:len(l)-1]
	}
	p.maps = l
}
