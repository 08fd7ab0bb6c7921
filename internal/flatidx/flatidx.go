// Package flatidx provides a flat open-addressed position index from
// 32-bit peer IDs to 32-bit slice positions.
//
// The overlay's link sets and the protocol's related set both keep their
// elements in a dense slice (iteration order is part of the observable,
// deterministic behavior) and bolt on a side index only to make
// Contains/Remove O(1) once the slice grows large. That index is pure
// acceleration — it is consulted, never iterated — so it needs exactly
// three fast operations: Get, Put, Delete. A runtime map pays for
// genericity these callers don't use (tophash groups, random iteration
// seeds, pointer-laden buckets the GC must scan); a flat table of packed
// uint64 slots with linear probing is several times cheaper on this
// access pattern and is invisible to the garbage collector.
//
// Keys are peer IDs, which the overlay allocates sequentially from zero;
// the all-ones key ^uint32(0) is reserved to keep the empty-slot encoding
// branch-free and must never be inserted.
//
// A Pool recycles Maps and their tables for a host that builds and drops
// many of them: a Map from Pool.Get takes every table it grows into from
// the pool, by power-of-two size, and hands the outgrown one back, so a
// recycled index probes a table exactly as large as a new one would.
package flatidx

import "dlm/internal/spare"

// Map is an open-addressed uint32→int32 hash table with linear probing
// and backward-shift deletion (no tombstones, so long-lived tables don't
// degrade under churn). The zero value is ready to use.
type Map struct {
	// slots packs (key+1)<<32 | uint32(value); 0 means empty. The +1 bias
	// keeps a stored key 0 distinct from an empty slot while letting
	// Clear and growth use plain zeroing.
	slots []uint64
	mask  uint32
	n     int
	// pool supplies and takes back the tables; nil allocates and drops.
	pool *Pool
}

// hashMul is the 32-bit Fibonacci multiplier (2^32/φ); sequential keys —
// the common case for peer IDs — spread evenly across the table.
const hashMul = 0x9E3779B9

func (m *Map) home(k uint32) uint32 { return (k * hashMul) & m.mask }

// Len returns the number of stored entries.
func (m *Map) Len() int { return m.n }

// Get returns the value stored for k.
func (m *Map) Get(k uint32) (int32, bool) {
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
func (m *Map) Put(k uint32, v int32) {
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
func (m *Map) Delete(k uint32) {
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
func (m *Map) Clear() {
	clear(m.slots)
	m.n = 0
}

func (m *Map) grow() {
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

// Pool keeps released Maps and, by size, their tables, under the bound of
// spare.Slices: at most as many spare Maps as are in use, and at least
// one. The zero value is an empty pool; a nil *Pool keeps nothing. A pool
// is not safe for concurrent use, and neither is any Map it handed out.
type Pool struct {
	maps []*Map
	// inUse counts the Maps Get handed out and Release has not taken back.
	inUse  int
	tables spare.Slices[uint64]
}

// Get returns an empty Map bound to p: the one released last, or a new one.
func (p *Pool) Get() *Map {
	if p == nil {
		return new(Map)
	}
	p.inUse++
	if l := len(p.maps); l > 0 {
		m := p.maps[l-1]
		p.maps[l-1] = nil
		p.maps = p.maps[:l-1]
		return m
	}
	return &Map{pool: p}
}

// Release empties m, gives its table back to p and keeps m for a later
// Get, letting go of the newest spare Maps beyond the bound; the caller
// must not use m afterwards. A nil p or m keeps nothing.
func (p *Pool) Release(m *Map) {
	if p == nil || m == nil {
		return
	}
	p.tables.Release(m.slots)
	*m = Map{pool: p}
	p.inUse--
	l := append(p.maps, m)
	for len(l) > max(p.inUse, 1) {
		l[len(l)-1] = nil
		l = l[:len(l)-1]
	}
	p.maps = l
}

// table returns a zeroed table of c slots.
func (p *Pool) table(c int) []uint64 {
	if p == nil {
		return make([]uint64, c)
	}
	t := p.tables.Make(c)[:c]
	clear(t)
	return t
}

// release keeps an outgrown table for a later Map of its size.
func (p *Pool) release(t []uint64) {
	if p != nil {
		p.tables.Release(t)
	}
}
