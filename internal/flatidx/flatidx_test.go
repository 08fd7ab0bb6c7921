package flatidx

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	var m index
	if _, ok := m.Get(0); ok {
		t.Fatal("empty map claims membership")
	}
	m.Delete(7) // no-op on empty
	m.Put(0, 10)
	m.Put(1, 11)
	m.Put(0, 20) // overwrite
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(0); !ok || v != 20 {
		t.Fatalf("Get(0) = %d,%v, want 20,true", v, ok)
	}
	if v, ok := m.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d,%v, want 11,true", v, ok)
	}
	m.Delete(0)
	if _, ok := m.Get(0); ok || m.Len() != 1 {
		t.Fatal("Delete(0) did not remove the entry")
	}
	if v, ok := m.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) after delete = %d,%v, want 11,true", v, ok)
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("len after Clear = %d", m.Len())
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("Clear left an entry behind")
	}
}

func TestNegativeValues(t *testing.T) {
	var m index
	m.Put(5, -3)
	if v, ok := m.Get(5); !ok || v != -3 {
		t.Fatalf("Get(5) = %d,%v, want -3,true", v, ok)
	}
}

// TestOracle drives an index and a builtin map through the same randomized
// op sequence — including key ranges chosen to force long probe chains,
// growth, and back-shift deletion — and requires identical contents.
func TestOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m index
	ref := map[uint32]int32{}
	for op := 0; op < 200000; op++ {
		// Small key range → heavy collision/overwrite/delete traffic.
		k := uint32(rng.Intn(512))
		switch rng.Intn(3) {
		case 0, 1:
			v := int32(rng.Intn(1 << 20))
			m.Put(k, v)
			ref[k] = v
		case 2:
			m.Delete(k)
			delete(ref, k)
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("len = %d, ref %d", m.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v, ref %d", k, got, ok, v)
		}
	}
	for k := uint32(0); k < 512; k++ {
		if _, inRef := ref[k]; !inRef {
			if _, ok := m.Get(k); ok {
				t.Fatalf("Get(%d) true, ref absent", k)
			}
		}
	}
}

// TestSequentialKeys mirrors the real workload: peer IDs allocated
// sequentially, positions shuffled by swap-removes.
func TestSequentialKeys(t *testing.T) {
	var m index
	const n = 10000
	for k := uint32(0); k < n; k++ {
		m.Put(k, int32(k))
	}
	for k := uint32(0); k < n; k += 2 {
		m.Delete(k)
	}
	if m.Len() != n/2 {
		t.Fatalf("len = %d, want %d", m.Len(), n/2)
	}
	for k := uint32(0); k < n; k++ {
		v, ok := m.Get(k)
		if k%2 == 0 {
			if ok {
				t.Fatalf("Get(%d) survived deletion", k)
			}
		} else if !ok || v != int32(k) {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", k, v, ok, k)
		}
	}
}

// TestPoolBound holds a pool to the bound its doc states: after a wave of
// indexes is released it keeps at most as many spare indexes as are still
// in use, and at least one; a recycled index comes back empty.
func TestPoolBound(t *testing.T) {
	var p pool
	held := make([]*index, 8)
	for i := range held {
		held[i] = p.Get()
		for k := uint32(0); k < 40; k++ {
			held[i].Put(k, int32(k))
		}
	}
	for i, m := range held[:6] {
		p.Release(m)
		if got, limit := len(p.maps), max(len(held)-1-i, 1); got > limit {
			t.Fatalf("%d spare indexes with %d in use, want at most %d", got, len(held)-1-i, limit)
		}
	}
	p.Release(held[6])
	p.Release(held[7])
	if len(p.maps) != 1 {
		t.Fatalf("%d spare indexes with none in use, want 1", len(p.maps))
	}
	if m := p.Get(); m.Len() != 0 || m.pool != &p {
		t.Fatalf("recycled index holds %d entries, bound to %p", m.Len(), m.pool)
	}
}

func BenchmarkPutGetDelete(b *testing.B) {
	var m index
	for i := 0; i < b.N; i++ {
		k := uint32(i) & 1023
		m.Put(k, int32(i))
		m.Get(k ^ 511)
		m.Delete(k &^ 7)
	}
}
