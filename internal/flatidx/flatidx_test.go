package flatidx

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"dlm/internal/msg"
	"dlm/internal/spare"
)

// entry is a second value shape, the query index's: wider than a word's
// half, so the table's slots are 12 bytes instead of 8.
type entry struct {
	refs     uint32
	provider msg.PeerID
}

func TestBasicOps(t *testing.T) {
	var m Table[int32]
	if m.Find(0) >= 0 {
		t.Fatal("empty table claims membership")
	}
	*m.Claim(0, nil) = 10
	*m.Claim(1, nil) = 11
	if v := m.Claim(0, nil); *v != 10 {
		t.Fatalf("Claim of a present id = %d, want its value 10", *v)
	} else {
		*v = 20
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if i := m.Find(0); i < 0 || *m.At(i) != 20 {
		t.Fatalf("Find(0) = %d, want the position of 20", i)
	}
	if i := m.Find(1); i < 0 || *m.At(i) != 11 {
		t.Fatalf("Find(1) = %d, want the position of 11", i)
	}
	m.Release(m.Find(0))
	if m.Find(0) >= 0 || m.Len() != 1 {
		t.Fatal("Release did not remove id 0")
	}
	if i := m.Find(1); i < 0 || *m.At(i) != 11 {
		t.Fatalf("Find(1) after release = %d, want the position of 11", i)
	}
	if *m.Claim(0, nil) != 0 {
		t.Fatal("a released slot came back with its old value")
	}
	m.Clear()
	if m.Len() != 0 || m.Find(1) >= 0 {
		t.Fatalf("Clear left %d entries, Find(1) = %d", m.Len(), m.Find(1))
	}
	// NoPeer is ID 0 and the maximum ID short of the reserved ^0 is an
	// ordinary key too.
	*m.Claim(msg.NoPeer, nil) = 1
	*m.Claim(^msg.PeerID(1), nil) = 2
	if i, j := m.Find(msg.NoPeer), m.Find(^msg.PeerID(1)); i < 0 || j < 0 || *m.At(i) != 1 || *m.At(j) != 2 {
		t.Fatalf("Find(NoPeer) = %d, Find(^1) = %d", i, j)
	}
}

func TestNegativeValues(t *testing.T) {
	var m Table[int32]
	*m.Claim(5, nil) = -3
	if i := m.Find(5); i < 0 || *m.At(i) != -3 {
		t.Fatalf("Find(5) = %d, want the position of -3", i)
	}
}

// checkTable holds m to its reference and to its own invariants: the
// array is empty or a power of two of at least minSlots at most 3/4 full,
// the count matches the occupied slots, every entry is reachable from its
// home, and every ID in [0, universe) is found exactly when the reference
// holds it, with the reference's value.
func checkTable[V comparable](m *Table[V], ref map[msg.PeerID]V, universe int) error {
	size := len(m.slots)
	if size != 0 && (size < minSlots || size&(size-1) != 0 || 4*m.n > 3*size) {
		return fmt.Errorf("%d slots holding %d entries, want a power of two >= %d at most 3/4 full", size, m.n, minSlots)
	}
	occupied := 0
	for i, s := range m.slots {
		if s.key == 0 {
			continue
		}
		occupied++
		if got := m.Find(msg.PeerID(s.key - 1)); got != i {
			return fmt.Errorf("id %d at position %d, Find says %d", s.key-1, i, got)
		}
	}
	if occupied != m.n || m.n != len(ref) {
		return fmt.Errorf("%d slots occupied, the table counts %d, reference holds %d", occupied, m.n, len(ref))
	}
	for id := msg.PeerID(0); int(id) < universe; id++ {
		want, ok := ref[id]
		i := m.Find(id)
		if (i >= 0) != ok || ok && *m.At(i) != want {
			return fmt.Errorf("Find(%d) = %d, reference holds it: %v", id, i, ok)
		}
	}
	return nil
}

// tableArrays checks that no array is held by two tables at once. held
// maps each array a table holds to that table; seen maps every array any
// table held at an earlier call to its last holder. It returns the number
// of tables holding an array seen before under another table — one the
// store handed on.
func tableArrays[V any](tables []Table[V], held, seen map[*Slot[V]]int) (recycled int, err error) {
	clear(held)
	for k := range tables {
		if tables[k].slots == nil {
			continue
		}
		a := unsafe.SliceData(tables[k].slots)
		if other, ok := held[a]; ok {
			return 0, fmt.Errorf("tables %d and %d share one array", other, k)
		}
		held[a] = k
		if by, ok := seen[a]; ok && by != k {
			recycled++
		}
	}
	for a, k := range held {
		seen[a] = k
	}
	return recycled, nil
}

// oracle drives tables that share one store, each against a Go map,
// through one random sequence of claims, releases, clears and frees over
// a key range that alternates between a few dozen IDs — long probe chains
// and heavy back-shifting — and a few hundred, which grows the tables.
func oracle[V comparable](t *testing.T, val func(*rand.Rand) V) {
	var st spare.Slices[Slot[V]]
	tables := make([]Table[V], 6)
	refs := make([]map[msg.PeerID]V, len(tables))
	for k := range refs {
		refs[k] = map[msg.PeerID]V{}
	}
	held, seen := map[*Slot[V]]int{}, map[*Slot[V]]int{}
	rng := rand.New(rand.NewSource(1))
	var shifts, recycled, universe int
	for step := 0; step < 100000; step++ {
		if step%2000 == 0 {
			universe = []int{40, 400}[rng.Intn(2)]
		}
		k := rng.Intn(len(tables))
		m, ref := &tables[k], refs[k]
		id := msg.PeerID(rng.Intn(universe))
		switch op := rng.Intn(1000); {
		case op < 2:
			m.Clear()
			clear(ref)
		case op < 6:
			m.Free(&st)
			clear(ref)
		case op < 500:
			v := val(rng)
			*m.Claim(id, &st) = v
			ref[id] = v
		default:
			if i := m.Find(id); i >= 0 {
				if next := m.slots[(i+1)&(len(m.slots)-1)]; next.key != 0 {
					shifts++
				}
				m.Release(i)
			}
			delete(ref, id)
		}
		if step%16 == 0 || universe == 40 {
			if err := checkTable(m, ref, universe); err != nil {
				t.Fatalf("step %d, table %d: %v", step, k, err)
			}
		}
		got, err := tableArrays(tables, held, seen)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		recycled += got
	}
	if shifts < 1000 || recycled < 20 {
		t.Fatalf("run is vacuous: %d releases inside a probe chain, %d arrays handed on", shifts, recycled)
	}
}

// TestOracle is the differential test of Table against a Go map, for both
// value shapes in use: a Set's positions and the query index's entries.
func TestOracle(t *testing.T) {
	t.Run("int32", func(t *testing.T) {
		oracle(t, func(r *rand.Rand) int32 { return int32(r.Intn(1<<20)) - 1<<19 })
	})
	t.Run("entry", func(t *testing.T) {
		oracle(t, func(r *rand.Rand) entry { return entry{uint32(r.Intn(9)), msg.PeerID(r.Intn(1 << 20))} })
	})
}

// TestSequentialKeys mirrors the real workload: peer IDs allocated
// sequentially, positions shuffled by swap-removes.
func TestSequentialKeys(t *testing.T) {
	var m Table[int32]
	const n = 10000
	for k := msg.PeerID(0); k < n; k++ {
		*m.Claim(k, nil) = int32(k)
	}
	for k := msg.PeerID(0); k < n; k += 2 {
		m.Release(m.Find(k))
	}
	if m.Len() != n/2 {
		t.Fatalf("len = %d, want %d", m.Len(), n/2)
	}
	for k := msg.PeerID(0); k < n; k++ {
		i := m.Find(k)
		if k%2 == 0 {
			if i >= 0 {
				t.Fatalf("Find(%d) survived its release", k)
			}
		} else if i < 0 || *m.At(i) != int32(k) {
			t.Fatalf("Find(%d) = %d, want the position of %d", k, i, k)
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
		for k := msg.PeerID(0); k < 40; k++ {
			*held[i].Claim(k, p.tables()) = int32(k)
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
	if m := p.Get(); m.Len() != 0 || m.slots != nil {
		t.Fatalf("recycled index holds %d entries in %d slots", m.Len(), len(m.slots))
	}
}

// FuzzTable runs a byte script on two tables that share one store, each
// against a Go map, with checkTable and the aliasing check after every op.
// The script is read in pairs: the first byte's low bit picks the table
// and its next two bits the op — claim (storing the op byte), release
// (when present), clear, free — and the second byte is the ID.
func FuzzTable(f *testing.F) {
	var grow []byte
	for id := byte(0); id < 40; id++ {
		grow = append(grow, 0, id*16)
	}
	f.Add(grow)
	f.Add(append(append([]byte{}, grow...), 2, 0, 2, 16, 4, 0, 6, 0, 1, 3))
	f.Add([]byte{0, 1, 0, 17, 2, 1, 0, 33, 2, 17, 7, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, script []byte) {
		var st spare.Slices[Slot[int32]]
		tables := make([]Table[int32], 2)
		refs := []map[msg.PeerID]int32{{}, {}}
		held, seen := map[*Slot[int32]]int{}, map[*Slot[int32]]int{}
		for i := 0; i+1 < len(script); i += 2 {
			op, id := script[i], msg.PeerID(script[i+1])
			m, ref := &tables[op&1], refs[op&1]
			switch op >> 1 & 3 {
			case 0:
				*m.Claim(id, &st) = int32(op)
				ref[id] = int32(op)
			case 1:
				if j := m.Find(id); j >= 0 {
					m.Release(j)
				}
				delete(ref, id)
			case 2:
				m.Clear()
				clear(ref)
			case 3:
				m.Free(&st)
				clear(ref)
			}
			if err := checkTable(m, ref, 256); err != nil {
				t.Fatalf("op %d (%#02x %d): %v", i/2, op, id, err)
			}
			if _, err := tableArrays(tables, held, seen); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}

func BenchmarkClaimFindRelease(b *testing.B) {
	var m Table[int32]
	for i := 0; i < b.N; i++ {
		k := msg.PeerID(i) & 1023
		*m.Claim(k, nil) = int32(i)
		m.Find(k ^ 511)
		if j := m.Find(k &^ 7); j >= 0 {
			m.Release(j)
		}
	}
}
