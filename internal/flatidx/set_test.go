package flatidx

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"dlm/internal/msg"
	"dlm/internal/spare"
)

// refSet is the reference model of a Set: a plain slice, scanned,
// appended to, swap-deleted and compacted.
type refSet []msg.PeerID

func (r *refSet) remove(id msg.PeerID) bool {
	i := slices.Index(*r, id)
	if i < 0 {
		return false
	}
	last := len(*r) - 1
	(*r)[i] = (*r)[last]
	*r = (*r)[:last]
	return true
}

// storage returns a set's heap array, index and index table, nil where it
// holds none.
func storage(s *Set) [3]unsafe.Pointer {
	at := [3]unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(s.heap))}
	if s.idx != nil {
		at[1], at[2] = unsafe.Pointer(s.idx), unsafe.Pointer(unsafe.SliceData(s.idx.slots))
	}
	return at
}

// sharedStorage returns a description of the first heap array, index or
// table held by two live sets at once, or "".
func sharedStorage(sets []Set) string {
	held := make(map[unsafe.Pointer]int, 3*len(sets))
	for i := range sets {
		for _, at := range storage(&sets[i]) {
			if at == nil {
				continue
			}
			if j, ok := held[at]; ok {
				return fmt.Sprintf("sets %d and %d share storage", j, i)
			}
			held[at] = i
		}
	}
	return ""
}

// check compares s with its reference after an op: Check, the order, the
// membership of every ID in 1..universe, and no storage shared with the
// other sets.
func check(s *Set, ref refSet, sets []Set, universe int) string {
	if bad := s.Check(); bad != "" {
		return bad
	}
	if bad := sharedStorage(sets); bad != "" {
		return bad
	}
	if s.Len() != len(ref) || !slices.Equal(s.IDs(), []msg.PeerID(ref)) {
		return fmt.Sprintf("set %v, reference %v", s.IDs(), ref)
	}
	for v := msg.PeerID(1); int(v) <= universe; v++ {
		if s.Contains(v) != slices.Contains(ref, v) {
			return fmt.Sprintf("Contains(%d) = %v, reference disagrees", v, s.Contains(v))
		}
	}
	return ""
}

// TestSetDifferential drives four Sets that share one Store, as a host's
// peers or machines do, and a plain-slice reference for each through one
// random sequence of adds, removals, clears and prune-style compactions
// (compact in place through IDs, then Truncate) that crosses the inline
// capacity and the index threshold in both directions. After every op each
// set must pass Check and agree with its reference on order and
// membership; no heap array, index or table may be held by two live sets;
// a Truncate must keep the set's heap array, index and table; a cleared
// set must be the zero value; and a by-value copy of an inline set must
// not change when the original does.
func TestSetDifferential(t *testing.T) {
	var st Store
	sets := make([]Set, 4)
	refs := make([]refSet, len(sets))
	rng := rand.New(rand.NewSource(24))
	var spills, returns, idxBuilt, idxDropped, shrunk, reused, pruned, idxPruned int
	seen := map[unsafe.Pointer]bool{}
	universe := 6
	for step := 0; step < 200000; step++ {
		if step%1600 == 0 {
			// A handful of IDs keeps the sets around spare.Inline; a few
			// dozen carry them past IndexThreshold.
			universe = []int{3, 6, 10, 3 * IndexThreshold}[rng.Intn(4)]
		}
		k := rng.Intn(len(sets))
		s, ref := &sets[k], &refs[k]
		id := msg.PeerID(1 + rng.Intn(universe))
		wasHeap, wasIdx, wasN := s.heap != nil, s.idx != nil, s.Len()
		held := storage(s)
		var cp Set
		var snap []msg.PeerID
		if !wasHeap {
			cp, snap = *s, slices.Clone(s.IDs())
		}
		switch op := rng.Intn(100); {
		case rng.Intn(300) == 0:
			s.Clear(&st)
			*ref = (*ref)[:0]
			if s.heap != nil || s.idx != nil || s.n != 0 || s.buf != [spare.Inline]msg.PeerID{} {
				t.Fatalf("step %d: cleared set is not the zero value: %+v", step, *s)
			}
		case op < 3:
			// Prune: keep the IDs off one residue class, in order.
			mod, drop := msg.PeerID(2+rng.Intn(3)), msg.PeerID(rng.Intn(2))
			ids, keep := s.IDs(), 0
			for _, v := range ids {
				if v%mod != drop {
					ids[keep] = v
					keep++
				}
			}
			s.Truncate(keep)
			*ref = slices.DeleteFunc(*ref, func(v msg.PeerID) bool { return v%mod == drop })
			if storage(s) != held {
				t.Fatalf("step %d: Truncate changed the set's storage", step)
			}
			if keep < wasN {
				pruned++
				if wasIdx {
					idxPruned++
				}
			}
		case op < 50:
			// check below verified the membership Append relies on.
			if !slices.Contains(*ref, id) {
				s.Append(id, &st)
				*ref = append(*ref, id)
			}
		default:
			if got, want := s.Remove(id), ref.remove(id); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, reference %v", step, id, got, want)
			}
		}
		if !wasHeap {
			if !slices.Equal(cp.IDs(), snap) {
				t.Fatalf("step %d: mutating the set changed its copy: %v, was %v", step, cp.IDs(), snap)
			}
		}
		if !wasHeap && s.heap != nil {
			spills++
		}
		if wasHeap && s.heap == nil {
			returns++
		}
		if !wasIdx && s.idx != nil {
			idxBuilt++
		}
		if wasIdx && s.idx == nil {
			idxDropped++
		}
		if s.heap != nil && wasN > spare.Inline && s.Len() <= spare.Inline {
			shrunk++
		}
		for i, at := range storage(s) {
			if at != nil && at != held[i] {
				if seen[at] {
					reused++
				}
				seen[at] = true
			}
		}
		if bad := check(s, *ref, sets, universe); bad != "" {
			t.Fatalf("step %d: %s", step, bad)
		}
	}
	t.Logf("spills %d, returns to inline %d, index built %d, dropped %d, heap-held back at inline size %d, storage reused %d, prunes %d (indexed %d)",
		spills, returns, idxBuilt, idxDropped, shrunk, reused, pruned, idxPruned)
	const floor = 20
	for name, n := range map[string]int{"spills": spills, "returns to inline": returns,
		"index builds": idxBuilt, "index drops": idxDropped, "heap-held shrinks to inline size": shrunk,
		"reuses of released storage": reused, "prunes": pruned, "indexed prunes": idxPruned} {
		if n < floor {
			t.Errorf("coverage: %d %s, want at least %d", n, name, floor)
		}
	}
}

// TestSetLayout pins what a host's layout relies on: a Set leads with its
// count and its inline IDs (protocol's TestMachineLayout places both in
// the Machine's first cache line) and is no larger than 56 bytes.
func TestSetLayout(t *testing.T) {
	var s Set
	if unsafe.Offsetof(s.n) != 0 || unsafe.Offsetof(s.buf) != unsafe.Sizeof(s.n) {
		t.Errorf("count at byte %d, inline IDs at %d: want 0 and %d", unsafe.Offsetof(s.n), unsafe.Offsetof(s.buf), unsafe.Sizeof(s.n))
	}
	if got := unsafe.Sizeof(s); got > 56 {
		t.Errorf("Sizeof(Set) = %d, want <= 56", got)
	}
}

// FuzzSet runs a byte script on two sets that share one store, each
// against a plain-slice reference, with Check and the aliasing check after
// every op. The script is read in pairs: the first byte's low bit picks
// the set and its next two bits the op — append (when absent), remove,
// truncate to a prefix, clear — and the second byte is the ID (plus one)
// or the prefix length.
func FuzzSet(f *testing.F) {
	var grow []byte
	for id := byte(0); id < 40; id++ {
		grow = append(grow, 0, id)
	}
	f.Add(grow)
	f.Add(append(slices.Clone(grow), 2, 7, 4, 20, 2, 30, 6, 0, 1, 3))
	f.Add([]byte{0, 1, 0, 2, 2, 1, 4, 0, 1, 5, 7, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, script []byte) {
		var st Store
		sets := make([]Set, 2)
		refs := make([]refSet, len(sets))
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			s, ref := &sets[op&1], &refs[op&1]
			id := msg.PeerID(arg) + 1
			switch op >> 1 & 3 {
			case 0:
				if !slices.Contains(*ref, id) {
					s.Append(id, &st)
					*ref = append(*ref, id)
				}
			case 1:
				if got, want := s.Remove(id), ref.remove(id); got != want {
					t.Fatalf("op %d: Remove(%d) = %v, reference %v", i/2, id, got, want)
				}
			case 2:
				n := int(arg) % (s.Len() + 1)
				s.Truncate(n)
				*ref = (*ref)[:n]
			case 3:
				s.Clear(&st)
				*ref = (*ref)[:0]
			}
			if bad := check(s, *ref, sets, 256); bad != "" {
				t.Fatalf("op %d (%#02x %d): %s", i/2, op, arg, bad)
			}
		}
	})
}
