package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"dlm/internal/msg"
)

// TestLinkSetSpillDifferential drives four linkSets that share one
// linkSpares store, as a network's peers do, and a plain-slice reference
// (refLinks) for each through one random Add/Remove/Clear sequence that
// crosses the inline capacity and the index threshold in both directions.
// It requires the same results, the same (insertion, swap-remove) order and
// the same membership after every step. An emptied set must be the zero
// value: no heap slice, no index. No backing array or index may be held by
// two live sets at once.
func TestLinkSetSpillDifferential(t *testing.T) {
	var sp linkSpares
	sets := make([]linkSet, 4)
	refs := make([]refLinks, len(sets))
	rng := rand.New(rand.NewSource(24))
	var spills, returns, idxBuilt, idxDropped, shrunk, reused int
	seen := map[unsafe.Pointer]bool{}
	universe := 6
	for step := 0; step < 200000; step++ {
		if step%1600 == 0 {
			// A handful of IDs keeps the sets around linkInline; a few
			// dozen carry them past linkIndexThreshold.
			universe = []int{3, 6, 10, 3 * linkIndexThreshold}[rng.Intn(4)]
		}
		k := rng.Intn(len(sets))
		s, ref := &sets[k], &refs[k]
		id := msg.PeerID(1 + rng.Intn(universe))
		wasHeap, wasIdx, wasN := s.heap != nil, s.idx != nil, s.Len()
		held := linkStorage(s)
		switch op := rng.Intn(100); {
		case rng.Intn(300) == 0:
			s.Clear(&sp)
			*ref = (*ref)[:0]
		case op < 50:
			if got, want := s.Add(id, &sp), ref.add(id); got != want {
				t.Fatalf("step %d: Add(%d) = %v, reference %v", step, id, got, want)
			}
		default:
			if got, want := s.Remove(id, &sp), ref.remove(id); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, reference %v", step, id, got, want)
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
		if s.heap != nil && wasN > linkInline && s.Len() <= linkInline {
			shrunk++
		}
		for i, at := range linkStorage(s) {
			if at != nil && at != held[i] {
				if seen[at] {
					reused++
				}
				seen[at] = true
			}
		}
		if bad := s.checkIdx(); bad != "" {
			t.Fatalf("step %d: %s", step, bad)
		}
		if bad := sharedLinkStorage(sets); bad != "" {
			t.Fatalf("step %d: %s", step, bad)
		}
		if s.Len() != len(*ref) || !slices.Equal(s.list(), []msg.PeerID(*ref)) {
			t.Fatalf("step %d: set %v, reference %v", step, s.list(), *ref)
		}
		for v := msg.PeerID(1); int(v) <= universe; v++ {
			if s.Contains(v) != slices.Contains(*ref, v) {
				t.Fatalf("step %d: Contains(%d) = %v, reference disagrees", step, v, s.Contains(v))
			}
		}
		if s.Len() == 0 && (s.heap != nil || s.idx != nil || s.buf != [linkInline]msg.PeerID{}) {
			t.Fatalf("step %d: emptied set is not the zero value: %+v", step, *s)
		}
	}
	t.Logf("spills %d, returns to inline %d, index built %d, dropped %d, heap-held back at inline size %d, storage reused %d",
		spills, returns, idxBuilt, idxDropped, shrunk, reused)
	const floor = 20
	for name, n := range map[string]int{"spills": spills, "returns to inline": returns,
		"index builds": idxBuilt, "index drops": idxDropped, "heap-held shrinks to inline size": shrunk,
		"reuses of released storage": reused} {
		if n < floor {
			t.Errorf("coverage: %d %s, want at least %d", n, name, floor)
		}
	}
}

// linkStorage returns a set's heap array and index, nil where it holds
// none.
func linkStorage(s *linkSet) [2]unsafe.Pointer {
	return [2]unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(s.heap)), unsafe.Pointer(s.idx)}
}

// sharedLinkStorage returns a description of the first backing array or
// index held by two live sets at once, or "".
func sharedLinkStorage(sets []linkSet) string {
	held := make(map[unsafe.Pointer]int, 2*len(sets))
	for i := range sets {
		for _, at := range linkStorage(&sets[i]) {
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

// TestLinkSetCopyIsIndependent pins the representation: nothing in a set
// points into it, so a copied inline set (and a copied Peer) shares no
// storage with the original.
func TestLinkSetCopyIsIndependent(t *testing.T) {
	var a linkSet
	var sp linkSpares
	for id := msg.PeerID(1); id <= linkInline; id++ {
		a.Add(id, &sp)
	}
	b := a
	a.Remove(1, &sp)
	a.Add(9, &sp)
	if !slices.Equal(b.list(), []msg.PeerID{1, 2, 3, 4}) {
		t.Fatalf("mutating the original changed the copy: %v", b.list())
	}
}

// TestPeerLayout holds Peer's layout comment to its word — what the tick
// walk and a delivery read is the first 64 bytes — and caps the struct, so
// that the inline link IDs do not quietly grow every slab page.
func TestPeerLayout(t *testing.T) {
	var p Peer
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"ID", unsafe.Offsetof(p.ID) + unsafe.Sizeof(p.ID)},
		{"slot", unsafe.Offsetof(p.slot) + unsafe.Sizeof(p.slot)},
		{"Layer", unsafe.Offsetof(p.Layer) + unsafe.Sizeof(p.Layer)},
		{"alive", unsafe.Offsetof(p.alive) + unsafe.Sizeof(p.alive)},
		{"State", unsafe.Offsetof(p.State) + unsafe.Sizeof(p.State)},
		{"Capacity", unsafe.Offsetof(p.Capacity) + unsafe.Sizeof(p.Capacity)},
		{"JoinTime", unsafe.Offsetof(p.JoinTime) + unsafe.Sizeof(p.JoinTime)},
		{"MisreportCapFactor", unsafe.Offsetof(p.MisreportCapFactor) + unsafe.Sizeof(p.MisreportCapFactor)},
		{"MisreportAgeBoost", unsafe.Offsetof(p.MisreportAgeBoost) + unsafe.Sizeof(p.MisreportAgeBoost)},
	} {
		if f.end > 64 {
			t.Errorf("%s ends at byte %d, outside the first 64", f.name, f.end)
		}
	}
	if got := unsafe.Offsetof(p.superLinks); got != 64 {
		t.Errorf("superLinks at byte %d, want 64", got)
	}
	if got := unsafe.Sizeof(p.superLinks); got > 56 {
		t.Errorf("Sizeof(linkSet) = %d, want <= 56", got)
	}
	if got := unsafe.Sizeof(p); got > 216 {
		t.Errorf("Sizeof(Peer) = %d, want <= 216", got)
	}
}
