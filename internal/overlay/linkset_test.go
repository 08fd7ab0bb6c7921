package overlay

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"dlm/internal/flatidx"
	"dlm/internal/msg"
	"dlm/internal/spare"
)

// addLink records id in s the way linkInto does, after Connect's duplicate
// check; it reports whether id was absent.
func addLink(s *flatidx.Set, id msg.PeerID, st *flatidx.Store) bool {
	if s.Contains(id) {
		return false
	}
	s.Append(id, st)
	return true
}

// linkHeap returns the heap array behind a link set, or nil while its IDs
// sit in the set's inline array.
func linkHeap(s *flatidx.Set) unsafe.Pointer {
	at := unsafe.Pointer(unsafe.SliceData(s.IDs()))
	lo := uintptr(unsafe.Pointer(s))
	if lo <= uintptr(at) && uintptr(at) < lo+unsafe.Sizeof(*s) {
		return nil
	}
	return at
}

// sharedLinkHeap returns a description of the first heap array held by two
// live link sets at once, or "".
func sharedLinkHeap(sets []*flatidx.Set) string {
	held := make(map[unsafe.Pointer]int, len(sets))
	for i, s := range sets {
		at := linkHeap(s)
		if at == nil {
			continue
		}
		if j, ok := held[at]; ok {
			return fmt.Sprintf("sets %d and %d share storage", j, i)
		}
		held[at] = i
	}
	return ""
}

func TestLinkSet(t *testing.T) {
	var p Peer
	var st flatidx.Store
	s := &p.superLinks
	if s.Len() != 0 || s.Contains(1) || s.Remove(1) {
		t.Fatal("empty set misbehaves")
	}
	for i := msg.PeerID(1); i <= 10; i++ {
		if !addLink(s, i, &st) {
			t.Fatalf("Add(%d) failed", i)
		}
	}
	if addLink(s, 5, &st) {
		t.Fatal("duplicate Add succeeded")
	}
	if !s.Remove(5) || s.Contains(5) || s.Len() != 9 {
		t.Fatal("Remove misbehaves")
	}
	// Remove the last element path.
	last := s.IDs()[s.Len()-1]
	if !s.Remove(last) {
		t.Fatal("remove last failed")
	}
	for i := msg.PeerID(1); i <= 10; i++ {
		want := i != 5 && i != last
		if s.Contains(i) != want {
			t.Fatalf("Contains(%d) = %v after removals", i, !want)
		}
	}
	s.Clear(&st)
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("Clear misbehaves")
	}
}

// TestLinkSetIndexed drives a peer's link set past flatidx.IndexThreshold
// so the position index engages, and checks that indexed behavior matches
// the scanned behavior (same membership, same swap-delete order) through
// adds, removes, a Clear, and a regrowth.
func TestLinkSetIndexed(t *testing.T) {
	var p Peer
	var st flatidx.Store
	s := &p.leafLinks
	n := msg.PeerID(3 * flatidx.IndexThreshold)
	for i := msg.PeerID(1); i <= n; i++ {
		if !addLink(s, i, &st) {
			t.Fatalf("Add(%d) failed", i)
		}
	}
	if !s.Indexed() {
		t.Fatalf("index not built at size %d", s.Len())
	}
	if bad := s.Check(); bad != "" {
		t.Fatal(bad)
	}
	if addLink(s, n/2, &st) {
		t.Fatal("duplicate Add succeeded with index")
	}
	// Mirror the order against a scan-only twin: the index must not
	// change which element a removal swaps into place.
	twin := refLinks(slices.Clone(s.IDs()))
	for _, id := range []msg.PeerID{1, n, n / 2, 7, 7} {
		if got, want := s.Remove(id), twin.remove(id); got != want {
			t.Fatalf("Remove(%d) = %v, scan twin says %v", id, got, want)
		}
		if bad := s.Check(); bad != "" {
			t.Fatal(bad)
		}
	}
	if !slices.Equal(s.IDs(), []msg.PeerID(twin)) {
		t.Fatalf("item order diverged: %v != %v", s.IDs(), twin)
	}
	for i := msg.PeerID(1); i <= n; i++ {
		if s.Contains(i) != slices.Contains(twin, i) {
			t.Fatalf("Contains(%d) diverged", i)
		}
	}
	s.Clear(&st)
	if s.Len() != 0 || s.Contains(2) || s.Indexed() {
		t.Fatal("Clear misbehaves with index")
	}
	if !addLink(s, 2, &st) || !s.Contains(2) || s.Len() != 1 {
		t.Fatal("regrowth after Clear misbehaves")
	}
	if bad := s.Check(); bad != "" {
		t.Fatal(bad)
	}
}

// refLinks is the reference model of a link set: a plain slice, scanned,
// appended to and swap-deleted.
type refLinks []msg.PeerID

func (r *refLinks) add(id msg.PeerID) bool {
	if slices.Contains(*r, id) {
		return false
	}
	*r = append(*r, id)
	return true
}

func (r *refLinks) remove(id msg.PeerID) bool {
	i := slices.Index(*r, id)
	if i < 0 {
		return false
	}
	last := len(*r) - 1
	(*r)[i] = (*r)[last]
	*r = (*r)[:last]
	return true
}

// TestLinkSetSpillDifferential drives the super and leaf link sets of two
// peers, which share one flatidx.Store as a network's peers do, and a
// plain-slice reference (refLinks) for each through one random
// Add/Remove/Clear sequence that crosses the inline capacity and the index
// threshold in both directions. It requires the same results, the same
// (insertion, swap-remove) order and the same membership after every step.
// A cleared set must be the zero value: no heap slice, no index. No heap
// array may be held by two live sets at once.
func TestLinkSetSpillDifferential(t *testing.T) {
	var st flatidx.Store
	peers := make([]Peer, 2)
	sets := []*flatidx.Set{&peers[0].superLinks, &peers[0].leafLinks, &peers[1].superLinks, &peers[1].leafLinks}
	refs := make([]refLinks, len(sets))
	rng := rand.New(rand.NewSource(24))
	var spills, returns, idxBuilt, idxDropped, shrunk, reused int
	seen := map[unsafe.Pointer]bool{}
	universe := 6
	for step := 0; step < 200000; step++ {
		if step%1600 == 0 {
			// A handful of IDs keeps the sets around spare.Inline; a few
			// dozen carry them past flatidx.IndexThreshold.
			universe = []int{3, 6, 10, 3 * flatidx.IndexThreshold}[rng.Intn(4)]
		}
		k := rng.Intn(len(sets))
		s, ref := sets[k], &refs[k]
		id := msg.PeerID(1 + rng.Intn(universe))
		held := linkHeap(s)
		wasIdx, wasN := s.Indexed(), s.Len()
		switch op := rng.Intn(100); {
		case rng.Intn(300) == 0:
			s.Clear(&st)
			*ref = (*ref)[:0]
			if !reflect.ValueOf(*s).IsZero() {
				t.Fatalf("step %d: cleared set is not the zero value: %+v", step, *s)
			}
		case op < 50:
			if got, want := addLink(s, id, &st), ref.add(id); got != want {
				t.Fatalf("step %d: Add(%d) = %v, reference %v", step, id, got, want)
			}
		default:
			if got, want := s.Remove(id), ref.remove(id); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, reference %v", step, id, got, want)
			}
		}
		at := linkHeap(s)
		if held == nil && at != nil {
			spills++
		}
		if held != nil && at == nil {
			returns++
		}
		if !wasIdx && s.Indexed() {
			idxBuilt++
		}
		if wasIdx && !s.Indexed() {
			idxDropped++
		}
		if at != nil && wasN > spare.Inline && s.Len() <= spare.Inline {
			shrunk++
		}
		if at != nil && at != held {
			if seen[at] {
				reused++
			}
			seen[at] = true
		}
		if bad := s.Check(); bad != "" {
			t.Fatalf("step %d: %s", step, bad)
		}
		if bad := sharedLinkHeap(sets); bad != "" {
			t.Fatalf("step %d: %s", step, bad)
		}
		if s.Len() != len(*ref) || !slices.Equal(s.IDs(), []msg.PeerID(*ref)) {
			t.Fatalf("step %d: set %v, reference %v", step, s.IDs(), *ref)
		}
		for v := msg.PeerID(1); int(v) <= universe; v++ {
			if s.Contains(v) != slices.Contains(*ref, v) {
				t.Fatalf("step %d: Contains(%d) = %v, reference disagrees", step, v, s.Contains(v))
			}
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

// TestLinkSetCopyIsIndependent pins the representation: nothing in a link
// set points into it, so a copied inline set (and a copied Peer) shares no
// storage with the original.
func TestLinkSetCopyIsIndependent(t *testing.T) {
	var a Peer
	var st flatidx.Store
	for id := msg.PeerID(1); id <= spare.Inline; id++ {
		addLink(&a.superLinks, id, &st)
	}
	b := a
	a.superLinks.Remove(1)
	addLink(&a.superLinks, 9, &st)
	if !slices.Equal(b.superLinks.IDs(), []msg.PeerID{1, 2, 3, 4}) {
		t.Fatalf("mutating the original changed the copy: %v", b.superLinks.IDs())
	}
}
