package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The ring's contract: which structure an event waits in never changes
// when it fires. These tests pin that against a stable-sort reference and
// against an engine that never uses the ring.

// TestRingAndHeapMatchStableSortReference is the differential test of the
// two-structure engine: a long random interleaving of Step with Schedule,
// AfterLane and AfterFIFO — the last at two different constant delays, so
// the later, shorter one is refused by the ring and falls back to the
// heap, and at delay zero — some of it issued from inside a firing event.
// All times are small integers, so ring head and heap root tie on the
// timestamp constantly, with either one the older. Firing order must be
// that of a reference list kept stably sorted by time, i.e. (at, seq), and
// Pending must agree after every operation.
func TestRingAndHeapMatchStableSortReference(t *testing.T) {
	type refEvent struct {
		at Time
		id int
	}
	rng := rand.New(rand.NewSource(23))
	e := NewEngine(1)
	var ref []refEvent // pending, in scheduling order until sorted
	fired, nextID := -1, 0
	var admitted, refused int

	var scheduleOne func(depth int)
	scheduleOne = func(depth int) {
		id := nextID
		nextID++
		ev := EventFunc(func(*Engine) {
			fired = id
			for c := rng.Intn(3); c > 0 && depth < 3; c-- {
				scheduleOne(depth + 1) // scheduling from inside Fire
			}
		})
		lane := rng.Intn(numQueues)
		d := Duration(rng.Intn(4))
		switch rng.Intn(5) {
		case 0:
			e.Schedule(e.Now()+d, ev)
		case 1:
			e.AfterLane(lane, d, ev)
		default:
			d = Duration(rng.Intn(3)) // the ring's delays: 0, 1 and 2
			inRing := e.ring.len()
			e.AfterFIFO(lane, d, ev)
			if e.ring.len() > inRing {
				admitted++
			} else {
				refused++
			}
		}
		ref = append(ref, refEvent{e.Now() + d, id})
	}

	var ringOlder, heapOlder int // timestamp ties between ring head and heap root
	const ops = 6000
	for op := 0; op < ops; op++ {
		// Schedule-heavy until a few hundred are pending, then balanced.
		if len(ref) == 0 || rng.Intn(100) < 40+(300-len(ref))/10 {
			scheduleOne(0)
		} else {
			if e.ring.len() > 0 && len(e.queue.keys) > 0 {
				if r, h := e.ring.at(e.ring.head).key, e.queue.keys[0]; r.at == h.at && r.seq < h.seq {
					ringOlder++
				} else if r.at == h.at {
					heapOlder++
				}
			}
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
			want := ref[0]
			ref = ref[1:]
			if !e.Step() {
				t.Fatalf("op %d: Step fired nothing with %d events pending", op, len(ref)+1)
			}
			if fired != want.id || e.Now() != want.at {
				t.Fatalf("op %d: fired event %d at %v, reference order says %d at %v",
					op, fired, e.Now(), want.id, want.at)
			}
		}
		if e.Pending() != len(ref) {
			t.Fatalf("op %d: Pending = %d, reference holds %d", op, e.Pending(), len(ref))
		}
	}
	// The run must have exercised what it claims to.
	if admitted < 500 || refused < 500 || ringOlder < 100 || heapOlder < 100 {
		t.Fatalf("coverage: ring admitted %d and refused %d, ties with the ring head older %d, the heap root older %d",
			admitted, refused, ringOlder, heapOlder)
	}
	if e.EventsFired() < ops/3 {
		t.Fatalf("only %d of %d operations were firings", e.EventsFired(), ops)
	}
}

// mixedBatchRun schedules three same-timestamp groups of batchable probes
// separated by a GlobalLane event and a non-batchable one, and runs them
// under an event budget (0 = none). place chooses the structure: it is
// called with the scheduling index and reports whether that event goes
// through AfterFIFO.
func mixedBatchRun(t *testing.T, budget uint64, place func(i int) bool) (rec *batchRecorder, e *Engine, err error) {
	t.Helper()
	e = NewEngine(1)
	e.MaxEvents = budget
	rec = &batchRecorder{}
	idx := 0
	after := func(lane int, ev Event) {
		if place(idx) {
			e.AfterFIFO(lane, 2, ev)
		} else {
			e.AfterLane(lane, 2, ev)
		}
		idx++
	}
	group := func(from, to int) {
		for i := from; i < to; i++ {
			after((i*5)%NumLanes, &batchProbe{id: i, rec: rec})
		}
	}
	group(0, 9)
	after(GlobalLane, EventFunc(func(*Engine) { rec.serialFire = append(rec.serialFire, -1) }))
	group(9, 18)
	after(3, &batchProbe{id: 100, rec: rec, solo: true})
	group(18, 27)
	return rec, e, e.Run()
}

// TestBatchAlternatesRingAndHeap: a same-timestamp batch whose members sit
// alternately in ring and heap — and variants with everything, or only the
// GlobalLane bound, in the ring — forms the batches an all-heap engine
// forms: same counters, same eval and commit order, bounded by the
// GlobalLane event wherever it waits and by MaxEvents.
func TestBatchAlternatesRingAndHeap(t *testing.T) {
	placements := map[string]func(i int) bool{
		"alternate":    func(i int) bool { return i%2 == 0 },
		"alternateOdd": func(i int) bool { return i%2 == 1 },
		"allRing":      func(i int) bool { return true },
		"globalInRing": func(i int) bool { return i == 9 },
		"globalInHeap": func(i int) bool { return i != 9 },
	}
	for _, budget := range []uint64{0, 5, 14} {
		want, we, wantErr := mixedBatchRun(t, budget, func(int) bool { return false })
		if we.ring.len() != 0 || (budget == 0) != (wantErr == nil) {
			t.Fatalf("budget %d: reference run used the ring (%d) or ended with %v", budget, we.ring.len(), wantErr)
		}
		if budget == 0 && (we.BatchesFired() != 3 || len(want.commits) != 27 || len(want.serialFire) != 2) {
			t.Fatalf("reference run: %d batches, %d commits, serial %v; want 3, 27 and two",
				we.BatchesFired(), len(want.commits), want.serialFire)
		}
		for name, place := range placements {
			got, ge, err := mixedBatchRun(t, budget, place)
			if err != wantErr {
				t.Errorf("%s, budget %d: Run returned %v, all-heap engine %v", name, budget, err, wantErr)
			}
			if ge.BatchesFired() != we.BatchesFired() || ge.LaneEventsFired() != we.LaneEventsFired() ||
				ge.EventsFired() != we.EventsFired() || ge.Pending() != we.Pending() {
				t.Errorf("%s, budget %d: batches/laneFired/fired/pending %d/%d/%d/%d, all-heap engine %d/%d/%d/%d",
					name, budget, ge.BatchesFired(), ge.LaneEventsFired(), ge.EventsFired(), ge.Pending(),
					we.BatchesFired(), we.LaneEventsFired(), we.EventsFired(), we.Pending())
			}
			if !slices.Equal(got.evals, want.evals) || !slices.Equal(got.commits, want.commits) || !slices.Equal(got.serialFire, want.serialFire) {
				t.Errorf("%s, budget %d: evals %v commits %v serial %v, all-heap engine %v %v %v",
					name, budget, got.evals, got.commits, got.serialFire, want.evals, want.commits, want.serialFire)
			}
		}
	}
}
