package sim

import (
	"math/rand"
	"testing"
)

// The lane tag's contract: it never changes when an event fires. These
// tests pin that against the untagged reference, exercise the tie-break
// across lanes, and the same-timestamp batch path.

// laneScript is a pregenerated randomized workload: initial events plus,
// per event, the children it schedules when it fires. The script is lane-annotated but lane-agnostic in meaning — the
// oracle runs it twice, once with every event under GlobalLane and once
// spread across lanes, and demands identical firing order.
type laneScript struct {
	initial  []scriptEvent
	children map[int][]scriptEvent // fired id -> events it schedules
}

type scriptEvent struct {
	id   int
	at   Duration // offset from schedule time (absolute for initial)
	lane int
}

func makeLaneScript(seed int64, initial, maxID int) *laneScript {
	rng := rand.New(rand.NewSource(seed))
	s := &laneScript{children: make(map[int][]scriptEvent)}
	next := 0
	newEvent := func() scriptEvent {
		ev := scriptEvent{
			id: next,
			// Coarse times force heavy ties; fine times exercise ordering.
			at:   Duration(float64(rng.Intn(50)) + float64(rng.Intn(4))*0.25),
			lane: rng.Intn(numQueues), // includes GlobalLane
		}
		next++
		return ev
	}
	for i := 0; i < initial; i++ {
		s.initial = append(s.initial, newEvent())
	}
	for id := 0; id < maxID; id++ {
		for c := rng.Intn(3); c > 0 && next < maxID; c-- {
			ch := newEvent()
			ch.at = Duration(float64(rng.Intn(8))*0.5 + 0.25)
			s.children[id] = append(s.children[id], ch)
		}
	}
	return s
}

// run executes the script and returns the fired-id order. useLanes
// selects the lane annotations; false schedules everything under
// GlobalLane — the untagged reference.
func (s *laneScript) run(t *testing.T, useLanes bool) []int {
	t.Helper()
	e := NewEngine(9)
	var fired []int
	var fire func(ev scriptEvent) EventFunc
	schedule := func(ev scriptEvent, at Time) {
		lane := GlobalLane
		if useLanes {
			lane = ev.lane
		}
		e.ScheduleLane(lane, at, fire(ev))
	}
	fire = func(ev scriptEvent) EventFunc {
		return func(e *Engine) {
			fired = append(fired, ev.id)
			for _, ch := range s.children[ev.id] {
				schedule(ch, e.Now()+Time(ch.at))
			}
		}
	}
	for _, ev := range s.initial {
		schedule(ev, Time(ev.at))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
	return fired
}

// TestLaneShardingOracle is the randomized-interleaving oracle: a scripted
// workload with ties and dynamic scheduling must fire in exactly the same order whether every event is scheduled under
// GlobalLane or spread across all 65 lane tags: firing order is (time,
// engine-global insertion sequence) and nothing else.
func TestLaneShardingOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		s := makeLaneScript(seed, 200, 600)
		ref := s.run(t, false)
		got := s.run(t, true)
		if len(ref) == 0 {
			t.Fatalf("seed %d: empty reference run", seed)
		}
		if len(got) != len(ref) {
			t.Fatalf("seed %d: fired %d events sharded, %d in reference", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: firing order diverges at %d: sharded %d, reference %d",
					seed, i, got[i], ref[i])
			}
		}
	}
}

// TestCrossLaneTieBreakIsFIFO pins the tie-break across queues: events
// scheduled at one timestamp on rotating lanes fire in scheduling order,
// exactly as the single-queue FIFO tie-break test (engine_test.go) pins
// it for one queue.
func TestCrossLaneTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 3*NumLanes; i++ {
		i := i
		e.ScheduleLane((i*7)%numQueues, 5, EventFunc(func(*Engine) { order = append(order, i) }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3*NumLanes {
		t.Fatalf("fired %d, want %d", len(order), 3*NumLanes)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("cross-lane tie order broke at %d: %v...", i, order[:i+1])
		}
	}
}

// TestDrainThenRescheduleAcrossLanes: schedule under two lanes, drain the
// queue, schedule under two fresh lanes, run — an emptied queue accepts
// and fires new events on any lane.
func TestDrainThenRescheduleAcrossLanes(t *testing.T) {
	e := NewEngine(1)
	ev := EventFunc(func(*Engine) {})
	e.ScheduleLane(1, 1, ev)
	e.ScheduleLane(2, 2, ev)
	if err := e.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	e.ScheduleLane(3, 3, ev)
	e.ScheduleLane(4, 3.5, ev)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 || e.EventsFired() != 4 {
		t.Fatalf("fired %d with %d pending, want 4 fired, 0 pending", e.EventsFired(), e.Pending())
	}
}

// batchRecorder is shared state for batchProbe events. evalByLane is
// the lane-confined eval-side record; evals is the global eval order,
// which only an engine that evaluates on the event loop may write.
type batchRecorder struct {
	evalByLane [NumLanes][]int
	evals      []int
	commits    []int
	serialFire []int
}

// batchProbe is a batchable LaneEvent that records where its halves ran.
type batchProbe struct {
	id   int
	rec  *batchRecorder
	solo bool // when true, refuse batching (exercises the mixed path)
}

func (b *batchProbe) Fire(*Engine)    { b.rec.serialFire = append(b.rec.serialFire, b.id) }
func (b *batchProbe) Batchable() bool { return !b.solo }
func (b *batchProbe) EvalLane(e *Engine, lane int) {
	b.rec.evalByLane[lane] = append(b.rec.evalByLane[lane], b.id)
	b.rec.evals = append(b.rec.evals, b.id)
}
func (b *batchProbe) CommitLane(*Engine) { b.rec.commits = append(b.rec.commits, b.id) }

// TestLaneBatchEvalCommit pins the same-timestamp batch contract: every
// co-scheduled batchable LaneEvent evals on the lane it was scheduled on,
// evals run in insertion order across the whole batch (not merely within
// a lane) and so do commits; global-queue events and non-batchable events
// at the same timestamp fire serially in their global positions,
// unperturbed by the batch machinery around them.
func TestLaneBatchEvalCommit(t *testing.T) {
	e := NewEngine(1)
	e.SetShards(4)
	rec := &batchRecorder{}
	const n = 40
	wantLane := make(map[int]int)
	for i := 0; i < n; i++ {
		lane := (i * 5) % NumLanes
		wantLane[i] = lane
		e.ScheduleLane(lane, 2, &batchProbe{id: i, rec: rec})
	}
	// Same timestamp, GlobalLane: must not join the batch.
	e.Schedule(2, EventFunc(func(*Engine) { rec.serialFire = append(rec.serialFire, -1) }))
	// Same timestamp, peer lane, not batchable: fires serially.
	e.ScheduleLane(3, 2, &batchProbe{id: n, rec: rec, solo: true})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.commits) != n {
		t.Fatalf("%d commits, want %d", len(rec.commits), n)
	}
	for i, id := range rec.commits {
		if id != i {
			t.Fatalf("commit order %v, want insertion order", rec.commits)
		}
	}
	for lane, ids := range rec.evalByLane {
		for _, id := range ids {
			if wantLane[id] != lane {
				t.Errorf("event %d evaled on lane %d, scheduled on %d", id, lane, wantLane[id])
			}
		}
	}
	if len(rec.evals) != n {
		t.Fatalf("%d evals, want %d", len(rec.evals), n)
	}
	for i, id := range rec.evals {
		if id != i {
			t.Fatalf("global eval order %v, want insertion order", rec.evals)
		}
	}
	if want := []int{-1, n}; len(rec.serialFire) != 2 || rec.serialFire[0] != -1 || rec.serialFire[1] != n {
		t.Errorf("serial firings %v, want %v", rec.serialFire, want)
	}
	if e.BatchesFired() == 0 {
		t.Error("no batch fired for 40 co-scheduled batchable events")
	}
	if got := e.LaneEventsFired(); got != n+1 {
		t.Errorf("LaneEventsFired = %d, want %d", got, n+1)
	}
}

// TestShardCountInvariantForBatches runs the batch workload at several
// worker counts and demands identical commit order and counters — the
// engine-level statement of the end-to-end shard-invariance tests.
func TestShardCountInvariantForBatches(t *testing.T) {
	run := func(shards int) ([]int, uint64, uint64) {
		e := NewEngine(1)
		e.SetShards(shards)
		rec := &batchRecorder{}
		for round := 0; round < 5; round++ {
			for i := 0; i < 30; i++ {
				e.ScheduleLane((i*11)%NumLanes, Time(round+1), &batchProbe{id: round*100 + i, rec: rec})
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.commits, e.BatchesFired(), e.LaneEventsFired()
	}
	refC, refB, refL := run(1)
	for _, k := range []int{2, 4, 7} {
		c, b, l := run(k)
		if b != refB || l != refL {
			t.Errorf("shards=%d: counters (%d,%d) differ from serial (%d,%d)", k, b, l, refB, refL)
		}
		for i := range refC {
			if c[i] != refC[i] {
				t.Fatalf("shards=%d: commit order diverges at %d", k, i)
			}
		}
	}
}
