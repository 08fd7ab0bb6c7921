package sim

import (
	"errors"
	"fmt"
)

// Engine is a discrete-event simulation engine: pending events fire in
// (time, insertion sequence) order. They wait in a binary heap or, when
// AfterFIFO admits them, in a FIFO ring; each firing takes the smaller of
// heap root and ring head, so which one held an event is unobservable.
// Every event also carries the lane it was scheduled under (see lanes.go);
// the tag never changes when an event fires, only whether it may join a
// same-timestamp LaneEvent batch.
//
// Engines are deliberately not safe for concurrent use by callers: the
// simulation has a total order of events, and the engine fires every one
// of them — same-timestamp LaneEvent batches included — on the event
// loop. The only parallelism is the fan-out an event starts itself with
// ForLanes (shard.go), the tick barrier of DESIGN.md §6 "Tick".
type Engine struct {
	now   Time
	queue eventQueue
	ring  eventRing
	seq   uint64

	rng   *Source
	fired uint64
	// laneFired counts fired events tagged with a peer lane (not
	// GlobalLane); batches counts same-timestamp LaneEvent batch firings.
	laneFired uint64
	batches   uint64
	batchID   uint64

	// batch scratch, reused across batches.
	batchEv   []LaneEvent
	batchLane []int32

	// shards is the worker count for intra-event lane fan-outs (see
	// shard.go). Like MaxEvents it is configuration, so Reset keeps it.
	shards int

	// MaxEvents, when non-zero, aborts Run with ErrEventBudget after that
	// many events have fired. It is a guard against schedule bugs that
	// would otherwise loop forever.
	MaxEvents uint64
}

// ErrEventBudget is returned by Run when MaxEvents is exceeded.
var ErrEventBudget = errors.New("sim: event budget exceeded")

// NewEngine returns an engine with its clock at zero and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewSource(seed)}
}

// Reset returns the engine to its just-constructed state with a fresh
// deterministic source derived from seed: clock at zero, empty queue,
// zero fired counters, pending events dropped unfired. The backing arrays
// of heap and ring are kept, so a reset engine re-runs without re-growing
// either — the engine-reuse primitive of the parallel trial scheduler
// — and their payload slots are cleared, so it retains no event of the
// previous run. A reset engine is indistinguishable from NewEngine(seed)
// to everything that runs on it: the insertion sequence also restarts, so
// event tie-breaking cannot leak across runs.
func (e *Engine) Reset(seed int64) {
	e.queue.reset()
	e.ring.reset()
	e.seq = 0
	e.now = 0
	e.fired = 0
	e.laneFired = 0
	e.batches = 0
	e.batchID = 0
	e.rng = NewSource(seed)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's root random source. Subsystems should derive
// their own named streams via Rand().Stream(name) so that adding a new
// consumer does not perturb the draws seen by existing ones.
func (e *Engine) Rand() *Source { return e.rng }

// EventsFired returns the number of events executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// LaneEventsFired returns how many fired events were scheduled under a
// peer lane (as opposed to GlobalLane). It is a determinism artifact: for a
// fixed seed it is identical at every shard count.
func (e *Engine) LaneEventsFired() uint64 { return e.laneFired }

// BatchesFired returns how many same-timestamp LaneEvent batches ran.
func (e *Engine) BatchesFired() uint64 { return e.batches }

// BatchID returns the identifier of the current (or most recent) batch.
// Batch consumers use it to epoch-stamp scratch they reuse across batches.
func (e *Engine) BatchID() uint64 { return e.batchID }

// Schedule enqueues ev to fire at absolute time at with no lane
// (GlobalLane). Scheduling in the past panics: it is always a logic error
// in a discrete-event model. The event is stored by value in the heap's
// backing arrays, so steady-state scheduling does not allocate.
func (e *Engine) Schedule(at Time, ev Event) {
	e.ScheduleLane(GlobalLane, at, ev)
}

// ScheduleLane enqueues ev tagged with the given lane (GlobalLane for
// events with no single target peer). The tag never affects firing order
// — that is (time, insertion sequence) — only eligibility for
// same-timestamp batch firing of LaneEvents.
func (e *Engine) ScheduleLane(lane int, at Time, ev Event) {
	if at < e.now || uint(lane) >= numQueues {
		e.badSchedule(lane, at)
	}
	e.queue.push(heapKey{at: at, seq: e.seq}, payload{ev: ev, lane: int32(lane)})
	e.seq++
}

// badSchedule reports the two ScheduleLane precondition violations; kept
// out of line so the checks in the hot path are two compares.
func (e *Engine) badSchedule(lane int, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	panic(fmt.Sprintf("sim: schedule on lane %d, want [0,%d]", lane, NumLanes))
}

// After enqueues ev to fire d time units from now with no lane.
func (e *Engine) After(d Duration, ev Event) {
	e.Schedule(e.now+d, ev)
}

// AfterLane is After tagged with a specific lane.
func (e *Engine) AfterLane(lane int, d Duration, ev Event) {
	e.ScheduleLane(lane, e.now+d, ev)
}

// AfterFIFO is AfterLane for a stream of events at one constant delay,
// such as a uniform link latency: the clock never runs backwards, so their
// timestamps come out sorted and they can wait in the ring instead of
// being sifted through the heap. The ring takes an event only when it is
// empty or the event is no earlier than its newest entry; anything else
// goes to the heap, so firing order never rests on the caller's promise.
func (e *Engine) AfterFIFO(lane int, d Duration, ev Event) {
	at, r := e.now+d, &e.ring
	if at < e.now || uint(lane) >= numQueues || (r.len() > 0 && at < r.at(r.tail-1).key.at) {
		e.ScheduleLane(lane, at, ev) // which also reports a bad lane or time
		return
	}
	r.push(heapKey{at: at, seq: e.seq}, payload{ev: ev, lane: int32(lane)})
	e.seq++
}

// AfterFunc is After for a plain function.
func (e *Engine) AfterFunc(d Duration, f func(*Engine)) {
	e.After(d, EventFunc(f))
}

// Pending returns the number of events scheduled and not yet fired.
func (e *Engine) Pending() int { return len(e.queue.keys) + e.ring.len() }

// ringFirst reports whether the ring's head fires before the heap's root.
func (e *Engine) ringFirst() bool {
	return e.ring.len() > 0 && (len(e.queue.keys) == 0 || e.ring.at(e.ring.head).key.less(e.queue.keys[0]))
}

// peek returns the time and payload of the next event to fire, leaving it
// pending; the payload is nil when nothing is.
func (e *Engine) peek() (Time, *payload) {
	if e.ringFirst() {
		h := e.ring.at(e.ring.head)
		return h.key.at, &h.val
	}
	if len(e.queue.keys) == 0 {
		return 0, nil
	}
	return e.queue.keys[0].at, &e.queue.vals[0]
}

// popNext removes and returns the next event to fire; one must be pending.
func (e *Engine) popNext() (heapKey, payload) {
	if e.ringFirst() {
		return e.ring.pop()
	}
	return e.queue.pop()
}

// Step fires the earliest pending event, advancing the clock to its time.
// When that event is a batchable LaneEvent co-scheduled with others at
// the same timestamp, the whole batch fires (eval all, then commit all)
// as one step. It reports whether anything was fired.
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	k, v := e.popNext()
	e.now = k.at
	e.fired++
	if v.lane != GlobalLane {
		e.laneFired++
		// One timestamp compare on the new next event settles nearly every
		// firing before any interface call: no peer-lane successor at this
		// instant, no batch.
		if at, nv := e.peek(); nv != nil && at == e.now && nv.lane != GlobalLane {
			if le, ok := v.ev.(LaneEvent); ok && le.Batchable() && e.stepBatch(le, v.lane) {
				return true
			}
		}
	}
	v.ev.Fire(e)
	return true
}

// stepBatch tries to extend the already-popped first event into a
// same-timestamp batch of batchable LaneEvents; the caller has checked
// that a peer-lane event at this timestamp follows. It reports whether
// it consumed the firing; false means the caller fires first serially (a
// batch of one is equivalent to Fire by the LaneEvent contract, and the
// serial path is cheaper).
func (e *Engine) stepBatch(first LaneEvent, firstLane int32) bool {
	_, nv := e.peek()
	if le, ok := nv.ev.(LaneEvent); !ok || !le.Batchable() {
		return false
	}
	e.batchEv = append(e.batchEv[:0], first)
	e.batchLane = append(e.batchLane[:0], firstLane)
	for {
		if e.MaxEvents != 0 && e.fired >= e.MaxEvents {
			break
		}
		at, nv := e.peek()
		if nv == nil || at != e.now || nv.lane == GlobalLane {
			break
		}
		le, ok := nv.ev.(LaneEvent)
		if !ok || !le.Batchable() {
			break
		}
		e.batchEv = append(e.batchEv, le)
		e.batchLane = append(e.batchLane, nv.lane)
		e.popNext()
		e.fired++
		e.laneFired++
	}
	e.batches++
	e.batchID++
	// Eval inline, in batch order: that is scheduling (seq) order, hence
	// also each lane's own order, which EvalLane must observe for events
	// targeting one peer. An eval is a sub-microsecond handler call; fanning
	// them out measured slower at every batch size (DESIGN.md §6 "Event loop").
	for i, le := range e.batchEv {
		le.EvalLane(e, int(e.batchLane[i]))
	}
	// Commit in exactly the order the events would have fired.
	for _, le := range e.batchEv {
		le.CommitLane(e)
	}
	clear(e.batchEv) // do not retain events past their firing
	return true
}

// RunUntil fires events in order until the clock would pass deadline or
// the queue drains. The clock is left at the later of its current value
// and deadline so that subsequent scheduling is relative to the deadline.
func (e *Engine) RunUntil(deadline Time) error {
	for {
		at, v := e.peek()
		if v == nil || at > deadline {
			break
		}
		if e.MaxEvents != 0 && e.fired >= e.MaxEvents {
			return ErrEventBudget
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

// Run fires events until the queue drains.
func (e *Engine) Run() error {
	for {
		if e.MaxEvents != 0 && e.fired >= e.MaxEvents {
			return ErrEventBudget
		}
		if !e.Step() {
			return nil
		}
	}
}

// Ticker invokes fn once per period, starting at the next multiple of
// period after the current time, until fn returns false or the engine
// stops. It is the engine's equivalent of a per-time-unit maintenance loop.
func (e *Engine) Ticker(period Duration, fn func(e *Engine) bool) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	var tick func(*Engine)
	tick = func(e *Engine) {
		if !fn(e) {
			return
		}
		e.After(period, EventFunc(tick))
	}
	e.After(period, EventFunc(tick))
}
