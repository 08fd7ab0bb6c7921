package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	times := []Time{5, 1, 3, 2, 4, 0.5, 2.5}
	for _, at := range times {
		at := at
		e.Schedule(at, EventFunc(func(e *Engine) {
			got = append(got, e.Now())
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0.5, 1, 2, 2.5, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, EventFunc(func(*Engine) { order = append(order, i) }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v, want FIFO", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, EventFunc(func(*Engine) {}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, EventFunc(func(*Engine) {}))
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(3, EventFunc(func(*Engine) {}))
	e.Schedule(10, EventFunc(func(*Engine) {}))
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
}

func TestEventBudget(t *testing.T) {
	e := NewEngine(1)
	e.MaxEvents = 50
	// Self-rescheduling event would run forever without the budget.
	var loop func(*Engine)
	loop = func(e *Engine) { e.After(1, EventFunc(loop)) }
	e.After(1, EventFunc(loop))
	if err := e.Run(); err != ErrEventBudget {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	e.Ticker(2, func(e *Engine) bool {
		at = append(at, e.Now())
		return len(at) < 4
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 4, 6, 8}
	if len(at) != len(want) {
		t.Fatalf("ticks %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ticks %v, want %v", at, want)
		}
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Schedule(1, EventFunc(func(e *Engine) {
		got = append(got, "a")
		e.After(1, EventFunc(func(*Engine) { got = append(got, "b") }))
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
}

func TestTimeUnit(t *testing.T) {
	cases := []struct {
		t    Time
		want int64
	}{{0, 0}, {0.5, 0}, {1, 1}, {299.999, 299}, {300, 300}, {-0.5, -1}}
	for _, c := range cases {
		if got := c.t.Unit(); got != c.want {
			t.Errorf("Unit(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

// Property: popping the queue always yields a non-decreasing time sequence,
// regardless of insertion order.
func TestQueueOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var q eventQueue
		for _, r := range raw {
			q.push(heapKey{at: Time(r)}, payload{})
		}
		last := Time(-1)
		for len(q.keys) > 0 {
			k, _ := q.pop()
			if k.at < last {
				return false
			}
			last = k.at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapMatchesStableSortReference is the differential test of the value
// heap: a long random interleaving of ScheduleLane and Step, with coarse
// timestamps so most events tie across lanes, must fire in exactly the
// order of a reference list kept stably sorted by time — scheduling order
// within a timestamp, i.e. (at, seq) — and agree on Pending after every
// operation.
func TestHeapMatchesStableSortReference(t *testing.T) {
	type refEvent struct {
		at Time
		id int
	}
	rng := rand.New(rand.NewSource(11))
	e := NewEngine(1)
	var ref []refEvent // pending, in scheduling order until sorted
	fired := -1
	const ops = 20000
	for op, nextID := 0, 0; op < ops; op++ {
		// Schedule-heavy until the queue is a few hundred deep, then balanced.
		if len(ref) == 0 || rng.Intn(100) < 50+(300-len(ref))/10 {
			id := nextID
			nextID++
			at := e.Now() + Time(rng.Intn(4)) // 0 ties with the firing instant
			e.ScheduleLane(rng.Intn(numQueues), at, EventFunc(func(*Engine) { fired = id }))
			ref = append(ref, refEvent{at, id})
		} else {
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
	if e.EventsFired() < ops/3 {
		t.Fatalf("only %d of %d operations were firings", e.EventsFired(), ops)
	}
}

// TestResetDropsPendingKeepsCapacity: Reset discards pending events —
// the heap's and the ring's — without firing them, keeps the arrays of
// both (a reset engine schedules and drains the same load with zero
// allocations) and clears every payload slot, so no event of the previous
// run stays reachable from the engine.
func TestResetDropsPendingKeepsCapacity(t *testing.T) {
	const n = 1000
	e := NewEngine(1)
	fired := 0
	ev := EventFunc(func(*Engine) { fired++ })
	load := func() {
		for i := 0; i < n; i++ {
			e.ScheduleLane(i%numQueues, Time(1+i%7), ev)
			e.AfterFIFO(i%numQueues, 4, ev)
		}
	}
	load()
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	firedBefore := fired
	if len(e.queue.keys) == 0 || e.ring.len() != n || e.Pending() != len(e.queue.keys)+n || firedBefore == 0 {
		t.Fatalf("setup: %d in the heap, %d in the ring, %d pending, %d fired; want all non-zero and the ring full",
			len(e.queue.keys), e.ring.len(), e.Pending(), firedBefore)
	}
	e.Reset(1)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Reset, want 0", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != firedBefore || e.EventsFired() != 0 {
		t.Fatalf("Reset fired dropped events: %d -> %d (engine counts %d)", firedBefore, fired, e.EventsFired())
	}
	for i, v := range e.queue.vals[:cap(e.queue.vals)] {
		if v.ev != nil {
			t.Fatalf("payload slot %d of %d still holds an event after Reset", i, cap(e.queue.vals))
		}
	}
	for i, ent := range e.ring.buf {
		if ent.val.ev != nil {
			t.Fatalf("ring slot %d of %d still holds an event after Reset", i, len(e.ring.buf))
		}
	}
	// Reset itself allocates the new random source; a load and drain on
	// top of it must add nothing.
	resetOnly := testing.AllocsPerRun(20, func() { e.Reset(1) })
	allocs := testing.AllocsPerRun(20, func() {
		e.Reset(1)
		load()
		for e.Step() {
		}
	})
	if allocs != resetOnly {
		t.Errorf("schedule %d + drain after Reset allocates %.2f objects/op, want 0", 2*n, allocs-resetOnly)
	}
	if e.Pending() != 0 || fired != firedBefore+21*2*n {
		t.Errorf("drains fired %d events with %d pending, want %d and 0", fired-firedBefore, e.Pending(), 21*2*n)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(42)
		var draws []float64
		e.Ticker(1, func(e *Engine) bool {
			draws = append(draws, e.Rand().Stream("tick").Float64()+e.Rand().Float64())
			return len(draws) < 20
		})
		e.Run()
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	s := NewSource(7)
	a1 := s.Stream("alpha").Float64()
	_ = s.Stream("beta").Float64()
	a2 := NewSource(7).Stream("alpha").Float64()
	if a1 != a2 {
		t.Fatal("stream draws depend on unrelated stream usage")
	}
	if s.Stream("alpha").Seed() == s.Stream("beta").Seed() {
		t.Fatal("distinct names produced identical stream seeds")
	}
	if s.StreamN(1).Seed() == s.StreamN(2).Seed() {
		t.Fatal("distinct indices produced identical stream seeds")
	}
}

func TestDistributionMoments(t *testing.T) {
	s := NewSource(99)
	const n = 200000

	// Exponential mean.
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exponential(5)
	}
	if m := sum / n; math.Abs(m-5) > 0.1 {
		t.Errorf("exponential mean = %.3f, want 5±0.1", m)
	}

	// Lognormal median = exp(mu).
	cnt := 0
	for i := 0; i < n; i++ {
		if s.Lognormal(math.Log(60), 1.5) < 60 {
			cnt++
		}
	}
	if frac := float64(cnt) / n; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("lognormal median fraction = %.3f, want 0.5±0.01", frac)
	}

	// Bounded Pareto support.
	for i := 0; i < 1000; i++ {
		v := s.BoundedPareto(1, 10, 1.5)
		if v < 1 || v > 10 {
			t.Fatalf("bounded pareto draw %v outside [1,10]", v)
		}
	}

	// Uniform support.
	for i := 0; i < 1000; i++ {
		v := s.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("uniform draw %v outside [3,7)", v)
		}
	}

	// Weibull with shape 1 is exponential with the same scale.
	sum = 0
	for i := 0; i < n; i++ {
		sum += s.Weibull(4, 1)
	}
	if m := sum / n; math.Abs(m-4) > 0.1 {
		t.Errorf("weibull(4,1) mean = %.3f, want 4±0.1", m)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %.3f", frac)
	}
}

// TestResetMatchesFreshEngine pins the contract the parallel trial
// scheduler rests on: after Reset(seed), an engine that already ran an
// arbitrary workload is indistinguishable from NewEngine(seed) — same
// clock, same event order, same tie-break sequence, same RNG streams.
func TestResetMatchesFreshEngine(t *testing.T) {
	// A self-rescheduling workload with RNG draws, heap and ring events
	// tying on timestamps, and events left pending in both structures past
	// the deadline, recording everything observable.
	workload := func(e *Engine) (fires []Time, draws []float64) {
		rng := e.Rand().Stream("w")
		var rec func(e *Engine)
		rec = func(e *Engine) {
			fires = append(fires, e.Now())
			draws = append(draws, rng.Float64())
			if e.Now() < 40 {
				e.After(Duration(1+rng.Float64()*3), EventFunc(rec))
				e.After(100, EventFunc(func(*Engine) { fires = append(fires, -1) }))
				e.AfterFIFO(GlobalLane, 25, EventFunc(func(e *Engine) { fires = append(fires, -e.Now()) }))
				e.After(25, EventFunc(func(e *Engine) { fires = append(fires, -e.Now()-0.5) }))
			}
		}
		e.Schedule(0, EventFunc(rec))
		if err := e.RunUntil(60); err != nil {
			t.Fatal(err)
		}
		return fires, draws
	}

	fresh := NewEngine(77)
	wantFires, wantDraws := workload(fresh)

	used := NewEngine(12345)
	for i := 0; i < 500; i++ { // dirty the heap, ring, clock, seq counter, rng
		used.Schedule(Time(used.Rand().Float64()*100), EventFunc(func(*Engine) {}))
		used.AfterFIFO(i%numQueues, 30+Duration(i), EventFunc(func(*Engine) {}))
	}
	used.RunUntil(50)
	if used.ring.len() == 0 || used.ring.head == 0 || len(used.queue.keys) == 0 {
		t.Fatalf("setup: ring holds %d events after %d pops, heap %d; want all non-zero",
			used.ring.len(), used.ring.head, len(used.queue.keys))
	}
	used.Reset(77)

	if used.Now() != 0 || used.Pending() != 0 || used.EventsFired() != 0 {
		t.Fatalf("reset state: now=%v pending=%d fired=%d", used.Now(), used.Pending(), used.EventsFired())
	}
	gotFires, gotDraws := workload(used)
	if len(gotFires) != len(wantFires) || len(gotDraws) != len(wantDraws) {
		t.Fatalf("trace lengths: %d/%d vs fresh %d/%d",
			len(gotFires), len(gotDraws), len(wantFires), len(wantDraws))
	}
	for i := range wantFires {
		if gotFires[i] != wantFires[i] {
			t.Fatalf("fire %d at %v, fresh engine fired at %v", i, gotFires[i], wantFires[i])
		}
	}
	for i := range wantDraws {
		if gotDraws[i] != wantDraws[i] {
			t.Fatalf("draw %d = %v, fresh engine drew %v", i, gotDraws[i], wantDraws[i])
		}
	}
	if used.EventsFired() != fresh.EventsFired() {
		t.Fatalf("fired %d events, fresh fired %d", used.EventsFired(), fresh.EventsFired())
	}
}
