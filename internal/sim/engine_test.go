package sim

import (
	"math"
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

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	h := e.Schedule(1, EventFunc(func(*Engine) { fired++ }))
	e.Schedule(2, EventFunc(func(*Engine) { fired++ }))
	if !h.Pending() {
		t.Fatal("handle should be pending before run")
	}
	if !h.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if h.Cancel() {
		t.Fatal("second cancel should report false")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (cancelled event must not fire)", fired)
	}
	if h.Pending() {
		t.Fatal("cancelled handle reports pending")
	}
}

// TestCancelCompactsQueue pins the active-compaction semantics: a
// cancelled event leaves the queue immediately, so Pending never counts
// dead items. (Before compaction, cancelled items rode the heap until
// they bubbled to the root — churn-heavy runs carried them for the whole
// run.)
func TestCancelCompactsQueue(t *testing.T) {
	e := NewEngine(1)
	ev := EventFunc(func(*Engine) {})
	handles := make([]Handle, 100)
	for i := range handles {
		handles[i] = e.Schedule(Time(i+1), ev)
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", e.Pending())
	}
	for i := 0; i < 100; i += 2 {
		handles[i].Cancel()
	}
	if e.Pending() != 50 {
		t.Fatalf("Pending = %d after cancelling half, want 50 (no dead items)", e.Pending())
	}
	fired := 0
	e.Schedule(200, EventFunc(func(e *Engine) { fired = int(e.EventsFired()) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 51 { // 50 survivors + the probe itself
		t.Fatalf("fired %d events, want 51", fired)
	}
}

// TestStaleHandleAfterReuse pins the generation check: once an event
// fires, its queue slot is recycled; a handle to the fired event must stay
// inert even when the slot is serving a new event.
func TestStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine(1)
	old := e.Schedule(1, EventFunc(func(*Engine) {}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	fresh := e.Schedule(2, EventFunc(func(*Engine) { fired = true })) // reuses the slot
	if old.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if old.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	if !fresh.Pending() {
		t.Fatal("fresh handle lost its event to a stale cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("recycled-slot event did not fire")
	}
}

// TestCancelInterleavedWithFiring exercises remove() on interior heap
// positions while the queue is live.
func TestCancelInterleavedWithFiring(t *testing.T) {
	e := NewEngine(1)
	var firedAt []Time
	record := EventFunc(func(e *Engine) { firedAt = append(firedAt, e.Now()) })
	handles := make(map[int]Handle)
	for i := 1; i <= 50; i++ {
		handles[i] = e.Schedule(Time(i), record)
	}
	// Cancel a scattered subset, including the current heap root (t=1).
	for _, i := range []int{1, 7, 13, 25, 42, 50} {
		if !handles[i].Cancel() {
			t.Fatalf("cancel of pending event %d failed", i)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(firedAt) != 44 {
		t.Fatalf("fired %d, want 44", len(firedAt))
	}
	for i := 1; i < len(firedAt); i++ {
		if firedAt[i] <= firedAt[i-1] {
			t.Fatalf("order violated: %v", firedAt)
		}
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine(1)
	h := e.Schedule(1, EventFunc(func(*Engine) {}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Cancel() {
		t.Fatal("cancelling a fired event should report false")
	}
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

func TestHaltStopsRun(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), EventFunc(func(e *Engine) {
			n++
			if n == 3 {
				e.Halt()
			}
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("fired %d events after Halt, want 3", n)
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
			q.push(&item{at: Time(r)})
		}
		last := Time(-1)
		for len(q.items) > 0 {
			it := q.pop()
			if it.at < last {
				return false
			}
			last = it.at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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

	// Pareto support.
	for i := 0; i < 1000; i++ {
		if v := s.Pareto(2, 1.1); v < 2 {
			t.Fatalf("pareto draw %v below scale", v)
		}
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
	// A self-rescheduling workload with cancellations and RNG draws,
	// recording everything observable.
	workload := func(e *Engine) (fires []Time, draws []float64) {
		rng := e.Rand().Stream("w")
		var rec func(e *Engine)
		rec = func(e *Engine) {
			fires = append(fires, e.Now())
			draws = append(draws, rng.Float64())
			if e.Now() < 40 {
				e.After(Duration(1+rng.Float64()*3), EventFunc(rec))
				h := e.After(100, EventFunc(func(*Engine) { fires = append(fires, -1) }))
				h.Cancel()
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
	for i := 0; i < 500; i++ { // dirty the queue, clock, seq counter, rng
		used.Schedule(Time(used.Rand().Float64()*100), EventFunc(func(*Engine) {}))
	}
	used.RunUntil(50)
	used.Halt()
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
