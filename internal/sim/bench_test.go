package sim

import "testing"

// BenchmarkEventThroughput measures raw schedule+fire cost: each fired
// event schedules its successor, so the queue stays warm.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine(1)
	remaining := b.N
	var next func(*Engine)
	next = func(e *Engine) {
		if remaining--; remaining > 0 {
			e.After(1, EventFunc(next))
		}
	}
	e.After(1, EventFunc(next))
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventThroughputSharded is BenchmarkEventThroughput with 64
// self-rescheduling chains, one tagged per lane: a 64-deep heap with lane
// tags, where the single chain above pops a one-item heap.
func BenchmarkEventThroughputSharded(b *testing.B) {
	e := NewEngine(1)
	remaining := b.N
	var chains [NumLanes]func(*Engine)
	for l := 0; l < NumLanes; l++ {
		l := l
		chains[l] = func(e *Engine) {
			if remaining--; remaining > 0 {
				e.AfterLane(l, 1, EventFunc(chains[l]))
			}
		}
		e.AfterLane(l, 1, EventFunc(chains[l]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueChurn measures heap behavior with many pending events:
// each iteration pushes one event into a 10 000-deep queue and pops the
// earliest.
func BenchmarkQueueChurn(b *testing.B) {
	e := NewEngine(1)
	ev := EventFunc(func(*Engine) {})
	for i := 0; i < 10000; i++ {
		e.Schedule(Time(1+i%1000), ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(1+i%1000), ev)
		e.Step()
	}
}

// BenchmarkDeliveryStream is the event mix of a uniform-latency run in
// miniature: 30 000 far-future timers (every peer's death) resident in
// the heap, and 4000 messages in flight, each of which sends its successor
// at the same constant delay when it arrives. Both variants tag lane 0, as
// a delivery carries its target's lane; After sifts every message through
// the timers' heap, AfterFIFO queues it in the ring beside it.
func BenchmarkDeliveryStream(b *testing.B) {
	const timers, inFlight, delay = 30000, 4000, 0.05
	for _, bc := range []struct {
		name  string
		after func(e *Engine, ev Event)
	}{
		{"After", func(e *Engine, ev Event) { e.AfterLane(0, delay, ev) }},
		{"AfterFIFO", func(e *Engine, ev Event) { e.AfterFIFO(0, delay, ev) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(1)
			timer := EventFunc(func(*Engine) {})
			for i := 0; i < timers; i++ {
				e.Schedule(Time(1e9+e.Rand().Float64()*1e6), timer)
			}
			var ev Event
			ev = EventFunc(func(e *Engine) { bc.after(e, ev) })
			for i := 0; i < inFlight; i++ {
				e.Schedule(Time(delay*float64(i)/inFlight), ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkStepSelfSchedule measures the steady-state Step cost when every
// fired event schedules a successor — the inner loop of every scenario run.
func BenchmarkStepSelfSchedule(b *testing.B) {
	e := NewEngine(1)
	var ev Event
	ev = EventFunc(func(e *Engine) { e.After(1, ev) })
	e.After(1, ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkRandStream(b *testing.B) {
	s := NewSource(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}
