package sim

import "testing"

// The engine's scheduling hot path must not allocate in steady state: the
// heap and the ring store events by value in arrays that only grow, so
// once they have reached the run's queue depth, Schedule, AfterFIFO and
// Step are allocation-free. These tests pin that property; a regression here
// silently multiplies GC load by the event count of every scenario run.

// TestStepSteadyStateAllocFree: a pre-warmed self-rescheduling engine must
// fire events with zero allocations per Step.
func TestStepSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(1)
	var ev Event
	ev = EventFunc(func(e *Engine) { e.After(1, ev) })
	e.After(1, ev)
	for i := 0; i < 64; i++ { // grow the heap arrays
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %.2f objects/op, want 0", allocs)
	}
}

// TestRingStepSteadyStateAllocFree is the ring-path twin: a constant-delay
// stream deep enough to have grown the ring past its first array fires and
// re-enters the ring with zero allocations per Step.
func TestRingStepSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(1)
	var ev Event
	ev = EventFunc(func(e *Engine) { e.AfterFIFO(0, 1, ev) })
	for i := 0; i < 200; i++ {
		e.AfterFIFO(0, 1, ev)
	}
	for i := 0; i < 1000; i++ { // wrap the ring a few times
		e.Step()
	}
	if e.ring.len() != 200 || len(e.ring.buf) != 256 || len(e.queue.keys) != 0 {
		t.Fatalf("setup: %d events in a ring of %d, %d in the heap; want 200 of 256 and none",
			e.ring.len(), len(e.ring.buf), len(e.queue.keys))
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("steady-state ring Step allocates %.2f objects/op, want 0", allocs)
	}
}

// TestBatchStepAllocFree: a same-timestamp batch fires on the event loop,
// so at any shard count a warm engine schedules and drains one with zero
// allocations — no goroutine, closure or WaitGroup per batch.
func TestBatchStepAllocFree(t *testing.T) {
	e := NewEngine(1)
	e.SetShards(4)
	rec := &batchRecorder{}
	probes := make([]*batchProbe, 32)
	for i := range probes {
		probes[i] = &batchProbe{id: i, rec: rec}
	}
	scheduleAndDrain := func() {
		for l := range rec.evalByLane {
			rec.evalByLane[l] = rec.evalByLane[l][:0]
		}
		rec.evals, rec.commits = rec.evals[:0], rec.commits[:0]
		for i, b := range probes {
			e.AfterLane(i, 1, b)
		}
		for e.Step() {
		}
	}
	for i := 0; i < 4; i++ { // grow the heap arrays and the batch scratch
		scheduleAndDrain()
	}
	before := e.BatchesFired()
	allocs := testing.AllocsPerRun(200, scheduleAndDrain)
	if allocs != 0 {
		t.Errorf("schedule + batch Step allocates %.2f objects/op, want 0", allocs)
	}
	if got := e.BatchesFired() - before; got != 201 || len(rec.commits) != len(probes) {
		t.Errorf("%d batches over 201 drains with %d commits in the last, want one batch of %d each",
			got, len(rec.commits), len(probes))
	}
}
