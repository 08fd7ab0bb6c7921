package main

import (
	"sync"
	"testing"
	"time"
)

// spin burns a little host time so spans have a nonzero duration.
func spin() {
	for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
	}
}

// selfSum adds the kinds' raw self times.
func selfSum(r *recorder) int64 {
	var sum int64
	for k := range r.aggs {
		sum += r.aggs[k].SelfNs
	}
	return sum
}

func TestNestedSelfTimesAddUpToRoot(t *testing.T) {
	r := newRecorder()
	r.push(kRun)
	spin()
	for i := 0; i < 3; i++ {
		r.push(kOverlayTick)
		spin()
		r.push(kCoreTick)
		spin()
		r.push(kOnLayerChange)
		spin()
		r.pop(kOnLayerChange)
		r.pop(kCoreTick)
		r.pop(kOverlayTick)
	}
	r.push(kJoin)
	r.push(kInitialLayer)
	spin()
	r.pop(kInitialLayer)
	r.pop(kJoin)
	r.pop(kRun)

	if len(r.stack) != 0 {
		t.Fatalf("stack depth %d after the root closed", len(r.stack))
	}
	root := r.aggs[kRun].TotalNs
	if got := selfSum(r); got != root {
		t.Errorf("self times sum to %d ns, root span is %d ns", got, root)
	}
	tick, core, change := r.aggs[kOverlayTick], r.aggs[kCoreTick], r.aggs[kOnLayerChange]
	if tick.Calls != 3 || core.Calls != 3 || change.Calls != 3 {
		t.Errorf("calls tick %d core %d change %d, want 3 each", tick.Calls, core.Calls, change.Calls)
	}
	if tick.SelfNs != tick.TotalNs-core.TotalNs {
		t.Errorf("overlay.tick self %d, want total %d minus child %d", tick.SelfNs, tick.TotalNs, core.TotalNs)
	}
	if core.SelfNs != core.TotalNs-change.TotalNs {
		t.Errorf("core.tick self %d, want total %d minus child %d", core.SelfNs, core.TotalNs, change.TotalNs)
	}
	if change.SelfNs != change.TotalNs || change.SelfNs <= 0 {
		t.Errorf("leaf span self %d total %d, want equal and positive", change.SelfNs, change.TotalNs)
	}
	if e := r.edges[kOverlayTick][kCoreTick]; e != core {
		t.Errorf("edge overlay.tick->core.tick %+v, want %+v", e, core)
	}
	if e := r.edges[kRun][kJoin]; e.Calls != 1 {
		t.Errorf("edge run->overlay.join has %d calls, want 1", e.Calls)
	}
	// Kept spans: every core.tick, with its parent; none for the rest.
	if got := len(r.lists[kCoreTick]); got != 3 {
		t.Fatalf("%d core.tick spans kept, want 3", got)
	}
	for _, s := range r.lists[kCoreTick] {
		if s.Parent != "overlay.tick" || s.EndNs <= s.StartNs {
			t.Errorf("kept span %+v, want parent overlay.tick and positive duration", s)
		}
	}
	if len(r.lists[kOnLayerChange]) != 0 {
		t.Errorf("core.on_layer_change spans were kept; only listed kinds are")
	}
}

func TestPopOutOfOrderPanics(t *testing.T) {
	r := newRecorder()
	r.push(kRun)
	r.push(kCoreTick)
	defer func() {
		if recover() == nil {
			t.Error("closing a span that is not on top did not panic")
		}
	}()
	r.pop(kRun)
}

// TestHandleSamplingKeepsTheIdentity drives the handler sampler the way a
// zero-latency run does (requests whose responses are handled inline, under
// several parents) and checks that scaling the sample up still partitions
// the root exactly, and that every call is counted.
func TestHandleSamplingKeepsTheIdentity(t *testing.T) {
	r := newRecorder()
	handle := func(nested int) {
		timed := r.enterHandle()
		for i := 0; i < nested; i++ {
			inner := r.enterHandle()
			if inner {
				t.Fatal("a nested handler call opened a span of its own")
			}
			r.leaveHandle(inner)
		}
		r.leaveHandle(timed)
	}
	const rounds = 4000
	r.push(kRun)
	for i := 0; i < rounds; i++ {
		r.push(kOnConnect)
		handle(1)
		handle(1)
		r.pop(kOnConnect)
		handle(0) // a delivery fired straight from the event loop
	}
	r.pop(kRun)

	if want := uint64(rounds * 5); r.handleCalls != want {
		t.Errorf("%d handler calls counted, want %d", r.handleCalls, want)
	}
	timedTop := r.edges[kOnConnect][kHandle].Calls + r.edges[kRun][kHandle].Calls
	if lo, hi := uint64(rounds*3/handleSample/2), uint64(rounds*3/handleSample*2); timedTop < lo || timedTop > hi {
		t.Errorf("%d of %d top-level handler calls timed, want about one in %d", timedTop, rounds*3, handleSample)
	}
	var scaled int64
	for k := kind(0); k < numKinds; k++ {
		scaled += r.scaledSelfNs(k)
	}
	if root := r.aggs[kRun].TotalNs; scaled != root {
		t.Errorf("scaled self times sum to %d ns, root span is %d ns", scaled, root)
	}
	if r.handleDepth != 0 {
		t.Errorf("sampler left depth %d", r.handleDepth)
	}
}

// TestLaneAccumulatorsAreLanePrivate runs lane calls from concurrent
// goroutines, one lane each, as the engine's batch fan-out does; the race
// detector checks the "no locks" claim, the totals check the accounting.
func TestLaneAccumulatorsAreLanePrivate(t *testing.T) {
	r := newRecorder()
	const lanes, perLane = 8, 5000
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < perLane; i++ {
				start := r.enterLane(lane)
				r.leaveLane(lane, start)
			}
		}(lane)
	}
	wg.Wait()
	calls, ns := r.laneTotals()
	if calls != lanes*perLane {
		t.Errorf("%d lane calls counted, want %d", calls, lanes*perLane)
	}
	if ns <= 0 || ns%handleSample != 0 {
		t.Errorf("lane CPU time %d ns, want a positive multiple of the sample rate", ns)
	}

	o := newRecorder()
	o.leaveLane(3, o.enterLane(3))
	o.handleCalls = 7
	r.merge(o)
	if c, _ := r.laneTotals(); c != lanes*perLane+1 || r.handleCalls != 7 {
		t.Errorf("after merge: %d lane calls, %d handler calls", c, r.handleCalls)
	}
}
