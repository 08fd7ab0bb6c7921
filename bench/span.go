package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"dlm/internal/sim"
)

// kind names one span type: a call from the harness (or from the overlay,
// through a harness decorator) into one layer.
type kind uint8

const (
	kRun kind = iota // root: one whole trial, build to collect
	kBuild
	kCollect
	kOverlayTick
	kCoreTick
	kHandle
	kOnConnect
	kOnDisconnect
	kOnLayerChange
	kInitialLayer
	kJoin
	kNewPeer
	kAssignObjects
	kSnapshot
	kQueryIssue
	numKinds
)

var kindNames = [numKinds]string{
	kRun:           "run",
	kBuild:         "experiments.build",
	kCollect:       "experiments.collect",
	kOverlayTick:   "overlay.tick",
	kCoreTick:      "core.tick",
	kHandle:        "core.handle",
	kOnConnect:     "core.on_connect",
	kOnDisconnect:  "core.on_disconnect",
	kOnLayerChange: "core.on_layer_change",
	kInitialLayer:  "core.initial_layer",
	kJoin:          "overlay.join",
	kNewPeer:       "workload.new_peer",
	kAssignObjects: "query.assign_objects",
	kSnapshot:      "overlay.snapshot",
	kQueryIssue:    "query.issue",
}

// listed marks the kinds whose every span is kept; the rest are only
// aggregated, because a run makes tens of millions of them.
var listed = [numKinds]bool{kRun: true, kCoreTick: true, kQueryIssue: true}

// frame is one open span on the stack.
type frame struct {
	k       kind
	start   int64 // ns since recorder base
	child   int64 // ns covered by already-closed child spans
	mallocs uint64
}

// kindAgg accumulates the closed spans of one kind. Self is duration minus
// the part child spans cover, so the self times of all kinds sum to the
// root spans' duration.
type kindAgg struct {
	Calls   uint64 `json:"calls"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// spanRec is one kept span: start and end in ns since the recorder's base,
// the kind that caused it, and the heap objects allocated inside it
// (core.tick only).
type spanRec struct {
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Mallocs uint64 `json:"mallocs,omitempty"`
}

// laneAcc is one lane's private accumulator for HandleMessageLane, which
// runs on the engine's worker goroutines: no stack, no locks, padded to a
// cache line so lanes do not share one.
type laneAcc struct {
	calls uint64
	ns    int64 // timed calls only: one in handleSample
	pick  uint64
	_     [40]byte
}

// handleSample is the sampling rate of message-handler timing: a run makes
// tens of millions of handler calls, and two clock reads around each cost
// as much as the handler. One top-level call in handleSample, picked by a
// fixed pseudo-random sequence, is timed as one span covering the handler
// calls nested inside it, and the report scales the sample up
// (scaledSelfNs). Calls are still all counted.
const handleSample = 16

// recorder is the span stack of one engine's goroutine plus the per-lane
// accumulators of its fan-outs.
type recorder struct {
	base  time.Time
	stack []frame
	aggs  [numKinds]kindAgg
	// edges[p][c] aggregates spans of kind c opened directly under kind p:
	// the "span that caused it" for the kinds too numerous to list.
	edges [numKinds][numKinds]kindAgg
	lists [numKinds][]spanRec
	lanes [sim.NumLanes]laneAcc

	// handleCalls counts every HandleMessage call, handleDepth is their
	// current nesting depth, pick the sampler's xorshift state.
	handleCalls uint64
	handleDepth int
	pick        uint64

	allocSample [1]metrics.Sample
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now(), stack: make([]frame, 0, 64), pick: 0x9e3779b97f4a7c15}
	for i := range r.lanes {
		r.lanes[i].pick = r.pick + uint64(i)
	}
	r.allocSample[0].Name = "/gc/heap/allocs:objects"
	return r
}

// sampled advances a sampler and reports whether this call is timed.
func sampled(state *uint64) bool {
	x := *state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*state = x
	return x%handleSample == 0
}

// enterHandle counts one HandleMessage call and opens a core.handle span
// if the call is top-level and sampled. Calls nested in it (responses
// handled inline) are inside that span and never timed themselves: the
// clock reads of a nested span would be charged to the sampled call and
// then multiplied by the sampling rate.
func (r *recorder) enterHandle() bool {
	r.handleCalls++
	r.handleDepth++
	if r.handleDepth > 1 || !sampled(&r.pick) {
		return false
	}
	r.push(kHandle)
	return true
}

// leaveHandle undoes enterHandle.
func (r *recorder) leaveHandle(timed bool) {
	r.handleDepth--
	if timed {
		r.pop(kHandle)
	}
}

// scaledSelfNs is kind k's self time with the handler sample scaled up.
// Handler calls nest only handler calls, so a timed top-level span is all
// handler self time: that grows by the factor, every parent kind gives back
// the untimed share it absorbed, and the kinds still add up to the root.
func (r *recorder) scaledSelfNs(k kind) int64 {
	if k == kHandle {
		return handleSample * r.aggs[kHandle].SelfNs
	}
	return r.aggs[k].SelfNs - (handleSample-1)*r.edges[k][kHandle].TotalNs
}

// now is the span clock: one monotonic read, ns since base.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) heapObjects() uint64 {
	metrics.Read(r.allocSample[:])
	return r.allocSample[0].Value.Uint64()
}

// push opens a span of kind k under the current top of the stack.
func (r *recorder) push(k kind) {
	f := frame{k: k}
	if k == kCoreTick {
		f.mallocs = r.heapObjects()
	}
	f.start = r.now()
	r.stack = append(r.stack, f)
}

// pop closes the top span, which must be of kind k: a mismatch means a
// decorator opened a span it never closed, a harness bug.
func (r *recorder) pop(k kind) {
	end := r.now()
	top := len(r.stack) - 1
	f := r.stack[top]
	if f.k != k {
		panic("bench: span stack out of order: closing " + kindNames[k] + " under " + kindNames[f.k])
	}
	r.stack = r.stack[:top]
	dur := end - f.start
	a := &r.aggs[k]
	a.Calls++
	a.TotalNs += dur
	a.SelfNs += dur - f.child
	parent := kRun
	if top > 0 {
		p := &r.stack[top-1]
		p.child += dur
		parent = p.k
		e := &r.edges[parent][k]
		e.Calls++
		e.TotalNs += dur
		e.SelfNs += dur - f.child
	}
	if listed[k] {
		rec := spanRec{StartNs: f.start, EndNs: end}
		if top > 0 {
			rec.Parent = kindNames[parent]
		}
		if k == kCoreTick {
			rec.Mallocs = r.heapObjects() - f.mallocs
		}
		r.lists[k] = append(r.lists[k], rec)
	}
}

// enterLane counts one lane-parallel handler call and, if it is sampled,
// returns its start time (0 otherwise). It touches only lane's accumulator.
func (r *recorder) enterLane(lane int) int64 {
	a := &r.lanes[lane]
	a.calls++
	if !sampled(&a.pick) {
		return 0
	}
	return r.now()
}

// leaveLane closes a sampled lane call.
func (r *recorder) leaveLane(lane int, startNs int64) {
	if startNs != 0 {
		r.lanes[lane].ns += r.now() - startNs
	}
}

// laneTotals sums the lane accumulators: calls, and CPU time summed over
// lanes (not wall time: lanes run in parallel), scaled up from the sample.
func (r *recorder) laneTotals() (calls uint64, ns int64) {
	for i := range r.lanes {
		calls += r.lanes[i].calls
		ns += handleSample * r.lanes[i].ns
	}
	return calls, ns
}

// merge folds another recorder's closed spans into r (paper2k runs one
// recorder per worker). Kept spans stay on their own recorder's clock.
func (r *recorder) merge(o *recorder) {
	for k := range r.aggs {
		r.aggs[k].add(o.aggs[k])
		for c := range r.edges[k] {
			r.edges[k][c].add(o.edges[k][c])
		}
		r.lists[k] = append(r.lists[k], o.lists[k]...)
	}
	for i := range r.lanes {
		r.lanes[i].calls += o.lanes[i].calls
		r.lanes[i].ns += o.lanes[i].ns
	}
	r.handleCalls += o.handleCalls
}

func (a *kindAgg) add(o kindAgg) {
	a.Calls += o.Calls
	a.TotalNs += o.TotalNs
	a.SelfNs += o.SelfNs
}

// durations returns the kept spans' durations in seconds, sorted.
func (r *recorder) durations(k kind) []float64 {
	out := make([]float64, len(r.lists[k]))
	for i, s := range r.lists[k] {
		out[i] = float64(s.EndNs-s.StartNs) / 1e9
	}
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile of sorted values (nearest rank); zero when
// empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
