package sim

// Event is a unit of work scheduled on the virtual clock. Fire is invoked
// exactly once, when the clock reaches the event's scheduled time, unless
// the event was cancelled first.
type Event interface {
	Fire(e *Engine)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(e *Engine)

// Fire implements Event.
func (f EventFunc) Fire(e *Engine) { f(e) }

// Handle identifies a scheduled event and allows cancellation. Items are
// recycled through the engine's free-list once they fire or are cancelled,
// so the handle carries the generation it was issued under; a stale handle
// (its item since recycled) is recognized and ignored.
type Handle struct {
	item *item
	gen  uint32
	e    *Engine
}

// Cancel removes the scheduled event from the queue immediately and
// recycles its slot. Cancelling an event that already fired or was already
// cancelled, or a zero Handle, is a no-op. It reports whether the event
// was still pending.
func (h Handle) Cancel() bool {
	if h.item == nil || h.item.gen != h.gen {
		return false
	}
	q := &h.e.queue
	q.remove(h.item)
	q.release(h.item)
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	return h.item != nil && h.item.gen == h.gen
}

type item struct {
	at  Time
	seq uint64
	ev  Event
	// gen distinguishes incarnations of a recycled item; it is bumped on
	// every release so stale Handles turn inert.
	gen uint32
	// pos is the item's current index in the heap; -1 when not queued.
	pos int32
	// lane is the lane the event was scheduled under (GlobalLane for none).
	lane int32
}

// maxFreeItems caps the item free-list. Without a cap the free-list
// retains burst-peak capacity forever — and across Engine.Reset,
// which releases every still-pending item into it — so one 1M-event growth
// wave would pin ~1M recycled items for the engine's whole lifetime. The
// cap is generous enough that steady-state scheduling (release immediately
// followed by alloc) never misses; overflow is simply dropped for the GC.
const maxFreeItems = numQueues * 1024

// heapKey is the ordering key of a queued item, mirrored into a flat
// array parallel to the item pointers. Heap comparisons read only keys —
// dense, GC-free memory the prefetcher likes — instead of chasing a
// pointer per compare; with million-item heaps of cold items that
// roughly halves sift cost.
type heapKey struct {
	at  Time
	seq uint64
}

// eventQueue is a binary min-heap ordered by (time, insertion sequence).
// It is implemented directly rather than via container/heap to avoid the
// interface boxing on every push/pop in hot simulation loops. Items track
// their heap position, so cancellation removes them in O(log n) instead of
// leaving dead entries to ride the heap, and released items return to a
// free-list for reuse (steady-state scheduling does not allocate). The
// engine holds exactly one and stamps the insertion sequence. keys[i]
// duplicates items[i]'s (at, seq); every sift keeps the two arrays in
// lockstep.
type eventQueue struct {
	keys  []heapKey
	items []*item
	free  []*item
}

// alloc returns a recycled item, or a fresh one when the free-list is
// empty.
func (q *eventQueue) alloc() *item {
	if n := len(q.free); n > 0 {
		it := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return it
	}
	return &item{pos: -1}
}

// release invalidates outstanding handles to it and returns it to the
// free-list (or drops it for the GC once the list is full). The item must
// already be out of the heap.
func (q *eventQueue) release(it *item) {
	it.gen++
	it.ev = nil // do not retain the event (often a closure) past its life
	it.pos = -1
	if len(q.free) < maxFreeItems {
		q.free = append(q.free, it)
	}
}

// reset empties the queue wholesale: every pending item is released
// (invalidating its handles) into the free-list, up to its cap.
func (q *eventQueue) reset() {
	for _, it := range q.items {
		q.release(it)
	}
	clear(q.items)
	q.items = q.items[:0]
	q.keys = q.keys[:0]
}

func (k heapKey) less(o heapKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

func (q *eventQueue) push(it *item) {
	n := len(q.items)
	it.pos = int32(n)
	k := heapKey{at: it.at, seq: it.seq}
	q.items = append(q.items, it)
	q.keys = append(q.keys, k)
	// The guard is up's first-iteration condition, checked here on the
	// just-built key: a push that does not displace its parent — every
	// push into an empty queue, and the bulk of pushes into a deep one —
	// skips the sift call entirely.
	if n > 0 && k.less(q.keys[(n-1)/2]) {
		q.up(n)
	}
}

func (q *eventQueue) pop() *item {
	n := len(q.items) - 1
	top := q.items[0]
	if n > 0 {
		last := q.items[n]
		lastKey := q.keys[n]
		q.items[n] = nil
		q.items = q.items[:n]
		q.keys = q.keys[:n]
		q.items[0] = last
		q.keys[0] = lastKey
		last.pos = 0
		q.down(0)
	} else {
		q.items[0] = nil
		q.items = q.items[:0]
		q.keys = q.keys[:0]
	}
	top.pos = -1
	return top
}

// remove unlinks an interior item from the heap in O(log n).
func (q *eventQueue) remove(it *item) {
	i := int(it.pos)
	n := len(q.items) - 1
	last := q.items[n]
	lastKey := q.keys[n]
	q.items[n] = nil
	q.items = q.items[:n]
	q.keys = q.keys[:n]
	if i != n {
		q.items[i] = last
		q.keys[i] = lastKey
		last.pos = int32(i)
		q.down(i)
		q.up(int(last.pos))
	}
	it.pos = -1
}

// peek returns the earliest pending item without removing it; nil when the
// queue is empty.
func (q *eventQueue) peek() *item {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

func (q *eventQueue) up(i int) {
	it := q.items[i]
	k := q.keys[i]
	for i > 0 {
		parent := (i - 1) / 2
		pk := q.keys[parent]
		if !k.less(pk) {
			break
		}
		p := q.items[parent]
		q.items[i] = p
		q.keys[i] = pk
		p.pos = int32(i)
		i = parent
	}
	q.items[i] = it
	q.keys[i] = k
	it.pos = int32(i)
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	it := q.items[i]
	k := q.keys[i]
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		next := k
		if l < n && q.keys[l].less(next) {
			smallest, next = l, q.keys[l]
		}
		if r < n && q.keys[r].less(next) {
			smallest, next = r, q.keys[r]
		}
		if smallest == i {
			break
		}
		q.items[i] = q.items[smallest]
		q.keys[i] = next
		q.items[i].pos = int32(i)
		i = smallest
	}
	q.items[i] = it
	q.keys[i] = k
	it.pos = int32(i)
}
