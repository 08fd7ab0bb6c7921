package sim

// Event is a unit of work scheduled on the virtual clock. Fire is invoked
// exactly once, when the clock reaches the event's scheduled time. Nothing
// scheduled is ever retracted: an event whose reason has lapsed checks
// state when it fires and does nothing.
type Event interface {
	Fire(e *Engine)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(e *Engine)

// Fire implements Event.
func (f EventFunc) Fire(e *Engine) { f(e) }

// heapKey is the ordering key of a queued event. Heap comparisons read
// only keys — dense, GC-free memory the prefetcher likes — and never the
// payload beside them.
type heapKey struct {
	at  Time
	seq uint64
}

func (k heapKey) less(o heapKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// payload is what a queued event carries besides its key: the event and
// the lane it was scheduled under (GlobalLane for none).
type payload struct {
	ev   Event
	lane int32
}

// eventQueue is a binary min-heap ordered by (time, insertion sequence),
// held as two parallel value arrays: keys[i] orders vals[i], and every
// sift moves the two in lockstep. It is implemented directly rather than
// via container/heap to avoid the interface boxing on every push/pop in
// hot simulation loops. The engine holds exactly one and stamps the
// insertion sequence.
type eventQueue struct {
	keys []heapKey
	vals []payload
}

// reset drops every pending event, keeping both backing arrays. The
// payloads are cleared so the dropped events (often closures) are not
// retained.
func (q *eventQueue) reset() {
	clear(q.vals)
	q.vals = q.vals[:0]
	q.keys = q.keys[:0]
}

func (q *eventQueue) push(k heapKey, v payload) {
	n := len(q.keys)
	q.keys = append(q.keys, k)
	q.vals = append(q.vals, v)
	// The guard is up's first-iteration condition: a push that does not
	// displace its parent — every push into an empty queue, and the bulk
	// of pushes into a deep one — skips the sift call entirely.
	if n > 0 && k.less(q.keys[(n-1)/2]) {
		q.up(n)
	}
}

// pop removes and returns the earliest pending event; the queue must not
// be empty.
func (q *eventQueue) pop() (heapKey, payload) {
	n := len(q.keys) - 1
	k, v := q.keys[0], q.vals[0]
	q.keys[0], q.vals[0] = q.keys[n], q.vals[n]
	q.vals[n] = payload{} // do not retain the event past its life
	q.keys = q.keys[:n]
	q.vals = q.vals[:n]
	if n > 1 {
		q.down(0)
	}
	return k, v
}

func (q *eventQueue) up(i int) {
	k, v := q.keys[i], q.vals[i]
	for i > 0 {
		parent := (i - 1) / 2
		pk := q.keys[parent]
		if !k.less(pk) {
			break
		}
		q.keys[i], q.vals[i] = pk, q.vals[parent]
		i = parent
	}
	q.keys[i], q.vals[i] = k, v
}

func (q *eventQueue) down(i int) {
	n := len(q.keys)
	k, v := q.keys[i], q.vals[i]
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
		q.keys[i], q.vals[i] = next, q.vals[smallest]
		i = smallest
	}
	q.keys[i], q.vals[i] = k, v
}

// eventRing is a FIFO of pending events whose keys Engine.AfterFIFO
// appended in non-decreasing order — in practice every in-flight message
// of a uniform-latency run — so its head is its minimum and nothing is
// ever sifted. buf is a power of two long; head and tail count pops and
// pushes and are masked on use.
type eventRing struct {
	buf        []ringEntry
	head, tail uint
}

type ringEntry struct {
	key heapKey
	val payload
}

func (r *eventRing) len() int { return int(r.tail - r.head) }

// at addresses push number i, head <= i < tail.
func (r *eventRing) at(i uint) *ringEntry { return &r.buf[i&uint(len(r.buf)-1)] }

// reset drops every pending event, keeping buf, cleared of its payloads.
func (r *eventRing) reset() {
	clear(r.buf)
	r.head, r.tail = 0, 0
}

func (r *eventRing) push(k heapKey, v payload) {
	if r.len() == len(r.buf) {
		buf := make([]ringEntry, max(2*len(r.buf), 64))
		for i := r.head; i != r.tail; i++ {
			buf[i-r.head] = *r.at(i)
		}
		r.buf, r.head, r.tail = buf, 0, r.tail-r.head
	}
	*r.at(r.tail) = ringEntry{k, v}
	r.tail++
}

// pop removes and returns the oldest entry; the ring must not be empty.
func (r *eventRing) pop() (heapKey, payload) {
	p := r.at(r.head)
	k, v := p.key, p.val
	p.val = payload{} // do not retain the event past its life
	r.head++
	return k, v
}
