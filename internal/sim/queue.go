package sim

import "math/bits"

// The event queue is a calendar queue (R. Brown, "Calendar Queues", CACM
// 1988): a ring of time buckets holds the near future, and a binary heap
// holds whatever lies beyond the ring's window. Its geometry is a fixed
// constant derived from the simulator's time units, not from any workload:
// network bounds, GST, periods and timeouts are whole milliseconds, so a
// bucket of 2^13 ns (≈ 8 µs, about a hundredth of a millisecond) holds few
// events even with thousands pending, and 2^13 buckets span 2^26 ns
// (≈ 67 ms), more than ten times the default network bound Δ = 5 ms. Every
// synchronous or post-GST delivery lands in the ring; long protocol timers,
// pre-GST waits and asynchronous delays that grow as Factor·now land in the
// heap. Correctness never depends on the geometry: an event that is not
// provably inside the window goes to the heap, and each pop takes the
// smaller of the ring's first event and the heap's top.
const (
	bucketShift = 13 // bucket width 2^13 ns
	ringBits    = 13 // 2^13 buckets
	ringSize    = 1 << ringBits
	ringMask    = ringSize - 1
)

// eventQueue orders pending events on (at, seq): virtual time first, FIFO
// within a tick. Events live by value in a slab whose free slots are
// recycled, so once the slab has grown to the run's peak of pending events
// neither push nor pop allocates. Memory is that slab plus the fixed ring:
// buckets are lists threaded through the slab, not slices of their own.
type eventQueue struct {
	seq  uint64  // the next event's seq
	slab []event // pending events by value; free slots are zeroed
	free []int32 // free slab slots

	// buckets[b&ringMask] lists, sorted on (at, seq) and linked through
	// event.next, the ring events whose absolute bucket at>>bucketShift is
	// b. Every ring event has b in [base, base+ringSize), so a ring index
	// never holds two laps. occ marks the non-empty buckets.
	buckets []bucket
	occ     []uint64
	inRing  int
	// base is the absolute bucket of the latest popped event; it never
	// decreases. No ring event lies in a bucket before cur.
	base, cur int64

	// far is a binary min-heap on (at, seq) of the events outside the
	// ring's window when they were pushed.
	far []qkey
}

type bucket struct{ head, tail int32 }

// qkey is a far-heap entry: the event's order key and its slab slot.
type qkey struct {
	at   Time
	seq  uint64
	slot int32
}

func (k *qkey) before(at Time, seq uint64) bool {
	if k.at != at {
		return k.at < at
	}
	return k.seq < seq
}

func (q *eventQueue) init() {
	q.buckets = make([]bucket, ringSize)
	q.occ = make([]uint64, ringSize/64)
}

// size returns the number of pending events.
func (q *eventQueue) size() int { return q.inRing + len(q.far) }

// push enqueues a copy of *ev under the next seq, which exceeds that of
// every pending event, so ev sorts after every event due at the same time.
func (q *eventQueue) push(ev *event) {
	ev.seq = q.seq
	q.seq++
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	b := int64(ev.at >> bucketShift)
	if uint64(b-q.base) >= ringSize {
		q.slab[slot] = *ev
		q.pushFar(qkey{at: ev.at, seq: ev.seq, slot: slot})
		return
	}
	i := b & ringMask
	bk := &q.buckets[i]
	ev.next = -1
	switch {
	case q.occ[i>>6]&(1<<(i&63)) == 0:
		q.occ[i>>6] |= 1 << (i & 63)
		bk.head, bk.tail = slot, slot
	case q.slab[bk.tail].at <= ev.at:
		q.slab[bk.tail].next = slot
		bk.tail = slot
	case q.slab[bk.head].at > ev.at:
		ev.next = bk.head
		bk.head = slot
	default:
		// The tail is later than ev, so the walk stops before the end.
		p := bk.head
		for q.slab[q.slab[p].next].at <= ev.at {
			p = q.slab[p].next
		}
		ev.next = q.slab[p].next
		q.slab[p].next = slot
	}
	q.slab[slot] = *ev
	q.inRing++
	if b < q.cur {
		q.cur = b
	}
}

// ringFirst returns the slab slot of the earliest ring event, or -1 when
// the ring is empty, leaving cur at that event's bucket.
func (q *eventQueue) ringFirst() int32 {
	if q.inRing == 0 {
		return -1
	}
	if q.cur < q.base {
		q.cur = q.base
	}
	for {
		i := q.cur & ringMask
		if w := q.occ[i>>6] >> (i & 63); w != 0 {
			q.cur += int64(bits.TrailingZeros64(w))
			return q.buckets[q.cur&ringMask].head
		}
		q.cur += 64 - (i & 63)
	}
}

// pop moves the earliest pending event into *ev if it is due by limit. It
// reports false, removing nothing, when the queue is empty or its earliest
// event is later than limit.
func (q *eventQueue) pop(limit Time, ev *event) bool {
	r := q.ringFirst()
	var slot int32
	if len(q.far) > 0 && (r < 0 || q.far[0].before(q.slab[r].at, q.slab[r].seq)) {
		if q.far[0].at > limit {
			return false
		}
		slot = q.popFar()
	} else {
		if r < 0 || q.slab[r].at > limit {
			return false
		}
		slot = r
		i := q.cur & ringMask
		bk := &q.buckets[i]
		if bk.head = q.slab[r].next; bk.head < 0 {
			q.occ[i>>6] &^= 1 << (i & 63)
		}
		q.inRing--
	}
	*ev = q.slab[slot]
	q.slab[slot] = event{} // drop the body/proc pointers for the GC
	q.free = append(q.free, slot)
	if b := int64(ev.at >> bucketShift); b > q.base {
		q.base = b
	}
	return true
}

// clear empties the queue, keeping every buffer's capacity. The caller
// releases the pending events' bodies first.
func (q *eventQueue) clear() {
	clear(q.slab)
	q.slab = q.slab[:0]
	q.free = q.free[:0]
	q.far = q.far[:0]
	clear(q.occ)
	q.seq, q.inRing, q.base, q.cur = 0, 0, 0, 0
}

func (q *eventQueue) pushFar(k qkey) {
	h := append(q.far, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent].at, h[parent].seq) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.far = h
}

// popFar removes the far heap's top and returns its slab slot.
func (q *eventQueue) popFar() int32 {
	h := q.far
	slot := h[0].slot
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l].at, h[l].seq) {
			m = r
		}
		if !h[m].before(h[i].at, h[i].seq) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	q.far = h
	return slot
}
