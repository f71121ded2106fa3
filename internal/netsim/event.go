package netsim

import (
	"math"
	"math/bits"
)

// The agenda stores typed events rather than closures: the packet hot path
// (host arrival, pipeline delay, enqueue, transmit, propagate) runs
// billions of events per experiment sweep, and a closure per event was the
// simulator's dominant allocation source. Control-plane and workload
// callbacks still use the generic evFunc kind through At/After — they fire
// at per-epoch, not per-packet, rates. Events with equal timestamps fire
// in ord order so that runs are deterministic; the hand-rolled agenda
// below avoids container/heap's interface boxing, which allocated on every
// schedule.

type eventKind uint8

const (
	// evFunc runs a generic scheduled closure (At / After).
	evFunc eventKind = iota
	// evHostArrive completes the host NIC serialization + propagation:
	// the packet has fully arrived at its edge switch (a=edge, b=inPort).
	evHostArrive
	// evProcArrive completes the switch-level Delay fault's extra
	// processing (a=sw, b=inPort).
	evProcArrive
	// evEnqueue completes the pipeline processing delay: the packet is
	// ready at the egress queue (a=sw, b=outPort).
	evEnqueue
	// evTxDone completes serialization of the head-of-line packet onto
	// the link (a=sw, b=outPort).
	evTxDone
	// evPropagate completes link propagation: the packet reaches the peer
	// (a=transmitting sw, b=outPort).
	evPropagate
	// evStartTx is a deferred transmitter start when a rate-limit fault
	// pushed nextFreeAt into the future (a=sw, b=outPort).
	evStartTx
)

// event is one scheduled occurrence. Packet events carry their operands
// inline (node a, port b, pkt); only evFunc carries a closure.
//
// ord makes the agenda's order a total order that depends on the
// partition alone: Simulator.push packs (generating partition unit, that
// unit's event count) into it, unit-major — see unitShift in sim.go — so
// same-timestamp events order by generating unit, then by the unit's own
// scheduling order. Both halves are properties of the simulated system, so
// the trace is the same however units are grouped under hook owners. With
// one unit (netsim.New) ord is the bare scheduling counter — the
// historical (at, scheduling order) tie-break.
type event struct {
	at   Time
	ord  uint64
	kind eventKind
	a    int32
	b    int32
	// link chains a wheel slot's events through the agenda's slab (slab
	// index + 1, 0 ends the chain). It sits in what would be padding, so
	// an event stays 48 bytes.
	link int32
	pkt  *Packet
	fn   func()
}

// The timing wheel: bucket i holds the times [i<<bucketShift,
// (i+1)<<bucketShift), and the wheel's slots cover the wheelBuckets-1
// buckets after the current one. A bucket is 1.024 µs and the horizon
// 1.05 ms, so a packet's whole life at the default 20 Mb/s (an MTU
// serializes in 600 µs) is scheduled on the wheel; only the workload's
// timers, milliseconds out, reach the heap.
const (
	bucketShift  = 10
	wheelBuckets = 1024
	wheelMask    = wheelBuckets - 1
	wheelWords   = wheelBuckets / 64
	// wheelIndexBytes is the wheel's fixed index: a chain head per slot
	// and the non-empty bitmap.
	wheelIndexBytes = wheelBuckets*4 + wheelWords*8
)

func bucketOf(t Time) int64 { return int64(t) >> bucketShift }

// agenda is the simulator's pending-event set, popped in (at, ord) order.
// An event waits in one of five places:
//
//   - cur, the current bucket base plus anything pushed at or before it,
//     sorted;
//   - a wheel slot, for buckets in (base, base+wheelBuckets): an unsorted
//     chain through slab, sorted only when advance makes it current;
//   - the 4-ary min-heap h, for buckets beyond the horizon at push time;
//   - the two lanes, for the kinds whose delay is a run constant.
//
// Every wheel and heap event lies in a bucket after base, so cur's head is
// the least of them; advance, run only when cur is drained, moves base to
// the earliest of the first marked slot and the heap top's bucket and
// loads both. nextBy takes the least of cur's and the lanes' heads, so where
// an event waits never changes when it fires. Events are stored by value
// in reusable backing slices, so scheduling allocates only on capacity
// growth.
type agenda struct {
	cur  lane
	base int64 // the current bucket
	// heads[s] is slot s's chain (slab index + 1, 0 = empty); marks has
	// bit s set iff heads[s] != 0.
	heads [wheelBuckets]int32
	marks [wheelWords]uint64
	slab  []event
	free  int32 // chain of released slab entries, as heads
	wheel int   // events in wheel slots
	h     []event
	// lanes[0] holds evEnqueue (now + SwitchProcDelay), lanes[1]
	// evPropagate (now + PropDelay): 10 of a cross-pod packet's 17 events.
	lanes [2]lane
	n     int // pending events, everywhere
	// peak tracks the high-water pending-event count for the MemStats-free
	// memory accounting (Simulator.Mem).
	peak int
	// popped is the one slot nextBy pops into; drain dispatches from it.
	popped event
}

// lane is a FIFO of events sorted by (at, ord): q[head:] is pending.
type lane struct {
	q    []event
	head int
}

// before reports agenda order: earlier time first, then ord — the packed
// (generating unit, per-unit scheduling order) stamp.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.ord < o.ord)
}

// push inserts an event that already carries its ord stamp.
func (a *agenda) push(e *event) {
	if a.n++; a.n > a.peak {
		a.peak = a.n
	}
	switch b := bucketOf(e.at); {
	case e.kind == evEnqueue:
		a.lanes[0].push(e)
	case e.kind == evPropagate:
		a.lanes[1].push(e)
	case b <= a.base:
		a.cur.push(e)
	case b >= a.base+wheelBuckets:
		a.pushHeap(e)
	case a.cur.head == len(a.cur.q) && a.wheel == 0 && (len(a.h) == 0 || b < bucketOf(a.h[0].at)):
		// Nothing waits off the lanes before e's bucket: make it current
		// rather than mark a slot for advance to find. Only inside the
		// horizon, so base never leaps ahead of the clock and turns every
		// push before it into an insertion into cur.
		a.base = b
		a.cur.push(e)
	default:
		a.link(e, b)
	}
}

// link chains e into bucket b's slot.
func (a *agenda) link(e *event, b int64) {
	i := a.free
	if i != 0 {
		a.free = a.slab[i-1].link
	} else {
		//mars:alloc TestNetsimStepAllocs the slab keeps its capacity; released entries are reused through the free chain
		a.slab = append(a.slab, event{})
		i = int32(len(a.slab))
	}
	s := b & wheelMask
	a.slab[i-1] = *e
	a.slab[i-1].link = a.heads[s]
	a.heads[s] = i
	a.marks[s>>6] |= 1 << (s & 63)
	a.wheel++
}

func (a *agenda) pushHeap(e *event) {
	//mars:alloc TestNetsimStepAllocs the agenda array keeps its capacity across pops; steady state re-slices in place
	a.h = append(a.h, *e)
	// Sift the hole up: one store per level, e lands once.
	h, i := a.h, len(a.h)-1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = *e
}

// push appends e and steps it back over every (at, ord)-later predecessor,
// so the lane is sorted whatever is pushed. On a delay lane, with the
// clock non-decreasing and the delay constant, that is only ever same-at
// events of other units; on cur, whatever it already holds due after e.
func (l *lane) push(e *event) {
	if l.head > 0 && len(l.q) == cap(l.q) && l.head >= len(l.q)/2 {
		// Reclaim the drained prefix rather than growing the array.
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q, l.head = l.q[:n], 0
	}
	//mars:alloc TestNetsimStepAllocs the lane array keeps its capacity; the drained prefix is reclaimed above
	l.q = append(l.q, *e)
	i := len(l.q) - 1
	for ; i > l.head && e.before(&l.q[i-1]); i-- {
		l.q[i] = l.q[i-1]
	}
	l.q[i] = *e
}

func (a *agenda) empty() bool { return a.n == 0 }

// len and capacity count every place an event waits (Simulator.Mem).
func (a *agenda) len() int { return a.n }

func (a *agenda) capacity() int {
	return cap(a.cur.q) + cap(a.slab) + cap(a.h) + cap(a.lanes[0].q) + cap(a.lanes[1].q)
}

// least returns the (at, ord)-least pending event and the lane it heads.
// The agenda must not be empty.
func (a *agenda) least() (*event, *lane) {
	if a.cur.head == len(a.cur.q) && (a.wheel > 0 || len(a.h) > 0) {
		a.advance()
	}
	var best *event
	src := &a.cur
	if src.head < len(src.q) {
		best = &src.q[src.head]
	}
	for i := range a.lanes {
		if l := &a.lanes[i]; l.head < len(l.q) {
			if e := &l.q[l.head]; best == nil || e.before(best) {
				best, src = e, l
			}
		}
	}
	return best, src
}

// advance makes the earliest bucket holding a wheel or heap event current
// and loads that bucket's events into the drained cur, sorted. Wheel
// buckets lie in (base, base+wheelBuckets), so the first marked slot after
// base's is the wheel's earliest; a heap event may be earlier still,
// because base moved since it was pushed.
func (a *agenda) advance() {
	b := int64(math.MaxInt64)
	if a.wheel > 0 {
		b = a.firstMarked()
	}
	if len(a.h) > 0 {
		b = min(b, bucketOf(a.h[0].at))
	}
	a.base = b
	q := a.cur.q[:0]
	s := b & wheelMask
	for i := a.heads[s]; i != 0; {
		e := &a.slab[i-1]
		//mars:alloc TestNetsimStepAllocs cur is truncated, not released, when it drains; loading re-slices in place
		q = append(q, *e)
		next := e.link
		*e = event{link: a.free} // release the packet/closure reference
		a.free, i = i, next
		a.wheel--
	}
	a.heads[s] = 0
	a.marks[s>>6] &^= 1 << (s & 63)
	// A chain runs newest first; reversed, it is in push order, which is
	// nearly sorted for the insertion sort below.
	for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
		q[i], q[j] = q[j], q[i]
	}
	for len(a.h) > 0 && bucketOf(a.h[0].at) == b {
		//mars:alloc TestNetsimStepAllocs cur is truncated, not released, when it drains; loading re-slices in place
		q = append(q, a.popHeap())
	}
	for i := 1; i < len(q); i++ {
		if e := q[i]; e.before(&q[i-1]) {
			j := i
			for ; j > 0 && e.before(&q[j-1]); j-- {
				q[j] = q[j-1]
			}
			q[j] = e
		}
	}
	a.cur.q, a.cur.head = q, 0
}

// firstMarked returns the bucket of the first marked slot after base's.
// The wheel must not be empty.
func (a *agenda) firstMarked() int64 {
	start := (a.base + 1) & wheelMask
	w := start >> 6
	m := a.marks[w] &^ (1<<(start&63) - 1)
	for m == 0 {
		w = (w + 1) % wheelWords
		m = a.marks[w]
	}
	s := w<<6 | int64(bits.TrailingZeros64(m))
	return a.base + 1 + (s-start)&wheelMask
}

// nextBy pops the least pending event if it is due by until: it copies the
// event into popped, the agenda's one pop slot, and returns that slot.
// Otherwise it pops nothing and returns nil. The slot holds the event until
// the next pop: pushes write the lanes, cur, the wheel and the heap, never
// the slot, so a dispatch may schedule freely while it reads its event.
// One least per event: a stepped Run's horizon check and its pop are the
// same look. The agenda must not be empty.
func (a *agenda) nextBy(until Time) *event {
	e, l := a.least()
	if e.at > until {
		return nil
	}
	a.popped = *e
	*e = event{} // release the packet/closure reference
	a.n--
	if l.head++; l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return &a.popped
}

// popHeap removes the heap's least event.
func (a *agenda) popHeap() event {
	top := a.h[0]
	n := len(a.h) - 1
	last := a.h[n]
	a.h[n] = event{} // release the packet/closure reference
	h := a.h[:n]
	a.h = h
	if n == 0 {
		return top
	}
	// Sift the hole down from the root until last fits.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
