package netsim

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
	pkt  *Packet
	fn   func()
}

// agenda is the simulator's pending-event set, popped in (at, ord) order.
// Most events wait in a 4-ary min-heap; the two kinds whose delay is a run
// constant wait in sorted FIFO lanes, where a push is an append and a pop
// moves no other event. The lanes are ordered by the same (at, ord) key as
// the heap and next takes the least of the three heads, so where an event
// waits never changes when it fires. Events are stored by value in
// reusable backing slices, so scheduling allocates only on capacity growth.
type agenda struct {
	h []event
	// lanes[0] holds evEnqueue (now + SwitchProcDelay), lanes[1]
	// evPropagate (now + PropDelay): 10 of a cross-pod packet's 17 events.
	lanes [2]lane
	n     int // pending events, heap plus lanes
	// peak tracks the high-water pending-event count for the MemStats-free
	// memory accounting of the scale tier.
	peak int
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
	if e.kind == evEnqueue {
		a.lanes[0].push(e)
		return
	}
	if e.kind == evPropagate {
		a.lanes[1].push(e)
		return
	}
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
// so the lane is sorted whatever is pushed. With the clock non-decreasing
// and the delay constant, that is only ever same-at events of other units.
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

// len and capacity count heap and lanes together (Simulator.Mem).
func (a *agenda) len() int { return a.n }

func (a *agenda) capacity() int { return cap(a.h) + cap(a.lanes[0].q) + cap(a.lanes[1].q) }

// least returns the (at, ord)-least pending event and where it waits: -1
// for the heap, else the lane index. The agenda must not be empty.
func (a *agenda) least() (*event, int) {
	var best *event
	src := -1
	if len(a.h) > 0 {
		best = &a.h[0]
	}
	for i := range a.lanes {
		if l := &a.lanes[i]; l.head < len(l.q) {
			if e := &l.q[l.head]; best == nil || e.before(best) {
				best, src = e, i
			}
		}
	}
	return best, src
}

func (a *agenda) next() event {
	e, src := a.least()
	top := *e
	a.n--
	if src >= 0 {
		*e = event{} // release the packet reference
		l := &a.lanes[src]
		if l.head++; l.head == len(l.q) {
			l.q, l.head = l.q[:0], 0
		}
		return top
	}
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

func (a *agenda) peek() Time {
	e, _ := a.least()
	return e.at
}
