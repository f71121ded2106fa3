package netsim

// The agenda stores typed events rather than closures: the packet hot path
// (host arrival, pipeline delay, enqueue, transmit, propagate) runs
// billions of events per experiment sweep, and a closure per event was the
// simulator's dominant allocation source. Control-plane and workload
// callbacks still use the generic evFunc kind through At/After — they fire
// at per-epoch, not per-packet, rates. Events with equal timestamps fire
// in ord order so that runs are deterministic; the hand-rolled heap below
// avoids container/heap's interface boxing, which allocated on every
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

// agenda is the simulator's pending-event set: a binary min-heap ordered
// by (at, ord). Events are stored by value in a reusable backing
// slice, so scheduling allocates only on capacity growth.
type agenda struct {
	h []event
	// peak tracks the high-water pending-event count for the MemStats-free
	// memory accounting of the scale tier.
	peak int
}

// before reports heap order: earlier time first, then ord — the packed
// (generating unit, per-unit scheduling order) stamp.
func (a *agenda) before(i, j int) bool {
	if a.h[i].at != a.h[j].at {
		return a.h[i].at < a.h[j].at
	}
	return a.h[i].ord < a.h[j].ord
}

// push inserts an event that already carries its ord stamp.
func (a *agenda) push(e *event) {
	//mars:alloc TestNetsimStepAllocs the agenda array keeps its capacity across pops; steady state re-slices in place
	a.h = append(a.h, *e)
	if len(a.h) > a.peak {
		a.peak = len(a.h)
	}
	// Sift up.
	i := len(a.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.before(i, parent) {
			break
		}
		a.h[i], a.h[parent] = a.h[parent], a.h[i]
		i = parent
	}
}

func (a *agenda) empty() bool { return len(a.h) == 0 }

func (a *agenda) next() event {
	top := a.h[0]
	n := len(a.h) - 1
	a.h[0] = a.h[n]
	a.h[n] = event{} // release the packet/closure reference
	a.h = a.h[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.before(l, smallest) {
			smallest = l
		}
		if r < n && a.before(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a.h[i], a.h[smallest] = a.h[smallest], a.h[i]
		i = smallest
	}
	return top
}

func (a *agenda) peek() Time { return a.h[0].at }
