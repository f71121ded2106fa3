package netsim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// agendaOp is one step of an agenda script: pop the least event, or push
// one of the given kind at the given time, stamped by the given unit.
type agendaOp struct {
	pop  bool
	kind eventKind
	at   Time
	unit uint64
}

// runAgendaOps drives a fresh agenda through ops next to a model — the
// plain list of pending (at, ord) keys — and requires every pop to be the
// model's minimum, peek to be the next pop's time and the length, emptiness
// and peak bookkeeping to match. Ords are unique (per-unit counters under
// the unit prefix, as Simulator.push stamps them), so the order is total.
// Whatever is still pending after the script is drained the same way.
func runAgendaOps(t testing.TB, ops []agendaOp) {
	t.Helper()
	var (
		a     agenda
		model []event
		seq   [16]uint64
		peak  int
	)
	pop := func(step int) {
		m := 0
		for i := range model {
			if model[i].before(&model[m]) {
				m = i
			}
		}
		want := model[m]
		model = append(model[:m], model[m+1:]...)
		if at := a.peek(); at != want.at {
			t.Fatalf("step %d: peek() = %d, next pop is at %d", step, at, want.at)
		}
		got := a.next()
		if got.at != want.at || got.ord != want.ord || got.kind != want.kind {
			t.Fatalf("step %d: popped (at=%d ord=%#x kind=%d), want (at=%d ord=%#x kind=%d)",
				step, got.at, got.ord, got.kind, want.at, want.ord, want.kind)
		}
	}
	check := func(step int) {
		if a.len() != len(model) || a.empty() != (len(model) == 0) {
			t.Fatalf("step %d: len()=%d empty()=%v with %d pending", step, a.len(), a.empty(), len(model))
		}
		if a.peak != peak {
			t.Fatalf("step %d: peak=%d, want %d", step, a.peak, peak)
		}
	}
	for step, op := range ops {
		if op.pop {
			if len(model) > 0 {
				pop(step)
			}
		} else {
			u := op.unit % uint64(len(seq))
			seq[u]++
			e := event{at: op.at, ord: u<<unitShift | seq[u], kind: op.kind}
			model = append(model, e)
			a.push(&e)
			if len(model) > peak {
				peak = len(model)
			}
		}
		check(step)
	}
	for len(model) > 0 {
		pop(len(ops))
		check(len(ops))
	}
	if c := a.capacity(); c < peak {
		t.Fatalf("capacity()=%d below the peak of %d pending", c, peak)
	}
}

// decodeAgendaScript turns fuzz bytes into ops, two bytes per op: the low
// two bits of the first choose pop (one in four) or push, the rest the
// kind; the second is the unit (high nibble) and a time in [0,16), so
// equal times across units, and lane-kind pushes earlier than the lane's
// tail, are the common case rather than the rare one.
func decodeAgendaScript(script []byte) []agendaOp {
	ops := make([]agendaOp, 0, len(script)/2)
	for i := 0; i+1 < len(script); i += 2 {
		b, c := script[i], script[i+1]
		ops = append(ops, agendaOp{
			pop:  b&3 == 0,
			kind: eventKind(b>>2) % (evStartTx + 1),
			at:   Time(c & 15),
			unit: uint64(c >> 4),
		})
	}
	return ops
}

// FuzzAgendaOrder: any interleaving of pushes and pops, of any kinds at any
// times, pops in (at, ord) order.
func FuzzAgendaOrder(f *testing.F) {
	enq, prop := byte(evEnqueue)<<2|1, byte(evPropagate)<<2|1
	f.Add([]byte{})
	// Lane kinds with decreasing times: what a SwitchProcDelay lowered
	// between Run steps would push.
	f.Add([]byte{enq, 9, enq, 7, prop, 8, enq, 5, prop, 2, enq, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// One time, every unit in descending order, on a lane and on the heap.
	f.Add([]byte{enq, 0xf3, enq, 0x83, enq, 0x13, enq, 0x03, 1, 0xf3, 1, 0x23, prop, 0x93, prop, 0x03})
	// Drain to empty and refill, twice.
	f.Add([]byte{enq, 1, prop, 1, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, prop, 2, enq, 2, 9, 2, 0, 0, 0, 0, 0, 0, 0, 0, enq, 3})
	f.Fuzz(func(t *testing.T, script []byte) { runAgendaOps(t, decodeAgendaScript(script)) })
}

// TestAgendaOrderProperty runs the same check over seeded random scripts of
// two shapes: unconstrained (decodeAgendaScript over random bytes), and the
// simulator's — a clock that follows the pops, lane kinds pushed at clock +
// a constant, a few thousand events pending so the heap is several levels
// deep and the lanes grow, compact and wrap — with the lane constant changed
// mid-run and periodic drains to empty.
func TestAgendaOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		script := make([]byte, 2*rng.Intn(400))
		rng.Read(script)
		runAgendaOps(t, decodeAgendaScript(script))
	}
	for run := 0; run < 4; run++ {
		var (
			ops      []agendaOp
			now      Time
			pending  []Time // times pushed and not yet popped, to move the clock
			laneWait = [2]Time{5, 10}
		)
		push := func(kind eventKind, at Time) {
			ops = append(ops, agendaOp{kind: kind, at: at, unit: uint64(rng.Intn(9))})
			pending = append(pending, at)
		}
		popOne := func() {
			if len(pending) == 0 {
				return
			}
			m := 0
			for i, at := range pending {
				if at < pending[m] {
					m = i
				}
			}
			now = pending[m]
			pending = append(pending[:m], pending[m+1:]...)
			ops = append(ops, agendaOp{pop: true})
		}
		target := 200 + 900*run
		for step := 0; step < 12000; step++ {
			switch {
			case step == 6000:
				laneWait = [2]Time{2, 3} // the lanes see times before their tails
			case step%4000 == 3999:
				for len(pending) > 0 {
					popOne()
				}
			}
			if len(pending) > target && rng.Intn(3) > 0 {
				popOne()
				continue
			}
			if k := eventKind(rng.Intn(int(evStartTx) + 1)); k == evEnqueue {
				push(k, now+laneWait[0])
			} else if k == evPropagate {
				push(k, now+laneWait[1])
			} else {
				push(k, now+Time(rng.Intn(40)))
			}
		}
		runAgendaOps(t, ops)
	}
}

// TestEventBytesCoversEvent: Mem charges eventBytes per agenda slot, so it
// must not fall below the struct it stands for.
func TestEventBytesCoversEvent(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); eventBytes < sz {
		t.Fatalf("eventBytes = %d, sizeof(event) = %d", eventBytes, sz)
	}
}
