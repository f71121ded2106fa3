package netsim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// agendaOp is one step of an agenda script: pop the least event, stop
// just short of it (where a stepped Run stops: nextBy pops nothing), or
// push one of the given kind at the given time — or, with rel, that long
// after the last pop — stamped by the given unit.
type agendaOp struct {
	pop, stop bool
	kind      eventKind
	at        Time
	rel       bool
	unit      uint64
}

// runAgendaOps drives a fresh agenda through ops next to a model — the
// plain list of pending events — and requires every pop to be the model's
// minimum, nextBy to pop nothing just short of it, and the length,
// emptiness and peak bookkeeping to match. Ords are unique (per-unit counters under
// the unit prefix, as Simulator.push stamps them), so the order is total.
// Each push carries distinct operands a and b, and a pop must hand out the
// pushed event whole; what it hands out must stay intact through the ops
// after it up to the next pop, as drain dispatches from it while the
// handler pushes. Whatever is still pending after the script is drained
// the same way.
func runAgendaOps(t testing.TB, ops []agendaOp) {
	t.Helper()
	var (
		a      agenda
		model  []event
		seq    [16]uint64
		peak   int
		now    Time // the last pop's time
		pushes int32
		held   *event // what the last pop handed out
		want   event  // and what it must still hold
	)
	least := func() int {
		m := 0
		for i := range model {
			if model[i].before(&model[m]) {
				m = i
			}
		}
		return m
	}
	same := func(got *event, want event) bool {
		return got.at == want.at && got.ord == want.ord && got.kind == want.kind && got.a == want.a && got.b == want.b
	}
	stop := func(step int) {
		at := model[least()].at
		if got := a.nextBy(at - 1); got != nil {
			t.Fatalf("step %d: nextBy(%d) popped an event at %d, next pop is at %d", step, at-1, got.at, at)
		}
	}
	pop := func(step int) {
		stop(step)
		m := least()
		want = model[m]
		model = append(model[:m], model[m+1:]...)
		now = want.at
		held = a.nextBy(want.at)
		if held == nil {
			t.Fatalf("step %d: nextBy(%d) popped nothing, want (at=%d ord=%#x)", step, want.at, want.at, want.ord)
		}
	}
	check := func(step int) {
		if held != nil && !same(held, want) {
			t.Fatalf("step %d: the last pop holds (at=%d ord=%#x kind=%d a=%d b=%d), want (at=%d ord=%#x kind=%d a=%d b=%d)",
				step, held.at, held.ord, held.kind, held.a, held.b, want.at, want.ord, want.kind, want.a, want.b)
		}
		if a.len() != len(model) || a.empty() != (len(model) == 0) {
			t.Fatalf("step %d: len()=%d empty()=%v with %d pending", step, a.len(), a.empty(), len(model))
		}
		if a.peak != peak {
			t.Fatalf("step %d: peak=%d, want %d", step, a.peak, peak)
		}
	}
	for step, op := range ops {
		switch {
		case op.stop:
			if len(model) > 0 {
				stop(step)
			}
		case op.pop:
			if len(model) > 0 {
				pop(step)
			}
		default:
			u := op.unit % uint64(len(seq))
			seq[u]++
			pushes++
			e := event{at: op.at, ord: u<<unitShift | seq[u], kind: op.kind, a: pushes, b: -pushes}
			if op.rel {
				e.at += now
			}
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

// agendaScales are the steps a script's push times are counted in: one
// nanosecond, so equal times are common; about a tenth of a bucket, so
// times cross bucket boundaries; an eighth of the wheel, so t ≥ 8 passes
// the horizon and pushes wrap the slots; and a thousand horizons, so a
// refill lands at a much later base.
var agendaScales = [4]Time{1, 1<<bucketShift/10 + 1, wheelBuckets << bucketShift / 8, wheelBuckets << bucketShift << 10}

// decodeAgendaScript turns fuzz bytes into ops, two bytes per op. In the
// first, zero low two bits make a pop (one in eight) or, with bit 2 set, a
// stop (one in eight); otherwise bits 2–4 are the kind, bit 5 makes the
// time relative to the last pop and bits 6–7 pick its scale. The second
// byte is the unit (high nibble) and the time in scale steps, in [0,16).
// At scale 0 equal times across units, and lane-kind pushes earlier than
// the lane's tail, are the common case rather than the rare one; absolute
// times after the clock has moved are pushes before the current bucket.
func decodeAgendaScript(script []byte) []agendaOp {
	ops := make([]agendaOp, 0, len(script)/2)
	for i := 0; i+1 < len(script); i += 2 {
		b, c := script[i], script[i+1]
		ops = append(ops, agendaOp{
			pop:  b&3 == 0 && b&4 == 0,
			stop: b&3 == 0 && b&4 != 0,
			kind: eventKind(b>>2&7) % (evStartTx + 1),
			at:   Time(c&15) * agendaScales[b>>6],
			rel:  b&32 != 0,
			unit: uint64(c >> 4),
		})
	}
	return ops
}

// FuzzAgendaOrder: any interleaving of pushes, stops and pops, of any kinds
// at any times, pops in (at, ord) order. testdata/fuzz/FuzzAgendaOrder
// holds one script per wheel shape: bucket crossings, far-future closures,
// pushes before the current bucket, a refill far past a drain, and stepped
// Run horizons.
func FuzzAgendaOrder(f *testing.F) {
	enq, prop := byte(evEnqueue)<<2|1, byte(evPropagate)<<2|1
	f.Add([]byte{})
	// Lane kinds with decreasing times: what a SwitchProcDelay lowered
	// between Run steps would push.
	f.Add([]byte{enq, 9, enq, 7, prop, 8, enq, 5, prop, 2, enq, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// One time, every unit in descending order, on a lane and off the lanes.
	f.Add([]byte{enq, 0xf3, enq, 0x83, enq, 0x13, enq, 0x03, 1, 0xf3, 1, 0x23, prop, 0x93, prop, 0x03})
	// Drain to empty and refill, twice.
	f.Add([]byte{enq, 1, prop, 1, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, prop, 2, enq, 2, 9, 2, 0, 0, 0, 0, 0, 0, 0, 0, enq, 3})
	f.Fuzz(func(t *testing.T, script []byte) { runAgendaOps(t, decodeAgendaScript(script)) })
}

// TestAgendaOrderProperty runs the same check over seeded random scripts of
// two shapes: unconstrained (decodeAgendaScript over random bytes), and the
// simulator's — a clock that follows the pops; lane kinds pushed at clock +
// a constant; transmissions and host arrivals a serialization time out,
// hundreds of buckets ahead; closures milliseconds out, mostly past the
// horizon, where the heap keeps them; the rest inside the current bucket;
// up to ~1,800 events pending, ~1,200 on the wheel and ~500 in the heap,
// so the heap is several levels deep and the lanes grow, compact and wrap.
// The lane constant is lowered mid-run; the clock stops at stepped Run
// horizons (stop, then push from the horizon, before the bucket the stop
// made current); and periodic drains to empty are followed by a refill ten
// seconds later.
func TestAgendaOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		script := make([]byte, 2*rng.Intn(400))
		rng.Read(script)
		if i%2 == 1 {
			// Pop or stop at every other op, so the agenda often drains
			// and the next push finds nothing pending off the lanes.
			for j := 0; j < len(script); j += 4 {
				script[j] &^= 3
			}
		}
		runAgendaOps(t, decodeAgendaScript(script))
	}
	for run := 0; run < 4; run++ {
		var (
			ops      []agendaOp
			now      Time
			pending  []Time // times pushed and not yet popped, to move the clock
			laneWait = [2]Time{5 * Microsecond, 10 * Microsecond}
		)
		push := func(kind eventKind, at Time) {
			ops = append(ops, agendaOp{kind: kind, at: at, unit: uint64(rng.Intn(9))})
			pending = append(pending, at)
		}
		earliest := func() int {
			m := 0
			for i, at := range pending {
				if at < pending[m] {
					m = i
				}
			}
			return m
		}
		popOne := func() {
			m := earliest()
			now = pending[m]
			pending = append(pending[:m], pending[m+1:]...)
			ops = append(ops, agendaOp{pop: true})
		}
		target := 200 + 900*run
		for step := 0; step < 12000; step++ {
			switch {
			case step == 6000:
				// The lanes see times before their tails.
				laneWait = [2]Time{2 * Microsecond, 3 * Microsecond}
			case step%4000 == 3999:
				for len(pending) > 0 {
					popOne()
				}
				now += 10 * Second
			case step%97 == 96:
				horizon := now + Time(rng.Int63n(int64(20*Microsecond)))
				for len(pending) > 0 && pending[earliest()] <= horizon {
					popOne()
				}
				ops = append(ops, agendaOp{stop: true})
				now = horizon
			}
			if len(pending) > target && rng.Intn(3) > 0 {
				popOne()
				continue
			}
			switch k := eventKind(rng.Intn(int(evStartTx) + 1)); k {
			case evEnqueue:
				push(k, now+laneWait[0])
			case evPropagate:
				push(k, now+laneWait[1])
			case evTxDone, evHostArrive:
				// 700 bytes to an MTU at 20 Mb/s.
				push(k, now+280*Microsecond+Time(rng.Int63n(int64(320*Microsecond))))
			case evFunc:
				push(k, now+Time(rng.ExpFloat64()*float64(5*Millisecond)))
			case evProcArrive, evStartTx:
				push(k, now+Time(rng.Intn(40)))
			}
		}
		runAgendaOps(t, ops)
	}
}

// TestPortBytesCoversPortRuntime: Mem charges portBytes per switch port
// and runtimeBytes per node, so neither may fall below the structs it
// stands for.
func TestPortBytesCoversPortRuntime(t *testing.T) {
	if sz := unsafe.Sizeof(portRuntime{}); portBytes < sz {
		t.Fatalf("portBytes = %d, sizeof(portRuntime) = %d", portBytes, sz)
	}
	if sz := unsafe.Sizeof(switchRuntime{}) + unsafe.Sizeof(hostWiring{}); runtimeBytes < sz {
		t.Fatalf("runtimeBytes = %d, sizeof(switchRuntime) + sizeof(hostWiring) = %d", runtimeBytes, sz)
	}
}

// TestEventBytesCoversEvent: Mem charges eventBytes per agenda slot, so it
// must not fall below the struct it stands for; and the wheel's slab link
// must fit in the event's padding, so the wheel makes no event larger.
func TestEventBytesCoversEvent(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); eventBytes < sz {
		t.Fatalf("eventBytes = %d, sizeof(event) = %d", eventBytes, sz)
	}
	type unlinked struct {
		at   Time
		ord  uint64
		kind eventKind
		a, b int32
		pkt  *Packet
		fn   func()
	}
	if sz, without := unsafe.Sizeof(event{}), unsafe.Sizeof(unlinked{}); sz != without {
		t.Fatalf("sizeof(event) = %d, %d without its slab link", sz, without)
	}
}
