// Package rtclock is the wall-clock implementation of the controller's
// Clock seam (controlplane.Clock) for the real-process deployment mode.
//
// The controller is single-threaded discrete-event code: every callback
// assumes nothing else touches controller state concurrently. The
// simulator guarantees that by construction; rtclock preserves it in real
// time with a run Loop — one goroutine owns all controller state and
// executes posted functions strictly serially. Timers (After/At) wait in
// a heap the loop owns, ordered by (deadline, call order), behind one Go
// runtime timer set to the earliest deadline; the loop itself runs them
// once due, so the single-threaded discipline survives the move to wall
// time.
//
// Time values are nanoseconds since the loop started (netsim.Time is an
// int64 nanosecond count, so the unit algebra is shared with the
// simulator). These values live on the wall-clock timeline and are never
// comparable with simulated data-plane timestamps; the controller keeps
// the two apart via Diagnosis.AsOf.
package rtclock

import (
	"sync"
	"time"

	"mars/internal/netsim"
)

// Loop is a serialized wall-clock run queue implementing
// controlplane.Clock. The zero value is not usable; call New.
type Loop struct {
	start time.Time

	mu    sync.Mutex
	queue []func()
	// timers is the min-heap of armed callbacks; armed is the deadline
	// the runtime timer rt is set to, or unarmed. seq numbers At calls so
	// that equal deadlines fire in call order.
	timers  []timer
	seq     uint64
	armed   netsim.Time
	rt      *time.Timer
	wake    chan struct{}
	stopped bool
	done    chan struct{}
}

// unarmed marks the runtime timer as set to no deadline.
const unarmed netsim.Time = -1

// timer is one armed callback.
type timer struct {
	at  netsim.Time
	seq uint64
	fn  func()
}

func (a *timer) before(b *timer) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// New starts a loop; its goroutine runs until Stop.
func New() *Loop {
	l := &Loop{
		start: time.Now(), //mars:wallclock deployment-mode clock epoch; never used in simulation
		armed: unarmed,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	l.rt = time.AfterFunc(time.Hour, l.fire) //mars:wallclock rtclock is the deployment-mode wall clock; the simulator implements the same Clock seam for all seeded runs
	l.rt.Stop()
	//mars:sync the loop goroutine is the node's only executor: every Post/After callback runs serialized on it, so scheduling cannot reorder observable state; deployment mode is wall-clock by design and outside the seeded digest surface
	go l.run()
	return l
}

// Now returns nanoseconds since the loop started.
func (l *Loop) Now() netsim.Time {
	return netsim.Time(time.Since(l.start)) //mars:wallclock deployment-mode clock readout; never used in simulation
}

// Post enqueues fn for serialized execution on the loop goroutine. Posts
// after Stop are discarded.
func (l *Loop) Post(fn func()) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, fn)
	l.mu.Unlock()
	l.kick()
}

// After runs fn on the loop goroutine once d has elapsed (immediately
// posted for non-positive d).
func (l *Loop) After(d netsim.Time, fn func()) {
	if d <= 0 {
		l.Post(fn)
		return
	}
	l.At(l.Now()+d, fn)
}

// At runs fn at absolute loop time t (immediately if t has passed).
// Callbacks due at the same t run in the order At was called.
func (l *Loop) At(t netsim.Time, fn func()) {
	if t <= l.Now() {
		l.Post(fn)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return
	}
	l.seq++
	l.push(timer{at: t, seq: l.seq, fn: fn})
	l.arm(t)
}

// Stop halts the loop after the currently queued work drains. It blocks
// until the loop goroutine exits; armed timers never run. Stop is
// idempotent.
func (l *Loop) Stop() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		l.rt.Stop()
		clear(l.timers)
		l.timers = l.timers[:0]
	}
	l.mu.Unlock()
	l.kick()
	<-l.done
}

// Run executes fn on the loop goroutine and blocks until it returns —
// the synchronous window deployment code uses to read controller state.
func (l *Loop) Run(fn func()) {
	ch := make(chan struct{})
	l.Post(func() {
		fn()
		close(ch)
	})
	select {
	case <-ch:
	case <-l.done:
	}
}

// kick wakes the loop goroutine if it sleeps.
func (l *Loop) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// fire is the runtime timer's callback: the armed deadline has passed.
func (l *Loop) fire() {
	l.mu.Lock()
	l.armed = unarmed
	l.mu.Unlock()
	l.kick()
}

// arm sets the runtime timer to at if nothing earlier is armed. Called
// with mu held.
func (l *Loop) arm(at netsim.Time) {
	if l.armed != unarmed && l.armed <= at {
		return
	}
	l.armed = at
	l.rt.Reset(time.Duration(at - l.Now()))
}

// run is the loop goroutine: move due timers onto the queue, swap the
// queue for the drained one and run it, sleep until woken, exit once
// stopped and drained.
func (l *Loop) run() {
	defer close(l.done)
	var idle []func()
	for {
		l.mu.Lock()
		if len(l.timers) > 0 {
			now := l.Now()
			for len(l.timers) > 0 && l.timers[0].at <= now {
				l.queue = append(l.queue, l.pop().fn)
			}
			if len(l.timers) > 0 {
				l.arm(l.timers[0].at)
			}
		}
		batch := l.queue
		l.queue = idle
		stopped := l.stopped
		l.mu.Unlock()
		for _, fn := range batch {
			fn()
		}
		clear(batch)
		idle = batch[:0]
		if len(batch) > 0 {
			continue // re-check for work queued while running the batch
		}
		if stopped {
			return
		}
		<-l.wake
	}
}

// push adds t to the timer heap. Called with mu held.
func (l *Loop) push(t timer) {
	l.timers = append(l.timers, t)
	h := l.timers
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest timer. Called with mu held.
func (l *Loop) pop() timer {
	h := l.timers
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = timer{}
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	l.timers = h
	return top
}
