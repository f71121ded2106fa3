package deploy

import (
	"sync"

	"mars/internal/ctrlchan"
	"mars/internal/rtclock"
)

// inbox carries a transport's decoded Messages onto a node's loop. The
// read goroutine appends each to msgs, and posts the one prebuilt drain
// only when msgs goes from empty to non-empty; the drain hands them to
// handle on the loop, in the order they arrived, and gives each to release
// once handled: handle borrows a Message for the call.
type inbox struct {
	loop    *rtclock.Loop
	handle  func(ctrlchan.Message)
	release func(ctrlchan.Message)
	drainF  func()

	mu   sync.Mutex
	msgs []ctrlchan.Message
	// idle is the drained batch's storage, which msgs swaps to next
	// (loop-owned).
	idle []ctrlchan.Message
}

func newInbox(loop *rtclock.Loop, handle, release func(ctrlchan.Message)) *inbox {
	in := &inbox{loop: loop, handle: handle, release: release}
	in.drainF = in.drain
	return in
}

// deliver is the transport's deliver function.
func (in *inbox) deliver(m ctrlchan.Message) {
	in.mu.Lock()
	in.msgs = append(in.msgs, m)
	first := len(in.msgs) == 1
	in.mu.Unlock()
	if first {
		in.loop.Post(in.drainF)
	}
}

// drain handles every message delivered so far, on the loop.
func (in *inbox) drain() {
	in.mu.Lock()
	batch := in.msgs
	in.msgs = in.idle
	in.mu.Unlock()
	for i := range batch {
		in.handle(batch[i])
		in.release(batch[i])
	}
	clear(batch)
	in.idle = batch[:0]
}
