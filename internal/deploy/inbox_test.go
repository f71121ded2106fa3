package deploy

import (
	"testing"

	"mars/internal/ctrlchan"
	"mars/internal/rtclock"
)

// TestInboxKeepsArrivalOrder delivers messages from another goroutine
// while the loop drains them: the node sees each once, in arrival order.
func TestInboxKeepsArrivalOrder(t *testing.T) {
	loop := rtclock.New()
	defer loop.Stop()
	const n = 2000
	var got []uint64
	in := newInbox(loop, func(m ctrlchan.Message) { got = append(got, m.Seq) }, func(ctrlchan.Message) {})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= n; i++ {
			in.deliver(ctrlchan.Message{Seq: i})
		}
	}()
	<-done
	var handled []uint64
	loop.Run(func() { handled = append(handled, got...) }) // posted after the drain that holds the last message
	if len(handled) != n {
		t.Fatalf("handled %d of %d messages", len(handled), n)
	}
	for i, seq := range handled {
		if seq != uint64(i+1) {
			t.Fatalf("message %d handled as #%d", seq, i+1)
		}
	}
}
