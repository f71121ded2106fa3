package rtclock

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"mars/internal/controlplane"
	"mars/internal/netsim"
)

var _ controlplane.Clock = (*Loop)(nil)

// TestSerialized proves posted functions never run concurrently: many
// goroutines post increments of an unsynchronized counter; -race plus the
// final count catch any overlap.
func TestSerialized(t *testing.T) {
	l := New()
	const posters, each = 8, 200
	var n int // unsynchronized on purpose: the loop is the serializer
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Post(func() { n++ })
			}
		}()
	}
	wg.Wait()
	l.Stop()
	if n != posters*each {
		t.Fatalf("counter = %d, want %d", n, posters*each)
	}
}

func TestAfterOrderingAndNow(t *testing.T) {
	l := New()
	defer l.Stop()
	var order []int
	done := make(chan struct{})
	l.After(20*netsim.Millisecond, func() {
		order = append(order, 2)
		close(done)
	})
	l.After(netsim.Millisecond, func() { order = append(order, 1) })
	l.Post(func() { order = append(order, 0) })
	<-done
	var got []int
	l.Run(func() { got = append(got, order...) })
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", got)
	}
	if l.Now() <= 0 {
		t.Fatalf("Now() = %v, want > 0", l.Now())
	}
}

func TestAtPastRunsImmediately(t *testing.T) {
	l := New()
	defer l.Stop()
	ran := make(chan struct{})
	l.At(0, func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("At(past) never ran")
	}
}

func TestStopIdempotentAndDiscardsLatePosts(t *testing.T) {
	l := New()
	l.Stop()
	l.Stop()
	l.Post(func() { t.Error("post after stop ran") })
	time.Sleep(10 * time.Millisecond) //mars:wallclock test grace period for a callback that must NOT fire
}

// TestAfterFiresInDeadlineThenCallOrder arms 1,000 callbacks at random
// deadlines, many of them tied, and checks they run in (deadline, call
// order): the heap breaks ties by the order At was called.
func TestAfterFiresInDeadlineThenCallOrder(t *testing.T) {
	l := New()
	defer l.Stop()
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	type armed struct {
		at netsim.Time
		i  int
	}
	var want, got []armed
	done := make(chan struct{})
	l.Run(func() { // arm them all in one turn, before the first falls due
		base := l.Now() + 100*netsim.Millisecond
		for i := 0; i < n; i++ {
			d := netsim.Time(rng.Intn(20)) * netsim.Millisecond
			a := armed{at: base + d, i: i}
			want = append(want, a)
			l.At(a.at, func() {
				if got = append(got, a); len(got) == n {
					close(done)
				}
			})
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second): //mars:wallclock test deadline
		t.Fatal("timers did not all fire")
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	var ran []armed
	l.Run(func() { ran = append(ran, got...) })
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("callback %d: ran #%d (due %v), want #%d (due %v)", i, ran[i].i, ran[i].at, want[i].i, want[i].at)
		}
	}
}

// TestTimerArmedBeforeStopNeverRuns: Stop discards what is armed.
func TestTimerArmedBeforeStopNeverRuns(t *testing.T) {
	l := New()
	l.After(50*netsim.Millisecond, func() { t.Error("a timer armed before Stop ran") })
	l.Run(func() {
		l.After(50*netsim.Millisecond, func() { t.Error("a timer armed on the loop before Stop ran") })
	})
	l.Stop()
	l.After(netsim.Millisecond, func() { t.Error("a timer armed after Stop ran") })
	time.Sleep(100 * time.Millisecond) //mars:wallclock test grace period for callbacks that must NOT fire
}

// TestLoopAllocs: once the run queues and the timer heap have grown, a
// Post or an After allocates nothing; the caller's closure is its own.
// Each measured run is a hundred calls, and each Post yields, so the loop
// swaps its queues about once a Post.
func TestLoopAllocs(t *testing.T) {
	l := New()
	defer l.Stop()
	const runs, calls = 10, 100
	fn := func() {}
	for round := 0; round < 2; round++ { // grow both run queues and the heap
		l.Run(func() { // the loop drains nothing until this returns
			for i := 0; i < (runs+1)*calls; i++ {
				l.Post(fn)
				l.After(netsim.Millisecond, fn)
			}
		})
		time.Sleep(5 * time.Millisecond) //mars:wallclock let the timers fall due
		l.Run(fn)
	}
	if avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < calls; i++ {
			l.Post(fn)
			runtime.Gosched()
		}
	}); avg != 0 {
		t.Errorf("%d warm Posts allocate %.2f objects, want 0", calls, avg)
	}
	if avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < calls; i++ {
			l.After(netsim.Second, fn)
		}
	}); avg != 0 {
		t.Errorf("%d warm Afters allocate %.2f objects, want 0", calls, avg)
	}
}

// TestEarlierTimerRearms: a deadline earlier than the one the runtime
// timer is set to resets it, so the callback is not held back.
func TestEarlierTimerRearms(t *testing.T) {
	l := New()
	defer l.Stop()
	ran := make(chan struct{})
	l.After(netsim.Second, func() {})
	l.After(netsim.Millisecond, func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(500 * time.Millisecond): //mars:wallclock test deadline
		t.Fatal("a 1 ms timer armed after a 1 s one waited for it")
	}
}
