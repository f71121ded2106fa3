package ctrlchan

import (
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// sendRecords is a full k=4 Ring Table: its collect response is a
// 30,752-byte frame, 22 datagrams at the default fragment size.
const sendRecords = 512

// sendOnly is a transport that sends ToSwitch traffic for switch 3 to a
// bound loopback socket nothing reads: the kernel discards what overflows
// its buffer, so Send is all that runs (and allocates) in this process.
func sendOnly(tb testing.TB) *UDPTransport {
	tb.Helper()
	peer := bindLoopback(tb)
	tr := NewUDP(bindLoopback(tb), UDPConfig{
		Switches: map[topology.NodeID]*net.UDPAddr{3: peer.LocalAddr().(*net.UDPAddr)},
	}, func(Message) {})
	tb.Cleanup(func() { tr.Close(); peer.Close() })
	return tr
}

// collectResponse is a collect response of n records for switch 3.
func collectResponse(n int) Message {
	recs := make([]dataplane.RTRecord, n)
	for i := range recs {
		recs[i] = dataplane.RTRecord{Flow: dataplane.FlowID{Src: topology.NodeID(i % 8), Sink: 3},
			Epoch: uint32(i), Latency: netsim.Time(i) * netsim.Microsecond, Arrival: netsim.Time(i) * netsim.Millisecond}
	}
	return Message{Kind: KindCollectResponse, Seq: 1, Switch: 3, Stamp: netsim.Second, Records: recs}
}

// perRun is how many calls each measured run of an allocation guard makes:
// testing.AllocsPerRun divides allocations by runs in integer arithmetic,
// so growth amortized below one allocation per call shows only across many
// calls.
const perRun = 100

// repeat makes f one measured run of perRun calls. The guards measure
// with the collector paused (debug.SetGCPercent(-1)): a collection cycle's
// own allocations (one or two per cycle) would otherwise count against f. So
// a guard whose f allocates keeps its runs few: nothing is freed until the
// guard resumes the collector.
func repeat(f func()) func() {
	return func() {
		for i := 0; i < perRun; i++ {
			f()
		}
	}
}

// TestUDPSendAllocs: once its buffers have grown to the frame, Send
// encodes and cuts a multi-fragment response without allocating.
func TestUDPSendAllocs(t *testing.T) {
	tr := sendOnly(t)
	m := collectResponse(sendRecords)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(20, repeat(func() { tr.Send(ToSwitch, m, nil) })); avg != 0 {
		t.Errorf("%d steady-state Sends of a %d-record response allocate %.2f objects, want 0", perRun, sendRecords, avg)
	}
	if got := tr.Stats().FragmentsSent.Load(); got < 21*perRun*22 {
		t.Errorf("sent %d fragments over %d sends, want 22 each", got, 21*perRun)
	}
}

// TestUDPConcurrentSend: Sends from several goroutines share the
// transport's buffers under its send mutex, and every frame arrives whole
// — a one-fragment frame decoded in the read buffer the next datagram
// overwrites, a two-fragment one through reassembly.
func TestUDPConcurrentSend(t *testing.T) {
	_, sw, ctrlRx, _ := udpPair(t, 0, 0, 3)
	const senders, each = 4, 10
	sent := func(seq uint64) Message {
		m := collectResponse(5 + 25*int(seq%2)) // 332 B or 1,832 B: one fragment or two
		m.Seq = seq
		m.Records[0].Epoch = uint32(seq)
		return m
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sw.Send(ToController, sent(uint64(g*each+i+1)), nil)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, m := range ctrlRx.wait(t, senders*each) {
		if seen[m.Seq] || !reflect.DeepEqual(m, sent(m.Seq)) {
			t.Fatalf("frame seq %d arrived twice or altered", m.Seq)
		}
		seen[m.Seq] = true
	}
}

// BenchmarkUDPSend is one Send of a full k=4 ring's collect response on
// loopback: encode into the transport's frame buffer and write 22
// datagrams from its datagram buffer.
func BenchmarkUDPSend(b *testing.B) {
	tr := sendOnly(b)
	m := collectResponse(sendRecords)
	tr.Send(ToSwitch, m, nil) // grow the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(ToSwitch, m, nil)
	}
}

// datagram is one received datagram and the address it came from.
type datagram struct {
	from netip.AddrPort
	pkt  []byte
}

// shuffled cuts m into the datagrams Send writes, from one address, in a
// seeded shuffled order that starts with the last fragment (which then
// waits for the fragment length).
func shuffled(from netip.AddrPort, id uint32, m Message) []datagram {
	pkts := fragmentsOf(id, m, defaultFragment)
	last := len(pkts) - 1
	pkts[0], pkts[last] = pkts[last], pkts[0]
	rand.New(rand.NewSource(1)).Shuffle(last, func(i, j int) { pkts[i+1], pkts[j+1] = pkts[j+1], pkts[i+1] })
	dgs := make([]datagram, len(pkts))
	for i, pkt := range pkts {
		dgs[i] = datagram{from, pkt}
	}
	return dgs
}

// receiver is a transport with no socket that hands each Message fed
// through onFragment to deliver, called with the transport itself.
func receiver(deliver func(tr *UDPTransport, m Message)) *UDPTransport {
	clock := time.Unix(1000, 0)
	var tr *UDPTransport
	tr = reasmTransport(&clock, func(m Message) { deliver(tr, m) })
	return tr
}

// feedAll hands every datagram to tr.
func feedAll(tr *UDPTransport, dgs []datagram) {
	for _, dg := range dgs {
		tr.onFragment(dg.pkt, dg.from)
	}
}

// TestUDPReceiveAllocs: a warm receive whose consumer Releases each
// Message allocates nothing — a 22-fragment collect response arriving out
// of order, a one-fragment frame decoded where it lies, and four peers'
// 6-fragment responses interleaved, which assemble in the transport's four
// spare frame buffers. Without Release it allocates exactly the
// decoded record slices, one per frame.
func TestUDPReceiveAllocs(t *testing.T) {
	var got Message
	var release bool
	frames := 0
	tr := receiver(func(tr *UDPTransport, m Message) {
		got = m
		frames++
		if release {
			tr.Release(m)
		}
	})
	from := netip.MustParseAddrPort("127.0.0.1:7001")
	want := collectResponse(sendRecords)
	one := shuffled(from, 1, want)
	if len(one) != 22 || one[0].pkt[7] != 21 || one[1].pkt[7] == 0 {
		t.Fatalf("%d fragments, starting with %d and %d; want 22, starting with the last one and then out of order", len(one), one[0].pkt[7], one[1].pkt[7])
	}
	feedAll(tr, one)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the shuffled fragments did not reassemble to the response")
	}
	var peers [4][]datagram // a 128-record response each: 6 fragments
	for p := range peers {
		m := collectResponse(128)
		m.Seq = uint64(p)
		peers[p] = shuffled(netip.AddrPortFrom(from.Addr(), 7001+uint16(p)), 1, m)
	}
	var four []datagram
	for i := range peers[0] {
		for _, dgs := range peers {
			four = append(four, dgs[i])
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name      string
		dgs       []datagram
		fragments int
		frames    int
	}{
		{"a 22-fragment receive", one, 22, 1},
		{"a one-fragment receive", shuffled(from, 2, collectResponse(5)), 1, 1},
		{"four peers' interleaved 6-fragment receives", four, 24, 4},
	} {
		if len(c.dgs) != c.fragments {
			t.Fatalf("%s is %d datagrams, want %d", c.name, len(c.dgs), c.fragments)
		}
		receive := repeat(func() { feedAll(tr, c.dgs) })
		release = true
		if avg := testing.AllocsPerRun(20, receive); avg != 0 {
			t.Errorf("%d of %s, each Released, allocate %.2f objects, want 0", perRun, c.name, avg)
		}
		release = false
		if avg := testing.AllocsPerRun(3, receive); avg != float64(perRun*c.frames) {
			t.Errorf("%d of %s, none Released, allocate %.2f objects, want %d (the records)", perRun, c.name, avg, perRun*c.frames)
		}
	}
	if tr.stats.FramesReceived.Load() != int64(frames) || len(tr.reasm) != 0 || tr.reasmHeld != 0 || len(tr.spares) != maxSpares {
		t.Errorf("received %d of %d frames, %d still held in %d bytes, %d spares", tr.stats.FramesReceived.Load(), frames, len(tr.reasm), tr.reasmHeld, len(tr.spares))
	}
}

// TestUDPUnreleasedMessageStaysIntact: a Message its consumer never
// Releases — one sent straight back out, as a round-trip measurement
// does — is the consumer's own. Later frames decode into the slices of
// Messages that were released, never into it.
func TestUDPUnreleasedMessageStaysIntact(t *testing.T) {
	var kept []Message
	tr := receiver(func(tr *UDPTransport, m Message) {
		if m.Seq%2 == 0 {
			tr.Release(m)
			return
		}
		kept = append(kept, m)
	})
	from := netip.MustParseAddrPort("127.0.0.1:7001")
	sent := func(seq uint64) Message {
		if seq%3 == 0 {
			return Message{Kind: KindThresholdPush, Seq: seq, Switch: 3, Thresholds: []Threshold{{Value: netsim.Time(seq)}, {Value: 1}}}
		}
		m := collectResponse(sendRecords - int(seq))
		m.Seq = seq
		m.Records[0].Epoch = uint32(seq)
		return m
	}
	const frames = 24
	for seq := uint64(1); seq <= frames; seq++ {
		feedAll(tr, shuffled(from, uint32(seq), sent(seq)))
	}
	if len(kept) != frames/2 {
		t.Fatalf("kept %d of %d frames, want the %d odd ones", len(kept), frames, frames/2)
	}
	for _, m := range kept {
		if !reflect.DeepEqual(m, sent(m.Seq)) {
			t.Fatalf("kept frame seq %d was overwritten by a later one", m.Seq)
		}
	}
}

// TestUDPConcurrentSendersWithRelease: four transports send at once to one,
// whose consumer goroutine checks each Message and Releases it, so the read
// goroutine decodes later frames into slices another goroutine handed back.
// Under -race this checks the handoff.
func TestUDPConcurrentSendersWithRelease(t *testing.T) {
	const senders, each = 4, 10
	ctrlConn := bindLoopback(t)
	in := make(chan Message, senders*each)
	ctrl := NewUDP(ctrlConn, UDPConfig{}, func(m Message) { in <- m })
	t.Cleanup(func() { ctrl.Close() })
	sent := func(seq uint64) Message {
		if seq%3 == 0 {
			ths := make([]Threshold, 3+seq%5)
			for i := range ths {
				ths[i] = Threshold{Flow: dataplane.FlowID{Src: topology.NodeID(i), Sink: 3}, Value: netsim.Time(seq)}
			}
			return Message{Kind: KindThresholdAck, Seq: seq, Switch: 3, Thresholds: ths}
		}
		m := collectResponse(5 + 25*int(seq%2)) // one fragment or two
		m.Seq = seq
		m.Records[0].Epoch = uint32(seq)
		return m
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		sw := NewUDP(bindLoopback(t), UDPConfig{Controller: ctrlConn.LocalAddr().(*net.UDPAddr)}, func(Message) {})
		t.Cleanup(func() { sw.Close() })
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sw.Send(ToController, sent(uint64(g*each+i+1)), nil)
			}
		}(g)
	}
	seen := make(map[uint64]bool)
	deadline := time.After(5 * time.Second) //mars:wallclock test deadline
	for len(seen) < senders*each {
		select {
		case m := <-in:
			if seen[m.Seq] || !reflect.DeepEqual(m, sent(m.Seq)) {
				t.Fatalf("frame seq %d arrived twice or altered", m.Seq)
			}
			seen[m.Seq] = true
			ctrl.Release(m)
		case <-deadline:
			t.Fatalf("received %d of %d frames", len(seen), senders*each)
		}
	}
	wg.Wait()
}

// BenchmarkUDPReceive is the receiving end of BenchmarkUDPSend, without
// the socket: a full k=4 ring's collect response arrives as 22 shuffled
// datagrams, assembled in a spare frame buffer and decoded into the record
// slice the consumer Released after the last one.
func BenchmarkUDPReceive(b *testing.B) {
	tr := receiver(func(tr *UDPTransport, m Message) { tr.Release(m) })
	dgs := shuffled(netip.MustParseAddrPort("127.0.0.1:7001"), 1, collectResponse(sendRecords))
	feedAll(tr, dgs) // grow a spare and the released records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedAll(tr, dgs)
	}
}

// TestReleaseKeepsTheLargestFew: Release keeps at most maxFree slices of a
// kind, the largest ones handed back, and none decoded from more than
// maxFreeBytes of frame; a decode takes the smallest kept slice that holds
// its entries.
func TestReleaseKeepsTheLargestFew(t *testing.T) {
	tr := receiver(func(*UDPTransport, Message) {})
	most := maxFreeBytes / RecordWireBytes
	for n := 1; n <= 2*maxFree; n++ {
		tr.Release(Message{Records: make([]dataplane.RTRecord, n)})
	}
	tr.Release(Message{Records: make([]dataplane.RTRecord, most+1)})
	var caps, want []int
	for _, s := range tr.freeRecords.kept {
		caps = append(caps, cap(s))
	}
	for n := maxFree + 1; n <= 2*maxFree; n++ {
		want = append(want, n)
	}
	slices.Sort(caps)
	if !slices.Equal(caps, want) {
		t.Fatalf("kept slices of capacity %v, want %v", caps, want)
	}
	if got := tr.freeRecords.take(want[1]); cap(got) != want[1] || len(tr.freeRecords.kept) != maxFree-1 {
		t.Fatalf("a %d-record decode took a slice of capacity %d, want the kept %d", want[1], cap(got), want[1])
	}
}
