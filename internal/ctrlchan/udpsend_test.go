package ctrlchan

import (
	"math/rand"
	"net"
	"net/netip"
	"reflect"
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

// TestUDPSendAllocs: once its buffers have grown to the frame, Send
// encodes and cuts a multi-fragment response without allocating.
func TestUDPSendAllocs(t *testing.T) {
	tr := sendOnly(t)
	m := collectResponse(sendRecords)
	if avg := testing.AllocsPerRun(20, func() { tr.Send(ToSwitch, m, nil) }); avg != 0 {
		t.Errorf("a steady-state Send of a %d-record response allocates %.2f objects, want 0", sendRecords, avg)
	}
	if got := tr.Stats().FragmentsSent.Load(); got < 21*22 {
		t.Errorf("sent %d fragments over 21 sends, want 22 each", got)
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

// receiver is a transport with no socket that keeps the last Message fed
// through onFragment, and a collect response of sendRecords records cut
// into the datagrams Send writes, in a seeded shuffled order that starts
// with the last fragment (which then waits for the fragment length).
func receiver() (tr *UDPTransport, got *Message, pkts [][]byte) {
	got = new(Message)
	clock := time.Unix(1000, 0)
	tr = reasmTransport(&clock, func(m Message) { *got = m })
	pkts = fragmentsOf(1, collectResponse(sendRecords), defaultFragment)
	last := len(pkts) - 1
	pkts[0], pkts[last] = pkts[last], pkts[0]
	rand.New(rand.NewSource(1)).Shuffle(last, func(i, j int) { pkts[i+1], pkts[j+1] = pkts[j+1], pkts[i+1] })
	return tr, got, pkts
}

// TestUDPReceiveAllocs: once the transport holds a spare frame buffer,
// reassembling and decoding a 22-fragment collect response that arrives
// out of order allocates only the decoded record slice, the one thing the
// Message keeps; so does a one-fragment frame, decoded where it lies.
func TestUDPReceiveAllocs(t *testing.T) {
	tr, got, pkts := receiver()
	from := netip.MustParseAddrPort("127.0.0.1:7001")
	if len(pkts) != 22 || pkts[0][7] != 21 || pkts[1][7] == 0 {
		t.Fatalf("%d fragments, starting with %d and %d; want 22, starting with the last one and then out of order", len(pkts), pkts[0][7], pkts[1][7])
	}
	feed := func(pkts [][]byte) {
		for _, pkt := range pkts {
			tr.onFragment(pkt, from)
		}
	}
	feed(pkts) // grow the spare
	if want := collectResponse(sendRecords); !reflect.DeepEqual(*got, want) {
		t.Fatal("the shuffled fragments did not reassemble to the response")
	}
	if avg := testing.AllocsPerRun(20, func() { feed(pkts) }); avg != 1 {
		t.Errorf("a warm %d-fragment receive allocates %.2f objects, want 1 (the records)", len(pkts), avg)
	}
	one := fragmentsOf(2, collectResponse(5), defaultFragment)
	if avg := testing.AllocsPerRun(20, func() { feed(one) }); len(one) != 1 || avg != 1 {
		t.Errorf("a one-fragment receive (%d fragments) allocates %.2f objects, want 1 (the records)", len(one), avg)
	}
	if tr.stats.FramesReceived.Load() != 1+21+21 || len(tr.reasm) != 0 || tr.reasmHeld != 0 {
		t.Errorf("received %d frames, %d still held in %d bytes", tr.stats.FramesReceived.Load(), len(tr.reasm), tr.reasmHeld)
	}
}

// BenchmarkUDPReceive is the receiving end of BenchmarkUDPSend, without
// the socket: a full k=4 ring's collect response arrives as 22 shuffled
// datagrams, assembled in the spare frame buffer and decoded.
func BenchmarkUDPReceive(b *testing.B) {
	tr, _, pkts := receiver()
	from := netip.MustParseAddrPort("127.0.0.1:7001")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkt := range pkts {
			tr.onFragment(pkt, from)
		}
	}
}
