package ctrlchan

import (
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// udpPair binds two loopback sockets wired at each other: a "controller"
// end and a "switch" end hosting the given switch IDs.
func udpPair(t *testing.T, loss float64, maxFrag int, sws ...topology.NodeID) (ctrl, sw *UDPTransport, ctrlRx, swRx *msgSink) {
	t.Helper()
	ctrlConn := bindLoopback(t)
	swConn := bindLoopback(t)
	swAddr := swConn.LocalAddr().(*net.UDPAddr)
	ctrlAddr := ctrlConn.LocalAddr().(*net.UDPAddr)

	switches := make(map[topology.NodeID]*net.UDPAddr)
	for _, id := range sws {
		switches[id] = swAddr
	}
	ctrlRx, swRx = &msgSink{}, &msgSink{}
	ctrl = NewUDP(ctrlConn, UDPConfig{Switches: switches, LossProb: loss, Seed: 7, MaxFragment: maxFrag}, ctrlRx.take)
	sw = NewUDP(swConn, UDPConfig{Controller: ctrlAddr, LossProb: loss, Seed: 8, MaxFragment: maxFrag}, swRx.take)
	t.Cleanup(func() { ctrl.Close(); sw.Close() })
	return ctrl, sw, ctrlRx, swRx
}

func bindLoopback(t testing.TB) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("bind loopback: %v", err)
	}
	return conn
}

// msgSink collects delivered messages across goroutines.
type msgSink struct {
	mu   sync.Mutex
	msgs []Message
}

func (s *msgSink) take(m Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, m)
}

func (s *msgSink) wait(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //mars:wallclock test deadline
	for {
		s.mu.Lock()
		got := append([]Message(nil), s.msgs...)
		s.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) { //mars:wallclock test deadline
			t.Fatalf("timed out waiting for %d messages, have %d", n, len(got))
		}
		time.Sleep(time.Millisecond) //mars:wallclock test polling
	}
}

func TestUDPRoundTripBothDirections(t *testing.T) {
	ctrl, sw, ctrlRx, swRx := udpPair(t, 0, 0, 3)

	req := Message{Kind: KindCollectRequest, Seq: 9, Switch: 3,
		Note: dataplane.Notification{Kind: dataplane.NotifyDrop, Switch: 3,
			Flow: dataplane.FlowID{Src: 1, Sink: 3}, Time: netsim.Second, Dropped: 4}}
	ctrl.Send(ToSwitch, req, nil)
	got := swRx.wait(t, 1)
	if !reflect.DeepEqual(got[0], req) {
		t.Fatalf("switch received %+v, want %+v", got[0], req)
	}

	resp := Message{Kind: KindCollectResponse, Seq: 9, Switch: 3,
		Stamp: 2 * netsim.Second,
		Records: []dataplane.RTRecord{{Flow: dataplane.FlowID{Src: 1, Sink: 3},
			Epoch: 12, Latency: 300 * netsim.Microsecond, Arrival: netsim.Second}}}
	sw.Send(ToController, resp, nil)
	back := ctrlRx.wait(t, 1)
	if !reflect.DeepEqual(back[0], resp) {
		t.Fatalf("controller received %+v, want %+v", back[0], resp)
	}
}

// TestUDPFragmentation forces a response across many fragments and checks
// it reassembles exactly.
func TestUDPFragmentation(t *testing.T) {
	_, sw, ctrlRx, _ := udpPair(t, 0, 128, 3)

	recs := make([]dataplane.RTRecord, 200) // 200×60 B ≫ 128 B fragments
	for i := range recs {
		recs[i] = dataplane.RTRecord{
			Flow:  dataplane.FlowID{Src: topology.NodeID(i), Sink: 3},
			Epoch: uint32(i), Latency: netsim.Time(i) * netsim.Microsecond,
			Arrival: netsim.Time(i) * netsim.Millisecond,
		}
	}
	resp := Message{Kind: KindCollectResponse, Seq: 1, Switch: 3, Records: recs}
	sw.Send(ToController, resp, nil)
	got := ctrlRx.wait(t, 1)
	if !reflect.DeepEqual(got[0], resp) {
		t.Fatal("fragmented frame did not reassemble to the original message")
	}
	if sw.Stats().FragmentsSent.Load() < 10 {
		t.Fatalf("expected many fragments, sent %d", sw.Stats().FragmentsSent.Load())
	}
}

// TestUDPInjectedLoss drops fragments with high probability and verifies
// frames actually go missing (the retry machinery's food) while repeated
// sends still get some through.
func TestUDPInjectedLoss(t *testing.T) {
	ctrl, _, _, swRx := udpPair(t, 0.5, 0, 3)

	const sends = 60
	for i := 0; i < sends; i++ {
		ctrl.Send(ToSwitch, Message{Kind: KindRefreshRequest, Seq: uint64(i + 1),
			Switch: 3, Wire: RefreshRequestBytes}, nil)
	}
	time.Sleep(300 * time.Millisecond) //mars:wallclock allow in-flight datagrams to land
	swRx.mu.Lock()
	got := len(swRx.msgs)
	swRx.mu.Unlock()
	if got == 0 {
		t.Fatal("all frames lost: loss injection should be probabilistic, not total")
	}
	if got == sends {
		t.Fatal("no frames lost despite 50% injected fragment loss")
	}
	if ctrl.Stats().InjectedDrops.Load() == 0 {
		t.Fatal("loss injection recorded no drops")
	}
}

// TestUDPGarbageTolerance feeds raw garbage datagrams at a transport; the
// read loop must survive and keep delivering valid frames.
func TestUDPGarbageTolerance(t *testing.T) {
	ctrl, sw, ctrlRx, _ := udpPair(t, 0, 0, 3)
	ctrlAddr := ctrl.conn.LocalAddr().(*net.UDPAddr)

	attacker := bindLoopback(t)
	defer attacker.Close()
	for _, pkt := range [][]byte{
		{},
		{0xFF},
		{0x4D, 0x46, 0, 0, 0, 1, 0, 9, 0, 2}, // index >= count
		{0x4D, 0x46, 0, 0, 0, 2, 0, 0, 0, 0}, // zero count
		{0x4D, 0x46, 0, 0, 0, 3, 0, 0, 0, 1, 0xAB}, // valid fragment, garbage frame
	} {
		if len(pkt) > 0 {
			attacker.WriteToUDP(pkt, ctrlAddr)
		}
	}

	resp := Message{Kind: KindThresholdAck, Seq: 4, Switch: 3}
	sw.Send(ToController, resp, nil)
	got := ctrlRx.wait(t, 1)
	if !reflect.DeepEqual(got[0], resp) {
		t.Fatalf("valid frame lost after garbage: got %+v", got[0])
	}
}

// TestUDPUnroutableSwitchDropsSilently sends to a switch with no portmap
// entry: the frame must vanish without error (retries own recovery).
func TestUDPUnroutableSwitchDropsSilently(t *testing.T) {
	ctrl, _, _, swRx := udpPair(t, 0, 0, 3)
	ctrl.Send(ToSwitch, Message{Kind: KindRefreshRequest, Seq: 1, Switch: 99}, nil)
	ctrl.Send(ToSwitch, Message{Kind: KindRefreshRequest, Seq: 2, Switch: 3,
		Wire: RefreshRequestBytes}, nil)
	got := swRx.wait(t, 1)
	if got[0].Switch != 3 {
		t.Fatalf("delivered to %d, want 3", got[0].Switch)
	}
}

// reasmTransport is a transport with no socket: a test feeds datagrams to
// onFragment itself, and the reassembly clock reads *clock.
func reasmTransport(clock *time.Time, deliver func(Message)) *UDPTransport {
	return &UDPTransport{
		reasm:   make(map[reasmKey]*partialFrame),
		deliver: deliver,
		now:     func() time.Time { return *clock },
	}
}

// fragment renders one datagram as Send writes it.
func fragment(id uint32, index, count int, payload []byte) []byte {
	return appendFragment(nil, id, index, count, payload)
}

// fragmentsOf cuts m's frame into the datagrams Send would write.
func fragmentsOf(id uint32, m Message, maxFrag int) [][]byte {
	frame := EncodeMessage(&m)
	pkts := make([][]byte, (len(frame)+maxFrag-1)/maxFrag)
	for i := range pkts {
		hi := (i + 1) * maxFrag
		if hi > len(frame) {
			hi = len(frame)
		}
		pkts[i] = fragment(id, i, len(pkts), frame[i*maxFrag:hi])
	}
	return pkts
}

// feedFrame hands m to t as the fragments Send would cut it into.
func feedFrame(t *UDPTransport, from netip.AddrPort, id uint32, m Message, maxFrag int) {
	for _, pkt := range fragmentsOf(id, m, maxFrag) {
		t.onFragment(pkt, from)
	}
}

// TestReassemblyFloodIsBounded opens 10,000 frames of 65,535 announced
// fragments each from one unauthenticated sender. What they may pin is a
// constant, and once they have expired an honest multi-fragment frame is
// delivered again.
func TestReassemblyFloodIsBounded(t *testing.T) {
	clock := time.Unix(1000, 0)
	var got []Message
	tr := reasmTransport(&clock, func(m Message) { got = append(got, m) })
	honest := netip.MustParseAddrPort("127.0.0.1:7001")
	attacker := netip.MustParseAddrPort("127.0.0.1:6666")
	resp := Message{Kind: KindCollectResponse, Seq: 1, Switch: 3, Records: make([]dataplane.RTRecord, 100)}
	feedFrame(tr, honest, 1, resp, defaultFragment)
	if len(got) != 1 {
		t.Fatalf("delivered %d frames before the flood, want 1", len(got))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for id := uint32(0); id < 10000; id++ {
		tr.onFragment(fragment(id, 0, 65535, []byte{0}), attacker)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 32<<20 {
		t.Fatalf("10,000 eleven-byte datagrams pinned %d MiB of live heap, want under 32", growth>>20)
	}
	if tr.reasmHeld > maxReasmBytes || len(tr.reasm) > maxPartialFrames {
		t.Fatalf("incomplete frames hold %d bytes in %d entries, bounds %d and %d", tr.reasmHeld, len(tr.reasm), maxReasmBytes, maxPartialFrames)
	}
	if len(tr.reasm) == 0 || tr.stats.ReasmDropped.Load() == 0 {
		t.Fatalf("flood left %d entries and %d drops; it never reached the bound", len(tr.reasm), tr.stats.ReasmDropped.Load())
	}

	clock = clock.Add(reasmTTL + reasmSweep + time.Millisecond)
	feedFrame(tr, honest, 2, resp, defaultFragment)
	if len(got) != 2 || !reflect.DeepEqual(got[1], resp) {
		t.Fatalf("delivered %d frames after the flood expired, want the honest frame again", len(got))
	}
	if len(tr.reasm) != 0 || tr.reasmHeld != 0 {
		t.Fatalf("expired flood still holds %d bytes in %d entries", tr.reasmHeld, len(tr.reasm))
	}
}

// TestReassemblyDropsOversizeFrame: fragments that already add up to more
// than any frame DecodeMessage accepts are dropped without waiting for the
// rest.
func TestReassemblyDropsOversizeFrame(t *testing.T) {
	clock := time.Unix(1000, 0)
	tr := reasmTransport(&clock, func(Message) { t.Fatal("delivered a frame nobody sent") })
	from := netip.MustParseAddrPort("127.0.0.1:6666")
	payload := make([]byte, 60000)
	for i := 0; i*len(payload) <= maxFrameBytes; i++ {
		tr.onFragment(fragment(9, i, 1000, payload), from)
	}
	if len(tr.reasm) != 0 || tr.reasmHeld != 0 || tr.stats.ReasmDropped.Load() != 1 {
		t.Fatalf("oversize frame left %d entries holding %d bytes, %d drops; want it dropped at once",
			len(tr.reasm), tr.reasmHeld, tr.stats.ReasmDropped.Load())
	}
}

// TestReassemblyDropsInconsistentFragments: a sender cuts every fragment
// but the last at one length, and the last no longer, so a fragment that
// breaks either rule, or carries nothing, evicts its frame at once.
func TestReassemblyDropsInconsistentFragments(t *testing.T) {
	clock := time.Unix(1000, 0)
	tr := reasmTransport(&clock, func(Message) { t.Fatal("delivered a frame nobody sent") })
	from := netip.MustParseAddrPort("127.0.0.1:6666")
	for i, frags := range [][][]byte{
		{fragment(1, 0, 3, make([]byte, 100)), fragment(1, 1, 3, make([]byte, 50))},
		{fragment(2, 2, 3, make([]byte, 100)), fragment(2, 0, 3, make([]byte, 50))},
		{fragment(3, 0, 3, nil)},
	} {
		for _, f := range frags {
			tr.onFragment(f, from)
		}
		if len(tr.reasm) != 0 || tr.reasmHeld != 0 || tr.stats.ReasmDropped.Load() != int64(i+1) {
			t.Fatalf("case %d left %d entries holding %d bytes, %d drops; want it dropped", i, len(tr.reasm), tr.reasmHeld, tr.stats.ReasmDropped.Load())
		}
	}
}
