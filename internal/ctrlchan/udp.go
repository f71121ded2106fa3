package ctrlchan

import (
	"encoding/binary"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mars/internal/dataplane"
	"mars/internal/topology"
)

// UDPTransport carries control-channel Messages between real OS processes
// over a UDP socket — the deployment-mode implementation of Transport.
//
// Each process owns one socket. Outbound messages are encoded with
// appendMessage and split into MTU-sized fragments, both into buffers the
// transport keeps, so a steady-state Send allocates nothing; the receiving
// process reassembles them, decodes the frame, and hands the Message to its
// registered deliver function on the transport's read goroutine (callers
// serialize into their own run loop), decoded into slices a consumer hands
// back with Release; one that never does owns every Message. A lost,
// truncated, or corrupted fragment loses the whole frame — exactly the
// failure the controller's timeout/backoff/retry machinery above this
// seam already absorbs.
//
// LossProb injects seeded random outbound fragment drops so the retry
// path can be exercised deterministically on an otherwise reliable
// loopback network.
type UDPTransport struct {
	conn *net.UDPConn
	// controller is where ToController traffic goes.
	controller *net.UDPAddr
	// switches routes ToSwitch traffic by Message.Switch. Several switch
	// IDs may map to the same process (switch groups).
	switches map[topology.NodeID]*net.UDPAddr
	deliver  func(Message)

	maxFragment int
	closed      atomic.Bool
	// lossProb is the injected outbound fragment loss probability.
	lossProb float64

	// sendMu serializes Send and guards what it keeps between calls: the
	// last frame id, the loss stream, the buffer each frame is encoded
	// into and the one each of its datagrams is written from.
	sendMu   sync.Mutex
	frameID  uint32
	rng      *rand.Rand
	frame    []byte
	datagram []byte

	stats UDPStats

	// Reassembly state, owned by the read goroutine. reasmHeld is what the
	// incomplete frames hold (partialFrame.held summed), kept at or below
	// maxReasmBytes. spares are completed or evicted frames, kept for the
	// next frames to assemble in: at most maxSpares, each buffer at most
	// maxFrameBytes and each fragment bitmap at most 8 KiB, and not counted
	// in reasmHeld.
	reasm     map[reasmKey]*partialFrame
	reasmHeld int
	spares    []*partialFrame
	sweep     time.Time
	// now is the reassembly TTL clock: time.Now outside tests —
	// deployment-mode I/O, never simulation state.
	now func() time.Time

	// freeMu guards the slices Release hands back for the read goroutine
	// to decode into.
	freeMu         sync.Mutex
	freeRecords    freeList[dataplane.RTRecord]
	freeThresholds freeList[Threshold]

	readDone chan struct{}
}

// UDPStats counts transport-level traffic (all fields are atomic).
type UDPStats struct {
	FramesSent     atomic.Int64
	FramesReceived atomic.Int64
	FragmentsSent  atomic.Int64
	InjectedDrops  atomic.Int64
	DecodeErrors   atomic.Int64
	ReasmDropped   atomic.Int64
}

// UDPConfig parameterizes a UDPTransport.
type UDPConfig struct {
	// Controller is the ToController destination (nil in the controller
	// process itself, which never sends in that direction).
	Controller *net.UDPAddr
	// Switches maps switch IDs to their hosting process (nil entries and
	// an empty map are valid in switch processes, which never send
	// ToSwitch).
	Switches map[topology.NodeID]*net.UDPAddr
	// LossProb drops each outbound fragment with this probability, drawn
	// from a rand stream seeded by Seed (retry-path testing knob).
	LossProb float64
	Seed     int64
	// MaxFragment caps the fragment payload size; 0 means 1400 bytes.
	MaxFragment int
}

// Fragment header: 2 B magic, 4 B frame id, 2 B index, 2 B count.
const (
	fragMagic       = 0x4D46 // "MF"
	fragHeaderBytes = 10
	defaultFragment = 1400
	// reasmTTL bounds how long an incomplete frame waits for fragments;
	// expired ones are swept at most once per reasmSweep.
	reasmTTL   = 2 * time.Second
	reasmSweep = reasmTTL / 8
	// maxFrameBytes is the largest frame DecodeMessage accepts.
	maxFrameBytes = FrameHeaderBytes + MaxFramePayload
	// maxPartialFrames and maxReasmBytes bound what incomplete frames may
	// hold, buffers and fragment bitmaps included (any datagram can
	// announce 65,535 fragments and, through its fragment length, a frame
	// up to maxFrameBytes long): room for four whole frames at once.
	maxPartialFrames = 1024
	maxReasmBytes    = 4 * maxFrameBytes
	// maxSpares bounds the frames kept for reassembly to open in: the four
	// whole frames maxReasmBytes admits at once.
	maxSpares = 4
	// maxFree bounds the released slices kept of each kind: on
	// deploy_loopback 8 meet three decodes in four, 4 three in five, and 16
	// save no more bytes. None decoded from over maxFreeBytes of frame is
	// kept, so together they pin what one maximal frame decodes to.
	maxFree      = 8
	maxFreeBytes = maxFrameBytes / maxFree
)

type reasmKey struct {
	from netip.AddrPort
	id   uint32
}

// partialFrame is one frame being reassembled in place: fragment i lands
// at i*stride of buf, where stride is the length of every fragment but the
// last. Until one of those has landed the stride is unknown (0), and a
// last fragment that came first waits at the head of buf.
type partialFrame struct {
	buf []byte
	// got has one bit per fragment, set once it has landed.
	got             []uint64
	count, have     int
	stride, lastLen int
	// held is the frame's share of reasmHeld: the capacity of buf and got.
	held     int
	deadline time.Time
}

// NewUDP wraps an already-bound socket. deliver receives every decoded
// inbound Message on the read goroutine; it must serialize into the
// owner's run loop itself. The Message is the consumer's until it passes
// it to Release. Close the transport (not the conn) to shut down.
func NewUDP(conn *net.UDPConn, cfg UDPConfig, deliver func(Message)) *UDPTransport {
	maxFrag := cfg.MaxFragment
	if maxFrag <= 0 {
		maxFrag = defaultFragment
	}
	t := &UDPTransport{
		conn:        conn,
		controller:  cfg.Controller,
		switches:    cfg.Switches,
		deliver:     deliver,
		maxFragment: maxFrag,
		lossProb:    cfg.LossProb,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		datagram:    make([]byte, 0, fragHeaderBytes+maxFrag),
		reasm:       make(map[reasmKey]*partialFrame),
		now:         time.Now,
		readDone:    make(chan struct{}),
	}
	//mars:sync the read loop only invokes the deliver callback, which posts onto the node's single-threaded rtclock loop; socket arrival order is inherently wall-clock and outside the seeded digest surface
	go t.readLoop()
	return t
}

// Send implements Transport: encode, fragment, write to the peer resolved
// from the direction and Message.Switch. The deliver argument is ignored —
// delivery happens in the receiving process.
func (t *UDPTransport) Send(d Direction, m Message, _ func(Message)) {
	if t.closed.Load() {
		return
	}
	var peer *net.UDPAddr
	if d == ToController {
		peer = t.controller
	} else {
		peer = t.switches[m.Switch]
	}
	if peer == nil {
		return // unroutable: indistinguishable from loss, retries handle it
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.frame = appendMessage(t.frame[:0], &m)
	t.frameID++
	count := (len(t.frame) + t.maxFragment - 1) / t.maxFragment // >= 1: a frame has a header
	t.stats.FramesSent.Add(1)
	for i := 0; i < count; i++ {
		lo := i * t.maxFragment
		hi := min(lo+t.maxFragment, len(t.frame))
		if t.lossProb > 0 && t.rng.Float64() < t.lossProb {
			t.stats.InjectedDrops.Add(1)
			continue
		}
		t.datagram = appendFragment(t.datagram[:0], t.frameID, i, count, t.frame[lo:hi])
		if _, err := t.conn.WriteToUDP(t.datagram, peer); err != nil {
			return // socket closed or unreachable; retries handle it
		}
		t.stats.FragmentsSent.Add(1)
	}
}

// appendFragment appends one datagram to dst: the fragment header, then
// its slice of the frame.
func appendFragment(dst []byte, id uint32, index, count int, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, fragMagic)
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = binary.BigEndian.AppendUint16(dst, uint16(index))
	dst = binary.BigEndian.AppendUint16(dst, uint16(count))
	return append(dst, payload...)
}

// Stats exposes the transport counters.
func (t *UDPTransport) Stats() *UDPStats { return &t.stats }

// Close stops the read loop and closes the socket.
func (t *UDPTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := t.conn.Close()
	<-t.readDone
	return err
}

// readLoop receives fragments, reassembles frames, decodes, delivers, until
// Close closes the socket under the blocked read.
func (t *UDPTransport) readLoop() {
	defer close(t.readDone)
	buf := make([]byte, 65536)
	for {
		n, from, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		t.onFragment(buf[:n], from)
	}
}

// Release hands back the slices of m, a Message this transport delivered,
// for a later frame to be decoded into; neither m nor anything read out of
// its slices by reference may be used after. Safe from any goroutine.
func (t *UDPTransport) Release(m Message) {
	t.freeMu.Lock()
	t.freeRecords.put(m.Records, maxFreeBytes/RecordWireBytes)
	t.freeThresholds.put(m.Thresholds, maxFreeBytes/ThresholdWireBytes)
	t.freeMu.Unlock()
}

// freeList keeps up to maxFree released slices for decoding into. One
// kind's messages differ tenfold in size, so take picks the smallest slice
// that fits and put evicts the smallest kept: on deploy_loopback the top of
// a plain stack is too small nearly three times as often.
type freeList[T any] struct{ kept [][]T }

// take returns the smallest kept slice that holds n, resliced to n, or a
// new one of n when none does or f is nil.
func (f *freeList[T]) take(n int) []T {
	if f == nil {
		return make([]T, n)
	}
	best := -1
	for i, s := range f.kept {
		if cap(s) >= n && (best < 0 || cap(s) < cap(f.kept[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	s := f.kept[best]
	last := len(f.kept) - 1
	f.kept[best], f.kept[last] = f.kept[last], nil
	f.kept = f.kept[:last]
	return s[:n]
}

// put keeps s unless it holds more than most entries, and then only the
// maxFree largest slices.
func (f *freeList[T]) put(s []T, most int) {
	if cap(s) == 0 || cap(s) > most {
		return
	}
	f.kept = append(f.kept, s[:0])
	if len(f.kept) > maxFree {
		small := 0
		for i := range f.kept {
			if cap(f.kept[i]) < cap(f.kept[small]) {
				small = i
			}
		}
		f.kept[small], f.kept[maxFree] = f.kept[maxFree], nil
		f.kept = f.kept[:maxFree]
	}
}

// onFragment folds one received datagram into its frame; a completed
// frame is decoded and delivered. pkt is only borrowed: a whole frame is
// decoded where it lies, and reassembly copies each fragment into its
// frame's buffer. Decoding copies out everything a Message holds, so the
// buffer is free for the next frame once the frame is decoded.
func (t *UDPTransport) onFragment(pkt []byte, from netip.AddrPort) {
	if len(pkt) < fragHeaderBytes || binary.BigEndian.Uint16(pkt[0:2]) != fragMagic {
		t.stats.DecodeErrors.Add(1)
		return
	}
	id := binary.BigEndian.Uint32(pkt[2:6])
	index := int(binary.BigEndian.Uint16(pkt[6:8]))
	count := int(binary.BigEndian.Uint16(pkt[8:10]))
	if count == 0 || index >= count {
		t.stats.DecodeErrors.Add(1)
		return
	}
	payload := pkt[fragHeaderBytes:]

	frame := payload
	var p *partialFrame
	if count > 1 {
		if p = t.reassemble(reasmKey{from: from, id: id}, index, count, payload); p == nil {
			return // still waiting for fragments
		}
		frame = p.buf
	}
	t.freeMu.Lock()
	m, _, err := decodeMessage(frame, &t.freeRecords, &t.freeThresholds)
	t.freeMu.Unlock()
	if p != nil && len(t.spares) < maxSpares {
		t.spares = append(t.spares, p)
	}
	if err != nil {
		t.stats.DecodeErrors.Add(1)
		return
	}
	t.stats.FramesReceived.Add(1)
	t.deliver(m)
}

// reassemble copies one fragment into its frame's buffer and returns the
// frame, removed from the table, when the last piece lands. Incomplete
// frames are evicted after reasmTTL, and a fragment that would take them
// past maxPartialFrames or maxReasmBytes, or its own frame past
// maxFrameBytes, is dropped — a lost fragment, which the retry machinery
// above already absorbs. So is a frame whose fragments disagree on their
// length: a sender cuts every fragment but the last at one size.
func (t *UDPTransport) reassemble(k reasmKey, index, count int, payload []byte) *partialFrame {
	now := t.now()
	if now.After(t.sweep) {
		for key, p := range t.reasm {
			if now.After(p.deadline) {
				t.evict(key, p)
			}
		}
		t.sweep = now.Add(reasmSweep)
	}
	p := t.reasm[k]
	if p != nil && p.count != count {
		t.evict(k, p) // the id now announces a different frame
		p = nil
	}
	if p != nil && p.got[index/64]&(1<<(index%64)) != 0 {
		return nil // duplicate
	}

	// Where the fragment lands, and how long its frame's buffer must be.
	last := index == count-1
	stride, lastLen := 0, 0
	if p != nil {
		stride, lastLen = p.stride, p.lastLen
	}
	switch {
	case len(payload) == 0:
		stride = -1
	case !last && stride == 0:
		stride = len(payload)
	case !last && stride != len(payload):
		stride = -1
	case last:
		lastLen = len(payload)
	}
	if stride < 0 || stride > 0 && lastLen > stride {
		t.drop(k, p)
		return nil
	}
	size, off := lastLen, 0 // the last fragment waits at the head of buf until a stride is known
	if stride > 0 {
		size, off = min(count*stride, maxFrameBytes), index*stride
		if lastLen > 0 {
			size = (count-1)*stride + lastLen
		}
	}
	if off+len(payload) > maxFrameBytes || size > maxFrameBytes {
		t.drop(k, p)
		return nil
	}

	// What the frame holds once its buffer has room for size bytes.
	var held, gotCap, bufCap int
	switch {
	case p != nil:
		gotCap, bufCap = cap(p.got), cap(p.buf)
		held = p.held
	case len(t.spares) > 0:
		spare := t.spares[len(t.spares)-1] // the one open takes
		gotCap, bufCap = cap(spare.got), cap(spare.buf)
	}
	words := (count + 63) / 64
	gotCap = max(gotCap, words)
	bufCap = max(bufCap, size)
	need := gotCap*8 + bufCap - held
	if t.reasmHeld+need > maxReasmBytes || p == nil && len(t.reasm) >= maxPartialFrames {
		t.stats.ReasmDropped.Add(1)
		return nil
	}
	if p == nil {
		p = t.open(count, words)
		p.deadline = now.Add(reasmTTL)
		t.reasm[k] = p
	}
	if cap(p.buf) < size {
		p.buf = append(make([]byte, 0, size), p.buf...)
	}
	if p.stride == 0 && stride > 0 && p.lastLen > 0 {
		// The last fragment came first: move it to its place.
		copy(p.buf[(count-1)*stride:size], p.buf[:p.lastLen])
	}
	p.buf = p.buf[:size] // it only shrinks once the last fragment fixes the frame's length
	copy(p.buf[off:], payload)
	p.stride, p.lastLen = stride, lastLen
	p.got[index/64] |= 1 << (index % 64)
	p.have++
	p.held += need
	t.reasmHeld += need
	if p.have < count {
		return nil
	}
	delete(t.reasm, k)
	t.reasmHeld -= p.held
	return p
}

// open starts a frame of count fragments in the last spare buffer, or in
// a new one when there is no spare.
func (t *UDPTransport) open(count, words int) *partialFrame {
	var p *partialFrame
	if k := len(t.spares); k > 0 {
		p, t.spares[k-1] = t.spares[k-1], nil
		t.spares = t.spares[:k-1]
	} else {
		p = &partialFrame{}
	}
	got := p.got[:0]
	if cap(got) < words {
		got = make([]uint64, 0, words)
	}
	got = got[:words]
	clear(got)
	*p = partialFrame{buf: p.buf[:0], got: got, count: count}
	return p
}

// drop loses one fragment; an incomplete frame it belongs to, which can
// then never be whole, is evicted with it.
func (t *UDPTransport) drop(k reasmKey, p *partialFrame) {
	if p != nil {
		t.evict(k, p)
		return
	}
	t.stats.ReasmDropped.Add(1)
}

// evict abandons an incomplete frame and releases what it held; its
// buffer becomes a spare unless maxSpares are kept.
func (t *UDPTransport) evict(k reasmKey, p *partialFrame) {
	delete(t.reasm, k)
	t.reasmHeld -= p.held
	t.stats.ReasmDropped.Add(1)
	if len(t.spares) < maxSpares {
		t.spares = append(t.spares, p)
	}
}

var _ Transport = (*UDPTransport)(nil)
